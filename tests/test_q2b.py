"""Qudit-to-qubit conversion, measurement plans, and the decode pipeline."""

import hashlib
import pickle
from functools import lru_cache

import numpy as np
import pytest

from gqudits import linalg, oracle, q2b
from gqudits.bases import BasisAssignment, FieldBasis, find_self_dual, polynomial_basis
from gqudits.css import CssCode, dual_space, new_css
from gqudits.errors import (
    DecodeFailure,
    DimensionMismatch,
    FieldMismatch,
    GquditError,
    InvalidAlist,
    InvalidDocument,
    InvalidFieldCode,
    NotCommuting,
    PlanMismatch,
    RankDeficient,
)
from gqudits.field import make_field
from gqudits.gates import pi_map
from gqudits.grs import GrsCode, decode, dual, make_qrs
from gqudits.pauli import PauliWord
from gqudits.q2b import (
    QubitCssCode,
    convert_code,
    convert_logicals,
    default_assignment,
    end_to_end_decode,
    expand_dual,
    expand_vector,
    export_alist,
    export_dense,
    import_alist,
    make_plan,
    reconstruct_syndrome,
)


def lift_vector(assignment, bits):
    """Inverse of expand_vector: (n*s,) bits give (n,) codes and (m, n*s)
    bits give (m, n), recomposed site by site in the site's basis."""
    bits = np.asarray(bits, dtype=np.int64)
    n, s = assignment.n, assignment.gf.s
    if bits.ndim > 2 or bits.shape[-1:] != (n * s,):
        raise DimensionMismatch(f"bits of shape {bits.shape}, assignment needs {n * s} per row")
    blocks = bits.reshape(bits.shape[:-1] + (n, s))
    sites = [B.recompose(blocks[..., i, :]) for i, B in enumerate(assignment.bases)]
    return np.stack(sites, axis=-1)


def lift_dual(assignment, bits):
    """Inverse of expand_dual."""
    return lift_vector(assignment.duals(), bits)


def in_row_space(gf, M, w):
    """w is an F_q combination of the rows of M."""
    return linalg.solve(gf, linalg.as_matrix(M).T, w) is not None


@lru_cache(maxsize=None)
def coordinate_table(basis):
    """eta -> coordinates in basis, by XOR over every subset of its elements."""
    table = {}
    for c in range(1 << len(basis.elements)):
        eta = 0
        for i, e in enumerate(basis.elements):
            if (c >> i) & 1:
                eta ^= e
        table[eta] = [(c >> i) & 1 for i in range(len(basis.elements))]
    return table


def reduce_by(pivots, v, c=0):
    """v reduced by (vector, combination) pivots with distinct leading bits,
    highest first: v ^ pv < v exactly when v has the leading bit of pv."""
    for pv, pc in pivots:
        if v ^ pv < v:
            v, c = v ^ pv, c ^ pc
    return v, c


@lru_cache(maxsize=None)
def elimination_pivots(basis):
    """The elements of basis reduced to distinct leading bits, each with the
    set of elements (bit i for element i) XORed into it."""
    pivots = []
    for i, e in enumerate(basis.elements):
        v, c = reduce_by(pivots, e, 1 << i)
        assert v, "dependent basis"
        pivots = sorted(pivots + [(v, c)], reverse=True)
    return pivots


def scalar_coordinates(basis, eta):
    """Coordinates of eta in basis by scalar F_2 elimination on Python ints,
    at any s (the subset table of coordinate_table stops at small s)."""
    v, c = reduce_by(elimination_pivots(basis), int(eta))
    assert v == 0
    return [(c >> i) & 1 for i in range(len(basis.elements))]


def reference_expand(bases, row):
    """Per-qudit scalar expansion of one F_q row through the given bases."""
    return np.array(
        [bit for basis, eta in zip(bases, row) for bit in scalar_coordinates(basis, eta)],
        dtype=np.int64,
    )


def reference_rows(gf, assignment, rows, elements, dualise):
    """The nested row/basis-element loop: D(b * row) for each row, each b."""
    bases = assignment.duals().bases if dualise else assignment.bases
    ns = assignment.n * gf.s
    out = [reference_expand(bases, gf.mul_arr(row, b)) for row in rows for b in elements]
    return np.array(out, dtype=np.int64).reshape(len(out), ns)


def reference_recompose(basis, bits):
    """The scalar bit fold that FieldBasis.recompose replaced."""
    out = 0
    for c, e in zip(bits, basis.elements):
        if c & 1:
            out ^= e
    return out


def reference_lift(assignment, bits):
    """The per-qudit loop that lift_vector replaced, on one (n*s,) row."""
    s = assignment.gf.s
    blocks = [bits[i * s : (i + 1) * s] for i in range(assignment.n)]
    return np.array([reference_recompose(B, b) for B, b in zip(assignment, blocks)], dtype=np.int64)


def reference_syndrome(bits, basis):
    """The per-check fold that reconstruct_syndrome replaced: sum bit_i b_i^*."""
    return reference_recompose(basis.dual(), bits)


def per_check_basis_syndrome(assignment, rows, bases, dualise, bits):
    """The F_q syndrome as plans with one expansion basis per check read it:
    check j expands to D(b_jt * rows[j]) over its own basis bases[j], and its
    s measured bits fold against the dual elements of that basis."""
    gf, n = assignment.gf, assignment.n
    scales = np.array([b.elements for b in bases], dtype=np.int64)
    scaled = gf.mul_arr(rows[:, None, :], scales[:, :, None]).reshape(-1, n)
    expand = expand_dual if dualise else expand_vector
    checks = expand(assignment, scaled).reshape(len(rows), gf.s, n * gf.s)
    duals = np.array([b.dual().elements for b in bases], dtype=np.int64)
    return np.bitwise_xor.reduce((checks @ bits % 2) * duals, axis=-1)


def assignments(gf, n, rng):
    """A shared basis, distinct per-qudit bases and (for s > 1, where a basis
    can differ from its dual) a mixed pool with B != B*."""
    out = [BasisAssignment.uniform(random_assignment(gf, 1, rng)[0], n)]
    out.append(random_assignment(gf, n, rng))
    if gf.s > 1:
        out.append(mixed_assignment(gf, n, rng))
    return out


def reference_alist(M):
    """The per-column/per-row loop writer that export_alist replaced."""
    M = linalg.as_matrix(M)
    m, n = M.shape
    col_deg = M.sum(axis=0).astype(int) if m else np.zeros(n, dtype=int)
    row_deg = M.sum(axis=1).astype(int) if n else np.zeros(m, dtype=int)
    max_col = int(col_deg.max()) if n else 0
    max_row = int(row_deg.max()) if m else 0
    lines = [f"{n} {m}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(int(d)) for d in col_deg))
    lines.append(" ".join(str(int(d)) for d in row_deg))
    for c in range(n):
        idx = [str(int(r) + 1) for r in np.nonzero(M[:, c])[0]]
        idx += ["0"] * (max_col - len(idx))
        lines.append(" ".join(idx) if idx else "0")
    for r in range(m):
        idx = [str(int(c) + 1) for c in np.nonzero(M[r])[0]]
        idx += ["0"] * (max_row - len(idx))
        lines.append(" ".join(idx) if idx else "0")
    return "\n".join(lines) + "\n"


def reference_dense(M):
    """The per-entry writer that export_dense replaced."""
    M = linalg.as_matrix(M)
    return "\n".join("".join(str(int(b)) for b in row) for row in M) + "\n"


def export_matrices():
    """Seeded 0/1 matrices for the writers: random shapes and densities,
    wide and tall ones at 1% (indices of four digits, a padded last nibble),
    every width 1-17, and all-zero and all-one rows and columns."""
    rng = np.random.default_rng(197)
    mats = [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (0, 4), (3, 5))]
    mats.append(np.ones((2, 3), dtype=np.int64))
    for _ in range(25):
        # n >= 1 here; test_alist_round_trip_of_empty_shapes covers (m, 0)
        m, n = int(rng.integers(0, 30)), int(rng.integers(1, 30))
        mats.append((rng.random((m, n)) < rng.random()).astype(np.int64))
    for shape in ((37, 1029), (1029, 37), (3, 4096)):
        mats.append((rng.random(shape) < 0.01).astype(np.int64))
    for w in range(1, 18):
        mats += [(rng.random(shape) < 0.5).astype(np.int64) for shape in ((7, w), (w, 7))]
        mats += [np.ones((3, w), dtype=np.int64), np.zeros((w, 3), dtype=np.int64)]
    sparse, dense = (rng.random((2, 9, 13)) < [[[0.4]], [[0.6]]]).astype(np.int64)
    sparse[2], sparse[:, 3] = 0, 0
    dense[5], dense[:, 7] = 1, 1
    return mats + [sparse, dense]


def mixed_assignment(gf, n, rng):
    """Random per-qudit bases drawn from a pool of three, so that qudits
    share bases and at least one basis differs from its dual."""
    pool = list(random_assignment(gf, 3, rng).bases)
    assert any(b.dual() != b for b in pool)
    return BasisAssignment([pool[int(i)] for i in rng.integers(0, 3, n)])


def random_assignment(gf, n, rng):
    gf2 = make_field(1)
    bases = []
    for _ in range(n):
        M = linalg.random_invertible(gf2, rng, gf.s)
        bases.append(
            FieldBasis(gf, [int(sum((int(b) & 1) << i for i, b in enumerate(row))) for row in M])
        )
    return BasisAssignment(bases)


class TestExpansion:
    def test_zero_vector(self):
        gf = make_field(2)
        A = default_assignment(gf, 3)
        assert not expand_vector(A, [0, 0, 0]).any()

    def test_single_qudit_reduces_to_decompose(self):
        gf = make_field(3)
        B = polynomial_basis(gf)
        A = BasisAssignment.uniform(B, 1)
        for eta in gf.elements():
            assert np.array_equal(expand_vector(A, [eta]), B.decompose(eta))

    def test_trace_inner_product_transfer(self):
        gf = make_field(2)
        rng = np.random.default_rng(137)
        for A in (default_assignment(gf, 2), random_assignment(gf, 2, rng)):
            for _ in range(100):
                v = rng.integers(0, 4, 2)
                w = rng.integers(0, 4, 2)
                lhs = int(expand_vector(A, v) @ expand_dual(A, w)) % 2
                assert lhs == gf.trace(gf.matmul(v, w))

    def test_lift_inverts_expand(self):
        gf = make_field(3)
        rng = np.random.default_rng(139)
        A = random_assignment(gf, 2, rng)
        for _ in range(20):
            v = rng.integers(0, 8, 2)
            assert np.array_equal(lift_vector(A, expand_vector(A, v)), v)
            assert np.array_equal(lift_dual(A, expand_dual(A, v)), v)

    def test_linear(self):
        gf = make_field(2)
        A = default_assignment(gf, 2)
        rng = np.random.default_rng(141)
        for _ in range(50):
            v1 = rng.integers(0, 4, 2)
            v2 = rng.integers(0, 4, 2)
            assert np.array_equal(
                (expand_vector(A, v1) + expand_vector(A, v2)) % 2, expand_vector(A, v1 ^ v2)
            )


    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_scalar_coordinates_match_the_subset_table(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(173 + s)
        for B in (polynomial_basis(gf), *random_assignment(gf, 3, rng).bases):
            for eta in gf.elements():
                assert scalar_coordinates(B, eta) == coordinate_table(B)[eta]

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 8, 16, 31])
    def test_matrix_expansion_matches_scalar_reference(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(181 + s)
        pools = [random_assignment(gf, 9, rng)]
        if s > 1:  # F_2 has one basis, its own dual
            pools.insert(0, mixed_assignment(gf, 9, rng))
        for n in (1, 5, 9):
            for A in (BasisAssignment(pool.bases[:n]) for pool in pools):
                V = rng.integers(0, gf.q, size=(6, n))
                V = np.vstack([V, np.zeros(n, dtype=np.int64), np.full(n, gf.q - 1)])
                X, Z = expand_vector(A, V), expand_dual(A, V)
                assert X.shape == Z.shape == (8, n * s)
                for row, x, z in zip(V, X, Z):
                    assert np.array_equal(x, reference_expand(A.bases, row))
                    assert np.array_equal(z, reference_expand(A.duals().bases, row))
                    assert np.array_equal(expand_vector(A, row), x)
                    assert np.array_equal(expand_dual(A, row), z)
                assert expand_vector(A, V[:0]).shape == expand_dual(A, V[:0]).shape == (0, n * s)

    @pytest.mark.parametrize("s", [1, 8, 16, 31])
    @pytest.mark.parametrize("expand", [expand_vector, expand_dual])
    def test_codes_outside_the_field_rejected(self, s, expand):
        gf = make_field(s)
        A = BasisAssignment.uniform(polynomial_basis(gf), 3)
        for bad in (-1, gf.q):
            with pytest.raises(InvalidFieldCode):
                expand(A, [0, bad, 1])
            with pytest.raises(InvalidFieldCode):
                expand(A, [[0, 0, 0], [1, 0, bad]])

    def test_scaled_rows_match_the_nested_loops_at_s8(self):
        """_expand_rows, the expansion of every b_t * row, against the
        row/element loop under a mixed assignment, zero and q-1 rows included."""
        gf = make_field(8)
        rng = np.random.default_rng(233)
        A = mixed_assignment(gf, 10, rng)
        rows = rng.integers(0, gf.q, size=(5, 10))
        rows[0], rows[1] = 0, gf.q - 1
        enum = find_self_dual(gf).elements
        for dualise in (False, True):
            got = q2b._expand_rows(A, rows, dualise)
            assert np.array_equal(got, reference_rows(gf, A, rows, enum, dualise))
            assert q2b._expand_rows(A, rows[:0], dualise).shape == (0, 80)

    def test_empty_matrix(self):
        gf = make_field(3)
        A = default_assignment(gf, 4)
        assert expand_vector(A, np.zeros((0, 4), dtype=np.int64)).shape == (0, 12)

    def test_out_of_range_site_rejected(self):
        gf = make_field(2)
        A = default_assignment(gf, 2)
        with pytest.raises(InvalidFieldCode):
            expand_vector(A, [[0, 4]])

    @pytest.mark.parametrize("bad", [2, -1])
    def test_lift_rejects_non_bits(self, bad):
        gf = make_field(2)
        A = default_assignment(gf, 2)
        with pytest.raises(InvalidFieldCode):
            lift_vector(A, [0, bad, 0, 0])

    @pytest.mark.parametrize("lift", [lift_vector, lift_dual])
    def test_matrix_lift_rejects_non_bits(self, lift):
        A = default_assignment(make_field(2), 2)
        with pytest.raises(InvalidFieldCode):
            lift(A, [[0, 1, 0, 0], [0, 0, 2, 0]])

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_lift_matches_scalar_reference(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(211 + s)
        for A in assignments(gf, 6, rng):
            bits = rng.integers(0, 2, size=(4, 6 * s))
            X, Z = lift_vector(A, bits), lift_dual(A, bits)
            assert X.shape == Z.shape == (4, 6)
            for row, x, z in zip(bits, X, Z):
                assert np.array_equal(x, reference_lift(A, row))
                assert np.array_equal(z, reference_lift(A.duals(), row))
                assert np.array_equal(lift_vector(A, row), x)

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_matrix_lift_round_trip(self, m):
        gf = make_field(3)
        rng = np.random.default_rng(223 + m)
        for A in assignments(gf, 7, rng):
            V = rng.integers(0, gf.q, size=(m, 7))
            assert np.array_equal(lift_vector(A, expand_vector(A, V)), V)
            assert np.array_equal(lift_dual(A, expand_dual(A, V)), V)

    @pytest.mark.parametrize("shape", [(4, 7), (2, 2, 8), ()])
    def test_lift_shape_checked(self, shape):
        A = default_assignment(make_field(2), 4)
        with pytest.raises(DimensionMismatch):
            lift_vector(A, np.zeros(shape, dtype=np.int64))


class TestAgainstNestedLoops:
    """Conversion outputs against the row-by-row, element-by-element
    construction with a per-qudit scalar expansion."""

    @pytest.mark.parametrize(
        "s,n,k1,k2", [(2, 4, 1, 3), (3, 8, 2, 5), (4, 12, 3, 8), (8, 16, 5, 11)]
    )
    def test_convert_plan_and_logicals(self, s, n, k1, k2):
        gf = make_field(s)
        rng = np.random.default_rng(191 + s)
        code = make_qrs(gf, n, k1, k2).css
        enum = find_self_dual(gf).elements
        for A in (default_assignment(gf, n), mixed_assignment(gf, n, rng)):
            qubit = convert_code(code, A)
            assert np.array_equal(qubit.hx, reference_rows(gf, A, code.gx, enum, False))
            assert np.array_equal(qubit.hz, reference_rows(gf, A, code.gz, enum, True))

            z_space, x_space = convert_logicals(code, A)
            assert np.array_equal(z_space, reference_rows(gf, A, dual_space(gf, code.gx), enum, True))
            assert np.array_equal(x_space, reference_rows(gf, A, dual_space(gf, code.gz), enum, False))

            plan = make_plan(code, A)
            assert plan.basis == find_self_dual(gf)
            for rows, checks, dualise in (
                (code.gx, plan.x_checks, False),
                (code.gz, plan.z_checks, True),
            ):
                assert len(checks) == len(rows)
                for row, group in zip(rows, checks):
                    assert np.array_equal(group, reference_rows(gf, A, [row], enum, dualise))

    def test_mixed_assignment_golden(self):
        """The alist bytes of a conversion under a mixed assignment, pinned
        from the per-basis decompose loop that the batched maps replaced."""
        gf = make_field(4)
        code = make_qrs(gf, 16, 4, 11).css
        A = mixed_assignment(gf, 16, np.random.default_rng(2022))
        qubit = convert_code(code, A)
        outputs = (qubit.hx, qubit.hz, *convert_logicals(code, A))
        digests = [hashlib.sha256(export_alist(M).encode()).hexdigest() for M in outputs]
        assert digests == [
            "bb7cc5b85396c67980cb803613bc0d3105ed022067b942dc33c094c39876e791",  # hx
            "f0f7394990a1e9a38302c46fd81f62580c4bb399b6b7b5668c98a12984e001e6",  # hz
            "2b088e1a8c926b09c1c10ad86f649adee27b3deb0ee0077f4ab17b0ef6bc620d",  # z_space
            "aa8a17d5cb8a5bd8271f60663a895128b607570ca670511c52982760126a3796",  # x_space
        ]

    def test_enumeration_basis_spans_the_same_space(self):
        """b * row over any F_2-basis b spans F_q * row, so the polynomial
        basis gives the row spaces of the self-dual enumeration."""
        gf = make_field(3)
        gf2 = make_field(1)
        code = make_qrs(gf, 8, 2, 5).css
        A = mixed_assignment(gf, 8, np.random.default_rng(197))
        qubit = convert_code(code, A)
        enum = polynomial_basis(gf).elements
        for got, rows, dualise in ((qubit.hx, code.gx, False), (qubit.hz, code.gz, True)):
            want = reference_rows(gf, A, rows, enum, dualise)
            assert not np.array_equal(got, want)
            assert np.array_equal(linalg.rref(gf2, got)[0], linalg.rref(gf2, want)[0])

    @pytest.mark.parametrize(
        "s,n,k1,k2", [(1, 2, 1, 2), (3, 8, 2, 5), (6, 16, 4, 12), (8, 16, 5, 11)]
    )
    def test_plan_checks_are_the_converted_checks(self, s, n, k1, k2):
        """A plan's checks are convert_code's hx and hz rows, s per qudit
        check, for the default and for mixed per-qudit assignments."""
        gf = make_field(s)
        rng = np.random.default_rng(283 + s)
        code = make_qrs(gf, n, k1, k2).css
        for A in (default_assignment(gf, n), *assignments(gf, n, rng)):
            qubit, plan = convert_code(code, A), make_plan(code, A)
            assert plan.x_checks.shape == (code.m_x, s, n * s)
            assert plan.z_checks.shape == (code.m_z, s, n * s)
            assert np.array_equal(plan.x_checks.reshape(-1, n * s), qubit.hx)
            assert np.array_equal(plan.z_checks.reshape(-1, n * s), qubit.hz)

    def test_assignment_length_checked(self):
        gf = make_field(2)
        code = make_qrs(gf, 4, 1, 3).css
        with pytest.raises(DimensionMismatch):
            convert_code(code, default_assignment(gf, 2))


class TestConvertCode:
    def test_trivial_qudit_code(self):
        gf = make_field(2)
        code = new_css(gf, 2, np.zeros((0, 2)), np.zeros((0, 2)))
        qubit = convert_code(code)
        assert qubit.ns == 4 and qubit.k == 4

    def test_qrs_gives_24_9(self):
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        gf2 = make_field(1)
        assert qubit.ns == 24
        assert linalg.rank(gf2, qubit.hx) == 6
        assert linalg.rank(gf2, qubit.hz) == 9
        assert qubit.k == 9
        assert not np.any((qubit.hx @ qubit.hz.T) % 2)

    def test_orthogonality_transfer_random_bases(self):
        """D_B(a) . D_{B*}(b) = tr(a b): QubitCssCode does not check hx . hz^T,
        so this pins it on QRS codes and on random CSS codes, for shared,
        per-qudit and mixed (B != B*) assignments."""
        for s in (1, 2, 3, 4):
            gf = make_field(s)
            rng = np.random.default_rng(149 + s)
            n = min(gf.q, 6)
            k1, k2 = sorted(int(k) for k in rng.integers(0, n + 1, 2))
            gx = linalg.random_full_rank(gf, rng, int(rng.integers(1, n)), n)
            gz = dual_space(gf, gx)
            m_z = int(rng.integers(1, len(gz) + 1))
            for code in (make_qrs(gf, n, k1, k2).css, new_css(gf, n, gx, gz[:m_z])):
                for A in assignments(gf, n, rng):
                    qubit = convert_code(code, A)
                    assert qubit.hx.shape == (s * code.m_x, s * n)
                    assert not np.any((qubit.hx @ qubit.hz.T) % 2), (s, A)

    def test_dimension_transfer(self):
        gf = make_field(3)
        rng = np.random.default_rng(151)
        code = make_qrs(gf, 6, 2, 4).css
        gf2 = make_field(1)
        for A in (default_assignment(gf, 6), random_assignment(gf, 6, rng)):
            qubit = convert_code(code, A)
            assert linalg.rank(gf2, qubit.hx) == gf.s * code.m_x
            assert linalg.rank(gf2, qubit.hz) == gf.s * code.m_z

    def test_method_one_equivalence(self):
        """phi maps the qudit codespace onto the converted qubit codespace
        (projector comparison at q=4, n=2)."""
        gf = make_field(2)
        for gx, gz in (
            ([[1, 1]], np.zeros((0, 2), dtype=np.int64)),
            ([[1, 2]], [[1, gf.div(1, 2)]]),
        ):
            code = new_css(gf, 2, gx, gz)
            A = default_assignment(gf, 2)
            qudit_proj = np.eye(16, dtype=np.complex128)
            for row in code.gx:
                qudit_proj = qudit_proj @ oracle.projectors(PauliWord.x_word(gf, row))[0]
            for row in code.gz:
                qudit_proj = qudit_proj @ oracle.projectors(PauliWord.z_word(gf, row))[0]
            mapped = pi_map(A, oracle.DenseOperator(gf, 2, qudit_proj)).mat

            qubit = convert_code(code, A)
            gf2 = make_field(1)
            qubit_proj = np.eye(16, dtype=np.complex128)
            for row in qubit.hx:
                qubit_proj = qubit_proj @ oracle.projectors(PauliWord.x_word(gf2, row))[0]
            for row in qubit.hz:
                qubit_proj = qubit_proj @ oracle.projectors(PauliWord.z_word(gf2, row))[0]
            assert np.allclose(mapped, qubit_proj, atol=1e-10)

    def test_bundle_round_trip(self):
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        again = QubitCssCode.from_json(qubit.to_json())
        assert np.array_equal(again.hx, qubit.hx) and np.array_equal(again.hz, qubit.hz)
        assert again == qubit and again.to_json() == qubit.to_json() and again.k == 9

    @pytest.mark.parametrize("key", ["qudit_code", "basis_assignment", "hx", "hz"])
    def test_bundle_missing_key_named(self, key):
        data = convert_code(make_qrs(make_field(2), 4, 1, 2).css).to_json()
        del data[key]
        with pytest.raises(InvalidDocument, match=f"missing key '{key}'"):
            QubitCssCode.from_json(data)

    def test_bundle_nested_code_checked(self):
        data = convert_code(make_qrs(make_field(2), 4, 1, 2).css).to_json()
        del data["qudit_code"]["gz"]
        with pytest.raises(InvalidDocument, match="missing key 'gz'"):
            QubitCssCode.from_json(data)


class TestDerivedBundle:
    """A bundle is its qudit code's expansion: a document whose hx or hz is
    not that expansion is refused, naming the key."""

    @staticmethod
    def bundle():
        return convert_code(make_qrs(make_field(3), 8, 2, 5).css).to_json()

    @pytest.mark.parametrize("key", ["hx", "hz"])
    def test_zeroed_matrix_refused(self, key):
        data = self.bundle()
        data[key] = [[0] * len(row) for row in data[key]]
        with pytest.raises(InvalidDocument, match=f"'{key}' is not the expansion"):
            QubitCssCode.from_json(data)

    def test_cut_rows_refused(self):
        data = self.bundle()
        data["hx"] = data["hx"][:3]
        with pytest.raises(InvalidDocument, match="'hx' is not the expansion"):
            QubitCssCode.from_json(data)

    def test_changed_basis_refused(self):
        data = self.bundle()
        data["basis_assignment"][0] = list(polynomial_basis(make_field(3)).elements)
        with pytest.raises(InvalidDocument, match="'hx' is not the expansion"):
            QubitCssCode.from_json(data)


class TestDimension:
    """k = s (n - rank gx - rank gz) against the F_2 count on the expansion,
    ns - rank_2(hx) - rank_2(hz), which k used to eliminate."""

    @staticmethod
    def f2_k(qubit):
        gf2 = make_field(1)
        return qubit.ns - linalg.rank(gf2, qubit.hx) - linalg.rank(gf2, qubit.hz)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_k_matches_the_f2_ranks(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(307 + s)
        n = min(gf.q, 8)
        for _ in range(3):
            k1, k2 = sorted(int(k) for k in rng.integers(0, n + 1, 2))
            alpha = rng.permutation(gf.q)[:n]
            v = rng.integers(1, gf.q, n)
            code = make_qrs(gf, n, k1, k2, alpha, v).css
            for A in (default_assignment(gf, n), *assignments(gf, n, rng)):
                qubit = convert_code(code, A)
                assert qubit.k == self.f2_k(qubit) == s * (k2 - k1)

    def test_dependent_rows_counted_once(self):
        """A repeated gx row is refused where the code is built, so every
        qubit code comes from independent rows and k = s * (qudit k)."""
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        with pytest.raises(RankDeficient, match=r"gx rows are linearly dependent \(rank 2 of 3\)"):
            CssCode(gf, 8, np.vstack([qrs.css.gx, qrs.css.gx[:1]]), qrs.css.gz)
        rng = np.random.default_rng(311)
        for A in (default_assignment(gf, 8), *assignments(gf, 8, rng)):
            qubit = convert_code(qrs.css, A)
            assert qubit.k == self.f2_k(qubit) == 3 * qrs.css.k == 9

    def test_k_runs_no_elimination(self, monkeypatch):
        """k is s times the qudit code's k; it computes no rank."""
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        calls = []
        monkeypatch.setattr(linalg, "rref_augmented", lambda *args: calls.append(args))
        assert qubit.k == 9 and calls == []


class TestConvertLogicals:
    def test_k_zero_logical_spaces_equal_stabilisers(self):
        gf = make_field(2)
        code = new_css(gf, 2, [[1, 1]], [[1, 1]])
        z_space, x_space = convert_logicals(code)
        qubit = convert_code(code)
        gf2 = make_field(1)
        for space, stab in ((z_space, qubit.hz), (x_space, qubit.hx)):
            r1, _ = linalg.rref(gf2, space)
            r2, _ = linalg.rref(gf2, stab)
            assert np.array_equal(r1[: linalg.rank(gf2, space)], r2[: linalg.rank(gf2, stab)])

    def test_qrs_rank_counts(self):
        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        z_space, x_space = convert_logicals(code)
        gf2 = make_field(1)
        assert linalg.rank(gf2, z_space) == 24 - 3 * 2  # ns - s dim L_X
        assert linalg.rank(gf2, x_space) == 24 - 3 * 3  # ns - s dim L_Z

    def test_qudit_logicals_map_into_binary_spaces(self):
        from gqudits.css import logical_spaces

        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        A = default_assignment(gf, 8)
        z_space, x_space = convert_logicals(code, A)
        z_reps, x_reps = logical_spaces(code)
        gf2 = make_field(1)
        for rep in z_reps:
            assert in_row_space(gf2, z_space, expand_dual(A, rep))
        for rep in x_reps:
            assert in_row_space(gf2, x_space, expand_vector(A, rep))


class TestWorkedExamples:
    def test_single_qudit_x_measurement(self):
        """The one-check code {X^1} expands to s independent X-type qubit
        checks, for any qudit-to-qubit basis."""
        rng = np.random.default_rng(157)
        for s in (2, 3):
            gf = make_field(s)
            code = new_css(gf, 1, [[1]], np.zeros((0, 1), dtype=np.int64))
            gf2 = make_field(1)
            for A in (default_assignment(gf, 1), random_assignment(gf, 1, rng)):
                plan = make_plan(code, A)
                (group,) = plan.x_checks
                assert group.shape == (s, s)
                assert linalg.rank(gf2, group) == s

    def test_two_qudit_xx_pairwise_form(self):
        """With identical per-qudit bases the XX check expands to s checks
        of the block form (b_i, b_i)."""
        gf = make_field(3)
        B = find_self_dual(gf)
        A = BasisAssignment.uniform(B, 2)
        code = new_css(gf, 2, [[1, 1]], np.zeros((0, 2), dtype=np.int64))
        (group,) = make_plan(code, A).x_checks
        left, right = group[:, :3], group[:, 3:]
        assert np.array_equal(left, right)
        assert linalg.rank(make_field(1), left) == 3


class TestZeroCheckRow:
    """A zero check row is the one row whose s expanded checks are
    dependent; CssCode refuses it as a dependent row of its block."""

    @pytest.mark.parametrize("side", ["gx", "gz"])
    def test_zero_row_named(self, side):
        gf = make_field(3)
        rows = np.array([[1, 2, 0], [0, 0, 0]], dtype=np.int64)
        empty = np.zeros((0, 3), dtype=np.int64)
        with pytest.raises(RankDeficient, match=rf"{side} rows are linearly dependent \(rank 1 of 2\)"):
            CssCode(gf, 3, rows, empty) if side == "gx" else CssCode(gf, 3, empty, rows)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_non_zero_rows_expand_to_independent_checks(self, s):
        """Each non-zero row, dependent on the others or not, expands to s
        independent qubit checks, through the bases and through their duals."""
        gf = make_field(s)
        rng = np.random.default_rng(251 + s)
        rows = rng.integers(0, gf.q, size=(6, 4))
        rows[np.arange(6), rng.integers(0, 4, 6)] = rng.integers(1, gf.q, 6)  # no zero row
        for A in assignments(gf, 4, rng):
            for dualise in (False, True):
                groups = q2b._expand_rows(A, rows, dualise).reshape(6, s, 4 * s)
                assert all(linalg.rank(make_field(1), g) == s for g in groups)


class TestReconstructSyndrome:
    def test_zero_bits(self):
        gf = make_field(2)
        assert reconstruct_syndrome([[0, 0]], find_self_dual(gf)).tolist() == [0]

    def test_exhaustive_round_trip_q4(self):
        gf = make_field(2)
        rng = np.random.default_rng(163)
        bases = [find_self_dual(gf), polynomial_basis(gf)]
        gf2 = make_field(1)
        M = linalg.random_invertible(gf2, rng, 2)
        bases.append(FieldBasis(gf, [int(r[0] + 2 * r[1]) for r in M]))
        for B in bases:
            for eta in gf.elements():
                bits = [gf.trace(gf.mul(b, eta)) for b in B.elements]
                assert reconstruct_syndrome([bits], B).tolist() == [eta]
                assert reconstruct_syndrome(bits, B) == eta

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_scalar_reference(self, s):
        """Shared, distinct and (s > 1) non-self-dual bases, each reading
        every row of bits at once."""
        gf = make_field(s)
        rng = np.random.default_rng(227 + s)
        bits = rng.integers(0, 2, size=(9, s))
        for A in assignments(gf, 9, rng):
            for B in A.bases:
                got = reconstruct_syndrome(bits, B)
                assert got.shape == (9,)
                assert got.tolist() == [reference_syndrome(b, B) for b in bits]

    def test_non_bits_rejected(self):
        gf = make_field(3)
        with pytest.raises(InvalidFieldCode):
            reconstruct_syndrome([[1, 2, 0]], polynomial_basis(gf))

    def test_one_row_per_basis(self):
        """Each row of bits holds one bit per basis element."""
        gf = make_field(3)
        for bad in ([[1, 0]], [[1, 0, 0, 1]], 1):
            with pytest.raises(DimensionMismatch):
                reconstruct_syndrome(bad, polynomial_basis(gf))

    def test_planted_component(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        B = find_self_dual(gf)
        rng = np.random.default_rng(167)
        for _ in range(20):
            W = rng.integers(0, 8, 8)
            for j, v in enumerate(qrs.css.gx):
                target = gf.matmul(v, W)
                bits = [gf.trace(gf.mul(b, target)) for b in B.elements]
                assert reconstruct_syndrome([bits], B).tolist() == [target]


class TestPerCheckBases:
    """Reading each check in its own random expansion basis, as plans once
    could, gives the F_q syndrome that the self-dual plan reconstructs."""

    @pytest.mark.parametrize("s,n,k1,k2", [(2, 4, 1, 3), (3, 8, 2, 5), (6, 16, 4, 12)])
    def test_same_syndrome_as_the_self_dual_plan(self, s, n, k1, k2):
        gf = make_field(s)
        rng = np.random.default_rng(293 + s)
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        v = rng.integers(1, gf.q, size=n, dtype=np.int64)
        code = make_qrs(gf, n, k1, k2, alpha, v).css
        for A in (default_assignment(gf, n), mixed_assignment(gf, n, rng)):
            plan = make_plan(code, A)
            pool = list(random_assignment(gf, 2, rng).bases) + [polynomial_basis(gf)]
            # X checks diagnose Z errors D_{B*}(W); Z checks, expanded
            # through the duals, diagnose X errors D_B(W)
            sides = ((code.gx, plan.x_checks, "Z"), (code.gz, plan.z_checks, "X"))
            for rows, checks, kind in sides:
                for _ in range(20):
                    bases = [pool[int(i)] for i in rng.integers(0, 3, len(rows))]
                    W = rng.integers(0, gf.q, size=n)
                    W[rng.random(n) < 0.5] = 0
                    bits = expand_dual(A, W) if kind == "Z" else expand_vector(A, W)
                    want = per_check_basis_syndrome(A, rows, bases, kind == "X", bits)
                    got = reconstruct_syndrome(checks @ bits % 2, plan.basis)
                    assert np.array_equal(got, want)
                    assert np.array_equal(got, gf.matmul(rows, W))


@pytest.fixture(scope="module")
def setup():
    gf = make_field(3)
    qrs = make_qrs(gf, 8, 2, 5)
    A = default_assignment(gf, 8)
    plan = make_plan(qrs.css, A)
    return gf, qrs, A, plan


class TestEndToEnd:
    def test_zero_error(self, setup):
        gf, qrs, A, plan = setup
        for kind in ("Z", "X"):
            out = end_to_end_decode(qrs, A, plan, np.zeros(24, dtype=np.int64), kind)
            assert not out.any()

    def test_weight_one_qudit_errors_recovered(self, setup):
        gf, qrs, A, plan = setup
        rng = np.random.default_rng(173)
        for _ in range(200):
            kind = "Z" if rng.integers(2) else "X"
            W = np.zeros(8, dtype=np.int64)
            W[int(rng.integers(8))] = int(rng.integers(1, 8))
            bits = expand_dual(A, W) if kind == "Z" else expand_vector(A, W)
            assert np.array_equal(end_to_end_decode(qrs, A, plan, bits, kind), bits)

    def test_beyond_radius_fails_or_stays_consistent(self, setup):
        """Qudit weight 2 exceeds both decode radii here: the pipeline must
        fail loudly or return a syndrome-consistent error within radius."""
        gf, qrs, A, plan = setup
        rng = np.random.default_rng(179)
        failures = 0
        for _ in range(100):
            W = np.zeros(8, dtype=np.int64)
            pos = rng.choice(8, size=2, replace=False)
            W[pos] = rng.integers(1, 8, 2)
            bits = expand_dual(A, W)
            try:
                out = end_to_end_decode(qrs, A, plan, bits, "Z")
            except DecodeFailure:
                failures += 1
                continue
            lifted = lift_dual(A, out)
            assert np.array_equal(
                gf.matmul(qrs.css.gx, lifted), gf.matmul(qrs.css.gx, W)
            )
            assert int((lifted != 0).sum()) <= 1
        assert failures > 0


@pytest.fixture(scope="module")
def setup64():
    gf = make_field(6)
    qrs = make_qrs(gf, 64, 16, 48)  # both decode radii are 8
    A = default_assignment(gf, 64)
    return gf, qrs, A, make_plan(qrs.css, A)


class TestEndToEndF64:
    @pytest.mark.parametrize("kind", ["Z", "X"])
    def test_round_trip_through_zero_point(self, setup64, kind):
        """Errors of weight 1..8 with one always on qudit 0, whose
        evaluation point is alpha = 0."""
        gf, qrs, A, plan = setup64
        assert qrs.alpha[0] == 0
        rng = np.random.default_rng(239 if kind == "Z" else 241)
        for weight in range(1, 9):
            for _ in range(3):
                W = np.zeros(64, dtype=np.int64)
                pos = np.concatenate([[0], 1 + rng.choice(63, size=weight - 1, replace=False)])
                W[pos] = rng.integers(1, 64, weight)
                bits = expand_dual(A, W) if kind == "Z" else expand_vector(A, W)
                assert np.array_equal(end_to_end_decode(qrs, A, plan, bits, kind), bits)

    def test_error_bits_length_checked(self, setup64):
        gf, qrs, A, plan = setup64
        with pytest.raises(DimensionMismatch):
            end_to_end_decode(qrs, A, plan, np.zeros(64 * 6 - 1, dtype=np.int64), "Z")

    @pytest.mark.parametrize("bad", [2, -1])
    def test_error_bits_must_be_binary(self, setup64, bad):
        gf, qrs, A, plan = setup64
        bits = np.zeros(64 * 6, dtype=np.int64)
        bits[0] = bad
        with pytest.raises(GquditError):
            end_to_end_decode(qrs, A, plan, bits, "X")


    @pytest.mark.parametrize("kind", ["Z", "X"])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_error_bits_outside_f2_are_invalid_codes(self, setup64, kind, bad):
        """The syndrome is the parity of the checks on the error's support,
        which would count a 2 or a -1 as a 1: the bits are checked first."""
        gf, qrs, A, plan = setup64
        bits = np.zeros(64 * 6, dtype=np.int64)
        bits[[0, 100]] = [1, bad]
        with pytest.raises(InvalidFieldCode):
            end_to_end_decode(qrs, A, plan, bits, kind)


class TestSupportParitySyndrome:
    """The F_q syndrome that a shot hands to decode, one product with the
    plan's syndrome map, against the checks' bits read one by one,
    reconstruct_syndrome(checks @ bits % 2), under the default assignment
    and random ones that are not self-dual."""

    @pytest.mark.parametrize("s,n,k1,k2", [(3, 8, 2, 5), (4, 16, 4, 10), (6, 32, 8, 24)])
    def test_matches_the_product(self, s, n, k1, k2, monkeypatch):
        gf = make_field(s)
        rng = np.random.default_rng(311 + s)
        qrs = make_qrs(gf, n, k1, k2)
        seen = []
        monkeypatch.setattr(q2b, "decode", lambda c, S: seen.append(S) or decode(c, S))
        random = random_assignment(gf, n, rng)
        assert not any(b.is_self_dual() for b in random.bases)
        for A in (default_assignment(gf, n), random, mixed_assignment(gf, n, rng)):
            plan = make_plan(qrs.css, A)
            for kind, checks in (("Z", plan.x_checks), ("X", plan.z_checks)):
                radius = qrs.decoders[kind].radius
                for weight in range(radius + 3):
                    W = np.zeros(n, dtype=np.int64)
                    W[rng.choice(n, size=weight, replace=False)] = rng.integers(1, gf.q, weight)
                    errors = expand_dual(A, W) if kind == "Z" else expand_vector(A, W)
                    for bits in (errors, rng.integers(0, 2, n * s)):  # and any bit string
                        seen.clear()
                        try:
                            out = end_to_end_decode(qrs, A, plan, bits, kind)
                        except DecodeFailure:
                            out = None
                        expected = reconstruct_syndrome(checks @ bits % 2, plan.basis)
                        assert len(seen) == 1 and np.array_equal(seen[0], expected)
                        if weight <= radius and bits is errors:
                            assert np.array_equal(out, bits)


def lift_path_decode(qrs, assignment, plan, bits, kind):
    """The decode path that the direct syndrome replaced: lift the F_q
    syndrome to a received word r through a right inverse R of the check
    rows (rows . R = I), recompute S = H . r for the dual of the side code,
    decode S and expand the error."""
    gf = qrs.gf
    if kind == "Z":
        rows, checks = qrs.css.gx, plan.x_checks
        side = GrsCode(gf, qrs.k1, qrs.alpha, qrs.v)
    else:
        rows, checks = qrs.css.gz, plan.z_checks
        side = GrsCode(gf, qrs.n - qrs.k2, qrs.alpha, qrs.u)
    syndrome = reconstruct_syndrome(checks @ bits % 2, plan.basis)
    _, E, pivots = linalg.rref_augmented(gf, rows, np.eye(len(rows), dtype=np.int64))
    R = np.zeros((qrs.n, len(rows)), dtype=np.int64)
    R[pivots] = E
    code = dual(side)
    err = decode(code, gf.matmul(code.parity_check, gf.matmul(R, syndrome)))
    return expand_dual(assignment, err) if kind == "Z" else expand_vector(assignment, err)


class TestDirectSyndromeDecode:
    """end_to_end_decode against the lift path it replaced, with random
    points, multipliers and qudit bases: the same error
    bits or the same DecodeFailure at every qudit weight from 0 to 3 beyond
    the radius."""

    @pytest.mark.parametrize("s,n,k1,k2", [(3, 8, 2, 5), (4, 16, 4, 10), (6, 64, 16, 48)])
    @pytest.mark.parametrize("kind", ["Z", "X"])
    def test_matches_the_lift_path(self, s, n, k1, k2, kind):
        gf = make_field(s)
        rng = np.random.default_rng(269 + s + (kind == "X"))
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        v = rng.integers(1, gf.q, size=n, dtype=np.int64)
        qrs = make_qrs(gf, n, k1, k2, alpha, v)
        A = mixed_assignment(gf, n, rng)
        plan = make_plan(qrs.css, A)
        radius = qrs.decoders[kind].radius
        refused = 0
        for weight in range(radius + 4):
            for _ in range(8):
                W = np.zeros(n, dtype=np.int64)
                pos = rng.choice(n, size=weight, replace=False)
                W[pos] = rng.integers(1, gf.q, size=weight)
                bits = expand_dual(A, W) if kind == "Z" else expand_vector(A, W)
                outcomes = []
                for path in (end_to_end_decode, lift_path_decode):
                    try:
                        outcomes.append(path(qrs, A, plan, bits, kind).tolist())
                    except DecodeFailure as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
                if weight <= radius:
                    assert outcomes[0] == bits.tolist()
                refused += isinstance(outcomes[0], str)
        assert refused > 0


class TestPlanBinding:
    """A plan decodes only the code and assignment it was made for."""

    def test_plan_of_another_code_refused(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        A = default_assignment(gf, 8)
        plan = make_plan(make_qrs(gf, 8, 2, 5, v=[3] + [1] * 7).css, A)
        for pos in range(8):
            for e in range(1, 8):
                W = np.zeros(8, dtype=np.int64)
                W[pos] = e
                with pytest.raises(PlanMismatch, match="check rows"):
                    end_to_end_decode(qrs, A, plan, expand_dual(A, W), "Z")
        with pytest.raises(PlanMismatch, match="check rows"):
            end_to_end_decode(qrs, A, plan, np.zeros(24, dtype=np.int64), "X")

    def test_plan_of_another_assignment_refused(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        A = default_assignment(gf, 8)
        plan = make_plan(qrs.css, BasisAssignment.uniform(polynomial_basis(gf), 8))
        for kind in ("Z", "X"):
            with pytest.raises(PlanMismatch, match="assignment"):
                end_to_end_decode(qrs, A, plan, np.zeros(24, dtype=np.int64), kind)

    def test_equal_code_and_assignment_accepted(self):
        """Equal check rows and bases in other objects pass the check."""
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        plan = make_plan(make_qrs(gf, 8, 2, 5).css)
        A = default_assignment(gf, 8)
        assert plan.source is not qrs.css and plan.assignment is not A
        W = np.zeros(8, dtype=np.int64)
        W[3] = 5
        bits = expand_dual(A, W)
        assert np.array_equal(end_to_end_decode(qrs, A, plan, bits, "Z"), bits)


class TestEquality:
    """== answers on codes and plans instead of raising on their arrays; a
    plan is the converted code, so it compares by its check matrices."""

    def test_equal_codes_in_other_objects(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        A = default_assignment(gf, 8)
        assert qrs.css == make_qrs(gf, 8, 2, 5).css
        assert convert_code(qrs.css, A) == convert_code(qrs.css, A)
        plan = make_plan(qrs.css)
        assert plan == plan and make_plan(qrs.css) == make_plan(qrs.css) == convert_code(qrs.css)

    def test_different_codes_unequal(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        other = make_qrs(gf, 8, 2, 5, v=[3] + [1] * 7)
        assert qrs.css != other.css and qrs.css != make_qrs(gf, 8, 3, 5).css
        foreign = CssCode(make_field(modulus=0b1101), 8, qrs.css.gx, qrs.css.gz)
        assert qrs.css != foreign
        A = default_assignment(gf, 8)
        P = BasisAssignment.uniform(polynomial_basis(gf), 8)
        assert convert_code(qrs.css, A) != convert_code(qrs.css, P)
        assert convert_code(qrs.css, A) != convert_code(other.css, A)
        assert qrs.css != qrs.css.to_json() and convert_code(qrs.css, A) != qrs.css


class TestQubitParams:
    def test_empirical_qubit_distance(self):
        """No closed form is asserted; the brute force just has to agree
        with a direct enumeration on a small instance."""
        gf = make_field(2)
        qubit = convert_code(make_qrs(gf, 4, 1, 3).css)
        p = qubit.params()
        assert (p.n, p.k) == (8, 4)
        assert p.distance_status == "exact" and p.d is not None and p.d >= 1

    def test_budget_guard(self):
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        p = qubit.params(distance_budget=16)
        assert p.distance_status == "not-computed"


class TestExports:
    def test_alist_round_trip(self):
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        text = export_alist(qubit.hx)
        back = import_alist(text)
        assert np.array_equal(back, qubit.hx)

    def test_alist_header_and_degrees(self):
        M = np.array([[1, 0, 1], [0, 1, 1]])
        lines = export_alist(M).strip().splitlines()
        assert lines[0] == "3 2"
        assert lines[1] == "2 2"
        assert lines[2] == "1 1 2"
        assert lines[3] == "2 2"
        assert lines[4].split() == ["1", "0"]  # zero padded to max degree

    def test_alist_matches_loop_writer(self):
        for M in export_matrices():
            text = export_alist(M)
            assert text == reference_alist(M)
            assert np.array_equal(import_alist(text), M)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0), (1, 0)])
    def test_alist_round_trip_of_empty_shapes(self, shape):
        M = np.zeros(shape, dtype=np.int64)
        text = export_alist(M)
        assert text.splitlines()[0] == f"{shape[1]} {shape[0]}"
        back = import_alist(text)
        assert back.shape == shape

    def test_alist_rejects_non_bits(self):
        with pytest.raises(InvalidFieldCode):
            export_alist([[0, 2]])

    def test_dense_export(self):
        M = np.array([[1, 0], [0, 1]])
        assert export_dense(M) == "10\n01\n"

    def test_dense_matches_entry_writer(self):
        for M in export_matrices():
            assert export_dense(M) == reference_dense(M)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0), (1, 0)])
    def test_dense_of_empty_shapes(self, shape):
        M = np.zeros(shape, dtype=np.int64)
        assert export_dense(M) == reference_dense(M) == "\n" * max(shape[0], 1)

    @pytest.mark.parametrize("M", [[[2, 0], [-1, 1]], [[0, 2]], [[-1]]])
    def test_dense_rejects_non_bits(self, M):
        """The same boundary as export_alist: no entry outside {0, 1} prints."""
        with pytest.raises(InvalidFieldCode):
            export_alist(M)
        with pytest.raises(InvalidFieldCode):
            export_dense(M)


GOOD_ALIST = "3 2\n2 2\n1 1 2\n2 2\n1 0\n2 0\n1 2\n1 3\n2 3\n"


class TestImportAlistValidation:
    def test_good_text(self):
        assert np.array_equal(import_alist(GOOD_ALIST), [[1, 0, 1], [0, 1, 1]])

    def test_error_type(self):
        assert issubclass(InvalidAlist, GquditError) and issubclass(InvalidAlist, ValueError)

    @pytest.mark.parametrize("text", ["", "\n\n", "3\n2 2\n", "3 -2\n0 0\n", "3 x\n"])
    def test_bad_header(self, text):
        with pytest.raises(InvalidAlist, match="header|non-integer"):
            import_alist(text)

    def test_wrong_line_count(self):
        lines = GOOD_ALIST.splitlines()
        with pytest.raises(InvalidAlist, match="expected 9 lines"):
            import_alist("\n".join(lines[:-1]))
        with pytest.raises(InvalidAlist, match="expected 9 lines"):
            import_alist(GOOD_ALIST + "1 2\n")

    @pytest.mark.parametrize("line,text", [(4, "3 0"), (4, "-1 0"), (7, "1 4"), (8, "9 3")])
    def test_index_out_of_range(self, line, text):
        lines = GOOD_ALIST.splitlines()
        lines[line] = text
        with pytest.raises(InvalidAlist, match="outside"):
            import_alist("\n".join(lines))

    @pytest.mark.parametrize("line,text", [(2, "1 1 1"), (3, "2 1"), (1, "3 2"), (1, "2 1")])
    def test_degrees_disagree_with_index_lists(self, line, text):
        lines = GOOD_ALIST.splitlines()
        lines[line] = text
        with pytest.raises(InvalidAlist, match="degree lists"):
            import_alist("\n".join(lines))

    @pytest.mark.parametrize("line,text", [(4, "1 1"), (7, "1 2"), (8, "2 3 1")])
    def test_index_lists_disagree(self, line, text):
        lines = GOOD_ALIST.splitlines()
        lines[line] = text
        with pytest.raises(InvalidAlist, match="repeated|disagree"):
            import_alist("\n".join(lines))


class TestValidation:
    def test_mismatched_vector_length(self):
        gf = make_field(2)
        A = default_assignment(gf, 2)
        with pytest.raises(DimensionMismatch):
            expand_vector(A, [1])

    def test_conflicting_check_matrices_rejected(self):
        """gx . gz^T != 0 is refused where the qudit code is built, so no
        qubit code is ever derived from it."""
        gf2 = make_field(1)
        with pytest.raises(NotCommuting):
            CssCode(gf2, 2, [[1, 0]], [[1, 0]])

    @pytest.mark.parametrize("bad", [2, -1])
    def test_bundle_entries_must_be_bits(self, bad):
        data = convert_code(new_css(make_field(1), 2, [[1, 1]], [[1, 1]])).to_json()
        data["hz"] = [[1, bad]]
        with pytest.raises(InvalidFieldCode):
            QubitCssCode.from_json(data)

    def test_bundle_column_count_checked(self):
        data = convert_code(new_css(make_field(1), 2, [[1, 1]], [[1, 1]])).to_json()
        data["hx"] = [[1, 1, 0]]
        with pytest.raises(InvalidDocument, match="'hx'"):
            QubitCssCode.from_json(data)

    def test_assignment_length_checked(self):
        gf = make_field(2)
        code = new_css(gf, 4, np.zeros((0, 4)), np.zeros((0, 4)))
        with pytest.raises(DimensionMismatch, match="2 bases for 4 qudits"):
            QubitCssCode(code, default_assignment(gf, 2))

    def test_bundle_q_must_match_the_modulus(self):
        data = convert_code(make_qrs(make_field(2), 4, 1, 2).css).to_json()
        data["qudit_code"]["q"] = 8
        with pytest.raises(InvalidDocument, match="'q'"):
            QubitCssCode.from_json(data)


class TestForeignField:
    """Bases over another modulus of the same order are refused, not
    multiplied with the wrong field's arithmetic."""

    @staticmethod
    def instance():
        qrs = make_qrs(make_field(modulus=19), 8, 2, 5)  # x^4 + x + 1
        other = make_field(modulus=25)  # x^4 + x^3 + 1
        return qrs, BasisAssignment.uniform(find_self_dual(other), 8)

    @pytest.mark.parametrize("convert", [convert_code, convert_logicals, make_plan])
    def test_assignment_over_another_field(self, convert):
        qrs, foreign = self.instance()
        with pytest.raises(FieldMismatch):
            convert(qrs.css, foreign)

    def test_decode_with_assignment_over_another_field(self):
        qrs, foreign = self.instance()
        plan = make_plan(qrs.css)
        for kind in ("Z", "X"):
            with pytest.raises(FieldMismatch):
                end_to_end_decode(qrs, foreign, plan, np.zeros(8 * 4, dtype=np.int64), kind)


def outcome(fn, *args):
    """fn's result as a list, or the DecodeFailure it raised as its fields."""
    try:
        return fn(*args).tolist()
    except DecodeFailure as exc:
        return str(exc), exc.stage, exc.weight, exc.radius, exc.shot


class TestBatches:
    """A (shots, n*s) stack of error bits against a loop of single shots:
    the same errors, and the first refused shot named with its own stage,
    weight and radius."""

    @pytest.mark.parametrize("s,n,k1,k2", [(3, 8, 2, 5), (4, 16, 4, 10), (6, 32, 8, 24), (8, 40, 10, 30)])
    @pytest.mark.parametrize("kind", ["Z", "X"])
    def test_stack_matches_single_shots(self, s, n, k1, k2, kind):
        gf = make_field(s)
        rng = np.random.default_rng(347 + s + (kind == "X"))
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        qrs = make_qrs(gf, n, k1, k2, alpha, rng.integers(1, gf.q, size=n, dtype=np.int64))
        A = random_assignment(gf, n, rng)
        plan = make_plan(qrs.css, A)
        expand = expand_dual if kind == "Z" else expand_vector
        radius = qrs.decoders[kind].radius
        W = np.zeros((2 * (radius + 4), n), dtype=np.int64)
        for row, weight in zip(W, rng.permutation(np.repeat(np.arange(radius + 4), 2))):
            row[rng.choice(n, size=weight, replace=False)] = rng.integers(1, gf.q, size=weight)
        bits = expand(A, W)
        singles = [outcome(end_to_end_decode, qrs, A, plan, b, kind) for b in bits]
        refused = [i for i, got in enumerate(singles) if isinstance(got, tuple)]
        assert refused and len(refused) < len(singles)
        first = refused[0]
        assert outcome(end_to_end_decode, qrs, A, plan, bits, kind) == singles[first][:4] + (first,)
        kept = [i for i in range(len(singles)) if i not in refused]
        assert outcome(end_to_end_decode, qrs, A, plan, bits[kept], kind) == [singles[i] for i in kept]
        assert all(singles[i] == bits[i].tolist() for i in kept if np.count_nonzero(W[i]) <= radius)

    def test_batch_of_one_keeps_its_shape(self, setup):
        gf, qrs, A, plan = setup
        W = np.zeros(8, dtype=np.int64)
        W[5] = 3
        for kind, expand in (("Z", expand_dual), ("X", expand_vector)):
            bits = expand(A, W)
            assert end_to_end_decode(qrs, A, plan, bits, kind).shape == (24,)
            stacked = end_to_end_decode(qrs, A, plan, bits[None], kind)
            assert stacked.shape == (1, 24) and np.array_equal(stacked[0], bits)
            assert end_to_end_decode(qrs, A, plan, np.zeros((0, 24), dtype=np.int64), kind).shape == (0, 24)

    @pytest.mark.parametrize("shape", [(23,), (25,), (3, 23), (3, 25), (2, 3, 24), (), (24, 1)])
    def test_wrong_widths_refused(self, setup, shape):
        gf, qrs, A, plan = setup
        with pytest.raises(DimensionMismatch):
            end_to_end_decode(qrs, A, plan, np.zeros(shape, dtype=np.int64), "Z")

    def test_refusal_names_its_shot_and_pickles(self, setup):
        gf, qrs, A, plan = setup
        W = np.zeros((3, 8), dtype=np.int64)
        W[1, 5] = 3
        W[2, :2] = 1  # a locator of length 2, past the radius 1
        with pytest.raises(DecodeFailure) as info:
            end_to_end_decode(qrs, A, plan, expand_dual(A, W), "Z")
        copied = pickle.loads(pickle.dumps(info.value))
        got = str(copied), copied.stage, copied.weight, copied.radius, copied.shot
        assert got == ("error locator length 2 exceeds the radius 1", "radius", 2, 1, 2)

    def test_syndrome_map_built_on_the_first_decode_only(self, setup, monkeypatch):
        """The maps of both kinds are built by the first decode, one
        reconstruct_syndrome each, and row r of a map is the polynomial-basis
        bits of the F_q syndrome of qubit r alone."""
        gf, qrs, A, plan = setup
        calls = []
        read = q2b.reconstruct_syndrome
        monkeypatch.setattr(q2b, "reconstruct_syndrome", lambda b, B: calls.append(b) or read(b, B))
        fresh = convert_code(qrs.css, A)
        assert "_syndrome_maps" not in vars(fresh)
        fresh.params()
        assert "_syndrome_maps" not in vars(fresh) and not calls
        end_to_end_decode(qrs, A, fresh, np.zeros(24, dtype=np.int64), "Z")
        maps = vars(fresh)["_syndrome_maps"]
        assert len(calls) == 2
        end_to_end_decode(qrs, A, fresh, np.zeros((2, 24), dtype=np.int64), "X")
        assert vars(fresh)["_syndrome_maps"] is maps and len(calls) == 2
        for kind, checks in (("Z", fresh.x_checks), ("X", fresh.z_checks)):
            assert maps[kind].shape == (24, len(checks) * 3) and maps[kind].dtype == np.float32
            for r, unit in enumerate(np.eye(24, dtype=np.int64)):
                codes = read(checks @ unit % 2, fresh.basis)
                assert maps[kind][r].tolist() == ((codes[:, None] >> np.arange(3)) & 1).ravel().tolist()


class TestDecodeGolden:
    """Seeded qubit shots at q = 8, 16, 64 and 256, both kinds, under the
    default assignment and a random one, decoded one at a time and as one
    stack of the decodable shots and one of all: every decoded word and
    every refusal's (stage, weight, radius, shot) hash to a pinned digest."""

    CODES = [(3, 8, 2, 6), (4, 16, 4, 12), (6, 64, 16, 48), (8, 128, 32, 96)]
    SHA256 = "f98396116fa60c10d6116b6d5e6b677d356d3df6fbb6d244a980822404a2f4ae"

    def test_outcomes_match_the_pinned_digest(self):
        h = hashlib.sha256()

        def add(result):
            if isinstance(result, tuple):
                h.update(repr(result[1:]).encode())
            else:
                h.update(np.asarray(result, dtype=np.uint8).tobytes())

        for s, n, k1, k2 in self.CODES:
            gf = make_field(s)
            rng = np.random.default_rng(3400 + s)
            alpha = rng.permutation(gf.q)[:n].astype(np.int64)
            qrs = make_qrs(gf, n, k1, k2, alpha, rng.integers(1, gf.q, size=n, dtype=np.int64))
            for A in (default_assignment(gf, n), random_assignment(gf, n, rng)):
                plan = make_plan(qrs.css, A)
                for kind in ("Z", "X"):
                    expand = expand_dual if kind == "Z" else expand_vector
                    radius = qrs.decoders[kind].radius
                    W = np.zeros((12, n), dtype=np.int64)
                    for row in W:
                        weight = int(rng.integers(0, radius + 3))
                        row[rng.choice(n, size=weight, replace=False)] = rng.integers(1, gf.q, weight)
                    bits = np.concatenate([expand(A, W), rng.integers(0, 2, (4, n * s))])
                    singles = [outcome(end_to_end_decode, qrs, A, plan, b, kind) for b in bits]
                    for got in singles:
                        add(got)
                    kept = [i for i, got in enumerate(singles) if not isinstance(got, tuple)]
                    add(outcome(end_to_end_decode, qrs, A, plan, bits[kept], kind))
                    add(outcome(end_to_end_decode, qrs, A, plan, bits, kind))
        assert h.hexdigest() == self.SHA256


class TestUint8Bits:
    """uint8 is the one dtype of the bits q2b returns and holds; the bits of
    one workload-sized conversion are pinned, as int64 bytes, to what they
    were when they were int64."""

    # q = 256, n = 128, QRS(24, 100), random bases; hx, hz, then convert_logicals
    PINS = {
        "hx": "0884ddd5eb788bbc972d62120327ba38570afee83cd115b1229dc7e716a756fa",
        "hz": "b4e18f1b69625b5449ee6f9550221fc112dc76ad7f72622873e16db35ac7e331",
        "z_space": "a156520b10e55664c730f549189a34916ec368601f336b8ecb9da9a75f971eb4",
        "x_space": "0a97e2b1a3fdc53401d9fcaf8635588e77cf117c519927ebc1fc1a201aa2492a",
    }

    @staticmethod
    @lru_cache(maxsize=None)
    def workload_sized():
        gf = make_field(8)
        rng = np.random.default_rng(3701)
        n = 128
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        v = rng.integers(1, gf.q, size=n, dtype=np.int64)
        A = random_assignment(gf, n, rng)
        code = make_qrs(gf, n, 24, 100, alpha, v).css
        qubit = convert_code(code, A)
        z_space, x_space = convert_logicals(code, A)
        return {"hx": qubit.hx, "hz": qubit.hz, "z_space": z_space, "x_space": x_space}

    def test_workload_sized_pins(self):
        got = {
            name: hashlib.sha256(np.ascontiguousarray(M, dtype=np.int64).tobytes()).hexdigest()
            for name, M in self.workload_sized().items()
        }
        assert got == self.PINS

    def test_every_bit_array_is_uint8(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        A = random_assignment(gf, 8, np.random.default_rng(3702))
        plan = make_plan(qrs.css, A)
        W = np.zeros((2, 8), dtype=np.int64)
        W[:, 3] = [5, 6]
        arrays = [
            expand_vector(A, W),
            expand_vector(A, W[0]),
            expand_dual(A, W),
            plan.hx,
            plan.hz,
            plan.x_checks,
            plan.z_checks,
            *convert_logicals(qrs.css, A),
            import_alist(export_alist(plan.hx)),
            end_to_end_decode(qrs, A, plan, expand_dual(A, W), "Z"),
            end_to_end_decode(qrs, A, plan, expand_vector(A, W[0]), "X"),
            QubitCssCode.from_json(plan.to_json()).hz,
        ]
        assert [M.dtype for M in arrays] == [np.uint8] * len(arrays)

    def test_counts_do_not_wrap(self):
        """Rows of 1,024 bits weigh more than 255: sum and the alist degree
        lists promote, and @ of two bit arrays is exact mod 2 only."""
        hx, hz = self.workload_sized()["hx"], self.workload_sized()["hz"]
        weights = hx.sum(axis=1)
        assert weights.max() > 255
        assert weights.tolist() == hx.astype(np.int64).sum(axis=1).tolist()
        assert not np.any((hx @ hz.T) & 1)  # the commutation, by parity
        lines = export_alist(hx).splitlines()
        assert [int(d) for d in lines[3].split()] == weights.tolist()
        assert np.array_equal(import_alist("\n".join(lines) + "\n"), hx)
        assert linalg.rank(make_field(1), hx) == hx.shape[0]

    def test_fragment_table_is_cached_and_read_only(self):
        q2b._fragments.cache_clear()
        table = q2b._fragments(1024)
        M = self.workload_sized()["hx"]
        export_alist(M)
        assert q2b._fragments(1024) is table and q2b._fragments.cache_info().hits >= 2
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = "x"
