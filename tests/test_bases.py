"""Basis decomposition, dual bases, self-dual bases, and the recovery claim."""

import numpy as np
import pytest

from gqudits import linalg
from gqudits.bases import (
    BasisAssignment,
    FieldBasis,
    dual_basis,
    find_self_dual,
    polynomial_basis,
)
from gqudits.errors import DimensionMismatch, InvalidFieldCode, SelfDualRequired
from gqudits.field import make_field


def random_basis(gf, rng):
    gf2 = make_field(1)
    M = linalg.random_invertible(gf2, rng, gf.s)
    return FieldBasis(gf, [int(sum((int(b) & 1) << i for i, b in enumerate(row))) for row in M])


class TestDecompose:
    def test_zero(self):
        B = polynomial_basis(make_field(3))
        assert not B.decompose(0).any()

    def test_basis_elements_give_units(self):
        for s in (1, 2, 3, 4):
            B = polynomial_basis(make_field(s))
            for i, e in enumerate(B.elements):
                expected = np.zeros(s, dtype=np.int64)
                expected[i] = 1
                assert np.array_equal(B.decompose(e), expected)

    def test_f4_omega_basis(self):
        gf = make_field(2)
        B = FieldBasis(gf, [2, 3])  # (omega, omega^2)
        # 1 = omega + omega^2, solved here by direct recomposition
        assert np.array_equal(B.decompose(1), [1, 1])
        assert B.recompose([1, 1]) == 1

    def test_recompose_round_trip(self):
        for s in (1, 2, 3, 4):
            gf = make_field(s)
            for B in (polynomial_basis(gf), find_self_dual(gf)):
                for eta in gf.elements():
                    assert B.recompose(B.decompose(eta)) == eta

    def test_f8_polynomial_recompose(self):
        B = polynomial_basis(make_field(3))
        assert B.recompose([0, 1, 1]) == 0b110

    def test_wrong_length(self):
        B = polynomial_basis(make_field(3))
        with pytest.raises(DimensionMismatch):
            B.recompose([1, 0])

    def test_linearity(self):
        gf = make_field(3)
        B = polynomial_basis(gf)
        for e1 in gf.elements():
            for e2 in gf.elements():
                assert np.array_equal(
                    (B.decompose(e1) + B.decompose(e2)) % 2, B.decompose(e1 ^ e2)
                )

    def test_dependent_elements_rejected(self):
        with pytest.raises(DimensionMismatch):
            FieldBasis(make_field(2), [1, 1])

    def test_decompose_arr_matches_scalar(self):
        gf = make_field(3)
        B = find_self_dual(gf)
        arr = B.decompose_arr(np.arange(8))
        for eta in range(8):
            assert np.array_equal(arr[eta], B.decompose(eta))

    @pytest.mark.parametrize("s", [1, 4, 8, 17, 31])
    def test_matrix_input_matches_scalar(self, s):
        """Also at s = 31, where each float32 sum of bits(codes) C_B reaches
        31 terms."""
        gf = make_field(s)
        rng = np.random.default_rng(13 + s)
        B = random_basis(gf, rng)
        codes = rng.integers(0, gf.q, size=(5, 7))
        out = B.decompose(codes)
        assert out.shape == (5, 7, s) and out.dtype == np.int64
        for idx in np.ndindex(codes.shape):
            eta = int(codes[idx])
            assert np.array_equal(out[idx], B.decompose(eta))
            assert B.recompose(out[idx]) == eta

    def test_decompose_arr_is_decompose(self):
        assert FieldBasis.decompose_arr is FieldBasis.decompose

    @pytest.mark.parametrize("codes", [[-1, 9], 8, [[0, 1], [2, 8]]])
    def test_out_of_range_codes_rejected(self, codes):
        B = polynomial_basis(make_field(3))
        with pytest.raises(InvalidFieldCode):
            B.decompose_arr(codes)
        with pytest.raises(InvalidFieldCode):
            B.decompose(codes)


def reference_recompose(basis, bits):
    """The scalar bit fold that FieldBasis.recompose replaced."""
    out = 0
    for c, e in zip(bits, basis.elements):
        if c & 1:
            out ^= e
    return out


class TestRecompose:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_scalar_reference(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(31 + s)
        B = random_basis(gf, rng)
        for basis in (polynomial_basis(gf), find_self_dual(gf), B, B.dual()):
            bits = rng.integers(0, 2, size=(5, 7, s))
            out = basis.recompose(bits)
            assert out.shape == (5, 7) and out.dtype == np.int64
            for idx in np.ndindex(out.shape):
                assert out[idx] == reference_recompose(basis, bits[idx])
            row = basis.recompose(bits[0, 0])
            assert type(row) is int and row == out[0, 0]
            assert np.array_equal(basis.decompose(out), bits)

    @pytest.mark.parametrize("bits", [[2, 0, 0], [1, -1, 0], [[0, 1, 1], [0, 3, 0]]])
    def test_non_bits_rejected(self, bits):
        with pytest.raises(InvalidFieldCode):
            polynomial_basis(make_field(3)).recompose(bits)


class TestDualBasis:
    def test_self_dual_fixed_point(self):
        for s in (1, 2, 3):
            B = find_self_dual(make_field(s))
            assert dual_basis(B) == B

    def test_f4_omega_basis_is_self_dual(self):
        gf = make_field(2)
        B = FieldBasis(gf, [2, 3])
        assert np.array_equal(B.gram(), np.eye(2, dtype=np.int64))
        assert dual_basis(B) == B

    def test_f8_polynomial_dual_by_gram_check(self):
        gf = make_field(3)
        B = polynomial_basis(gf)
        D = dual_basis(B)
        for i, a in enumerate(B.elements):
            for j, b in enumerate(D.elements):
                assert gf.trace(gf.mul(a, b)) == (1 if i == j else 0)

    def test_polynomial_basis_cached_per_field(self):
        for s in (1, 3, 6):
            gf = make_field(s)
            B = polynomial_basis(gf)
            assert polynomial_basis(gf) is B and B.dual() is B.dual()
            assert B.elements == tuple(1 << i for i in range(s))

    def test_double_dual(self):
        rng = np.random.default_rng(5)
        for s in (2, 3, 4):
            gf = make_field(s)
            for B in (polynomial_basis(gf), random_basis(gf, rng)):
                assert dual_basis(dual_basis(B)) == B

    @pytest.mark.parametrize("s", list(range(1, 17)) + [20, 31])
    def test_tables_match_a_basis_of_the_dual_elements(self, s):
        """The dual's tables, read off the trace matrix, are those of its
        elements built from scratch (the self-dual search stops at s = 16)."""
        gf = make_field(s)
        rng = np.random.default_rng(700 + s)
        bases = [polynomial_basis(gf), random_basis(gf, rng), random_basis(gf, rng)]
        if s <= 16:
            bases.append(find_self_dual(gf))
        for B in bases:
            D = dual_basis(B)
            fresh = FieldBasis(gf, D.elements)
            assert D.tables.dtype == fresh.tables.dtype
            assert np.array_equal(D.tables, fresh.tables)
            assert not D.tables.flags.writeable
            assert D.dual() is B

    def test_one_elimination(self, monkeypatch):
        gf = make_field(8)
        B = random_basis(gf, np.random.default_rng(8))
        calls = []
        rref_augmented = linalg.rref_augmented

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return rref_augmented(*args, **kwargs)

        monkeypatch.setattr(linalg, "rref_augmented", counted)
        D = dual_basis(B)
        assert calls == [(8, 8)]
        FieldBasis(gf, D.elements)
        assert len(calls) == 2  # a basis built from its elements eliminates once


class TestSelfDual:
    def test_f2(self):
        assert find_self_dual(make_field(1)).elements == (1,)

    def test_f4(self):
        assert find_self_dual(make_field(2)).elements == (2, 3)

    @pytest.mark.parametrize("s", list(range(1, 9)))
    def test_gram_identity(self, s):
        gf = make_field(s)
        B = find_self_dual(gf)
        assert np.array_equal(B.gram(), np.eye(s, dtype=np.int64))

    def test_component_by_trace_units(self):
        gf = make_field(3)
        B = find_self_dual(gf)
        for i, e in enumerate(B.elements):
            for j in range(gf.s):
                assert B.component_by_trace(e, j) == (1 if i == j else 0)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_component_agrees_with_decompose(self, s):
        gf = make_field(s)
        B = find_self_dual(gf)
        for eta in gf.elements():
            bits = B.decompose(eta)
            for i in range(s):
                assert B.component_by_trace(eta, i) == bits[i]

    def test_non_self_dual_rejected(self):
        B = polynomial_basis(make_field(2))
        with pytest.raises(SelfDualRequired):
            B.component_by_trace(1, 0)


def reference_gram(B):
    """tr(eta_i * eta_j) by the scalar double loop."""
    gf, s = B.gf, B.gf.s
    G = np.zeros((s, s), dtype=np.int64)
    for i, a in enumerate(B.elements):
        for j, b in enumerate(B.elements):
            G[i, j] = gf.trace(gf.mul(a, b))
    return G


def reference_self_dual(gf):
    """Depth-first search for the lexicographically first self-dual basis on
    the q x q trace-form table, as find_self_dual searched before it became
    table-free."""
    q = gf.q
    codes = np.arange(q, dtype=np.int64)
    tr = gf.trace_arr(gf.mul_arr(codes[:, None], codes[None, :]))

    def extend(chosen, start):
        if len(chosen) == gf.s:
            return tuple(chosen)
        for a in range(start, q):
            if tr[a, a] == 1 and not any(tr[a, b] for b in chosen):
                found = extend(chosen + [a], a + 1)
                if found:
                    return found
        return None

    return extend([], 1)


class TestTraceFormTables:
    @pytest.mark.parametrize("s", list(range(1, 9)))
    def test_gram_matches_scalar_loop(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(100 + s)
        bases = [polynomial_basis(gf), find_self_dual(gf)]
        bases += [random_basis(gf, rng) for _ in range(3)]
        for B in bases:
            G, ref = B.gram(), reference_gram(B)
            assert G.dtype == ref.dtype and np.array_equal(G, ref)

    @pytest.mark.parametrize("s", list(range(1, 11)))
    def test_find_self_dual_matches_scalar_search(self, s):
        gf = make_field(s)
        assert find_self_dual(gf).elements == reference_self_dual(gf)

    @pytest.mark.parametrize("modulus", [19, 25, 0x11B])
    def test_find_self_dual_matches_table_search_for_other_moduli(self, modulus):
        gf = make_field(modulus=modulus)
        assert find_self_dual(gf).elements == reference_self_dual(gf)

    def test_find_self_dual_cached_per_field(self):
        gf = make_field(6)
        B = find_self_dual(gf)
        assert find_self_dual(gf) is B and B.dual() is B
        assert find_self_dual(make_field(modulus=0b1011011)) is not B


class TestTraceInnerProduct:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_identity_over_bases(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(7)
        bases = [polynomial_basis(gf), find_self_dual(gf)] + [
            random_basis(gf, rng) for _ in range(3)
        ]
        for B in bases:
            D = dual_basis(B)
            for beta in gf.elements():
                for gamma in gf.elements():
                    lhs = gf.trace(gf.mul(beta, gamma))
                    rhs = int(B.decompose(beta) @ D.decompose(gamma)) % 2
                    assert lhs == rhs


class TestRecoveryClaim:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_trace_values_determine_element(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(11)
        for B in (polynomial_basis(gf), find_self_dual(gf), random_basis(gf, rng)):
            D = dual_basis(B)
            for rho in gf.elements():
                acc = 0
                for b, bd in zip(B.elements, D.elements):
                    if gf.trace(gf.mul(b, rho)):
                        acc ^= bd
                assert acc == rho


class TestAssignment:
    def test_serialises_as_code_lists(self):
        gf = make_field(2)
        A = BasisAssignment.uniform(find_self_dual(gf), 3)
        assert [list(b.elements) for b in A.bases] == [[2, 3]] * 3

    def test_duals(self):
        gf = make_field(3)
        A = BasisAssignment.uniform(polynomial_basis(gf), 2)
        D = A.duals()
        assert D[0] == dual_basis(polynomial_basis(gf))

    def test_duals_cached_both_ways(self):
        gf = make_field(3)
        A = BasisAssignment.uniform(polynomial_basis(gf), 2)
        assert A.duals() is A.duals()
        assert A.duals().duals() is A

    @pytest.mark.parametrize("s", [1, 2, 4, 8, 12])
    def test_maps_and_scalings_are_the_linear_identities(self, s):
        """The byte tables of qudit j's basis B, from its start in
        A.tables, hold D_B(v << 8t) packed: recomposing the unpacked entry
        gives v << 8t back, for every byte below q.  D_B(eta) is the XOR of
        its bytes' entries, and D_B(b_t * eta) = D_B(eta) S_{B,b_t} over F_2
        with S_{B,b_t} the t-th block of scalings[j], for every element at
        s <= 4 and for random ones above."""
        gf = make_field(s)
        rng = np.random.default_rng(29 + s)
        pool = [random_basis(gf, rng) for _ in range(3)]
        A = BasisAssignment([pool[int(i)] for i in rng.integers(0, 3, 7)])
        tables, index = A.tables
        width = -(-s // 8)
        assert tables.dtype == np.dtype(np.uint8 if s <= 8 else np.uint16).newbyteorder("<")
        assert tables.shape == (len(set(A.bases)) * width * 256,) and index.shape == (7,)
        assert A.tables is A.tables and A.scalings.shape == (7, s, s * s)
        assert A.scalings.dtype == np.float32 and A.scalings is A.scalings
        eta = np.arange(gf.q) if s <= 4 else rng.integers(0, gf.q, 64)
        for B, start, S in zip(A.bases, index, A.scalings.astype(np.int64)):
            entries = tables[start : start + width * 256].reshape(width, 256)
            assert np.array_equal(entries, B.tables) and not B.tables.flags.writeable
            for t in range(width):
                v = np.arange(min(256, gf.q >> 8 * t))
                unpacked = (entries[t, v].astype(np.int64)[:, None] >> np.arange(s)) & 1
                assert np.array_equal(B.recompose(unpacked), v << 8 * t)
            packed = np.bitwise_xor.reduce([entries[t, (eta >> 8 * t) & 255] for t in range(width)])
            coords = B.decompose(eta)
            assert np.array_equal(coords, (packed.astype(np.int64)[:, None] >> np.arange(s)) & 1)
            scaled = (coords @ S % 2).reshape(len(eta), s, s)
            for t, b in enumerate(find_self_dual(gf).elements):
                assert np.array_equal(scaled[:, t], B.decompose(gf.mul_arr(eta, b)))

    def test_maps_built_once_per_distinct_basis(self, monkeypatch):
        gf = make_field(3)
        rng = np.random.default_rng(31)
        B1, B2 = random_basis(gf, rng), polynomial_basis(gf)
        A = BasisAssignment([B1, B2, B1, FieldBasis(gf, B2.elements), B1])
        calls = []
        decompose = FieldBasis.decompose

        def counted(self, codes):
            calls.append(self)
            return decompose(self, codes)

        monkeypatch.setattr(FieldBasis, "decompose", counted)
        tables, index = A.tables
        assert calls == []  # each distinct basis's own tables, once
        assert np.array_equal(tables, np.concatenate([B1.tables.ravel(), B2.tables.ravel()]))
        assert index.tolist() == [0, 256, 0, 256, 0]
        for _ in range(2):  # the second reading is cached
            _ = A.tables, A.scalings
            assert calls == [B1, B2]
