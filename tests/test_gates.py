"""Gate zoo construction, Pauli decomposition, hierarchy, and the
qudit-to-qubit operator isomorphism."""

import gc
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gqudits import gates, linalg, oracle
from gqudits.bases import BasisAssignment, FieldBasis, find_self_dual, polynomial_basis
from gqudits.errors import DimensionMismatch, FieldMismatch, InvalidGate, NonUnitary, TooLarge
from gqudits.field import make_field
from gqudits.gates import (
    _PAULI_ATOL,
    _chi_matrix,
    _generator_actions,
    _monomial,
    _monomial_paulis,
    build_gate,
    embed_single,
    hierarchy_level,
    is_pauli_multiple,
    pauli_coefficient_matrix,
    pauli_decompose,
    phi_inverse,
    phi_map,
    pi_map,
    qubit_permutation,
)
from gqudits.oracle import DenseOperator, StateVector, all_digits, pauli_matrix
from gqudits.pauli import PauliWord


def pauli_reconstruct(gf, n, coeffs):
    """Inverse of pauli_decompose: the sum of coefficient times Pauli matrix."""
    d = gf.q**n
    mat = np.zeros((d, d), dtype=np.complex128)
    for (x, z), c in coeffs.items():
        mat += c * pauli_matrix(PauliWord.from_vectors(gf, x, z)).mat
    return DenseOperator(gf, n, mat)


class TestBuildGate:
    def test_qubit_hadamard(self):
        H = build_gate(make_field(1), "hadamard").mat
        assert np.allclose(H, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_qubit_ccz(self):
        C = build_gate(make_field(1), "ccz", gamma=1).mat
        expected = np.eye(8)
        expected[7, 7] = -1
        assert np.allclose(C, expected)

    def test_qubit_cnot(self):
        C = build_gate(make_field(1), "cnot").mat
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.allclose(C, expected)

    def test_u7_identity_iff_trace_zero(self):
        gf = make_field(3)
        for beta in gf.elements():
            U = build_gate(gf, "u_n", n=7, beta=beta).mat
            assert np.allclose(U, np.eye(8)) == (gf.trace(beta) == 0)

    def test_ccz_conjugate_by_mult(self):
        gf = make_field(2)
        ccz1 = build_gate(gf, "ccz", gamma=1).mat
        for gamma in gf.nonzero_elements():
            lhs = build_gate(gf, "ccz", gamma=gamma).mat
            Mg = embed_single(gf, 3, 0, build_gate(gf, "mult", delta=gamma)).mat
            Mi = embed_single(gf, 3, 0, build_gate(gf, "mult", delta=gf.inv(gamma))).mat
            assert np.allclose(lhs, Mi @ ccz1 @ Mg, atol=1e-12)

    def test_embed_single_site_checked(self):
        gf = make_field(2)
        U = build_gate(gf, "x", beta=1)
        assert embed_single(gf, 2, 1, U).mat.tobytes() == np.kron(np.eye(4), U.mat).tobytes()
        for site in (2, 5, -1):
            with pytest.raises(DimensionMismatch):
                embed_single(gf, 2, site, U)
        for other in (make_field(1), make_field(3)):  # an operator on qudits of another size
            with pytest.raises(DimensionMismatch):
                embed_single(gf, 2, 0, build_gate(other, "x", beta=1))

    def test_mult_zero_rejected(self):
        with pytest.raises(NonUnitary):
            build_gate(make_field(2), "mult", delta=0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidGate):
            build_gate(make_field(2), "toffoli")

    def test_multi_cz_bounds(self):
        """One cap, q^l <= oracle.DIM_CAP, and l >= 2 sites."""
        gf = make_field(2)
        assert build_gate(gf, "multi_cz", l=4, gamma=1).dim == 256
        assert build_gate(gf, "multi_cz", l=5, gamma=1).dim == 1024
        assert build_gate(make_field(3), "multi_cz", l=2, gamma=1).dim == 64
        with pytest.raises(TooLarge):
            build_gate(gf, "multi_cz", l=8, gamma=1)
        with pytest.raises(TooLarge):
            build_gate(make_field(3), "multi_cz", l=5, gamma=1)
        for l in (1, 0, -2):
            with pytest.raises(InvalidGate):
                build_gate(gf, "multi_cz", l=l, gamma=1)

    @pytest.mark.parametrize("bad", [2.7, 2.0, "2", 2 + 0j, None, np.float64(2.0)], ids=repr)
    def test_integer_parameters_are_not_truncated(self, bad):
        """u_n's n and multi_cz's l are integers: anything else raises
        InvalidGate rather than being read as int(bad); a numpy integer is
        read as the Python int."""
        gf = make_field(3)
        with pytest.raises(InvalidGate, match="not an integer"):
            build_gate(gf, "u_n", n=bad, beta=1)
        with pytest.raises(InvalidGate, match="not an integer"):
            build_gate(gf, "multi_cz", l=bad, gamma=1)
        assert build_gate(gf, "u_n", n=np.int64(2), beta=1) == build_gate(gf, "u_n", n=2, beta=1)
        assert build_gate(gf, "multi_cz", l=np.int8(2), gamma=1) == build_gate(gf, "multi_cz", l=2, gamma=1)

    @pytest.mark.parametrize("s, build", [
        (6, lambda gf: build_gate(gf, "ccz", gamma=1)),
        (10, lambda gf: build_gate(gf, "cnot")),
        (16, lambda gf: build_gate(gf, "hadamard")),
        (16, lambda gf: build_gate(gf, "t", gamma=1)),
        (2, lambda gf: embed_single(gf, 8, 0, build_gate(gf, "hadamard"))),
        (2, lambda gf: build_gate(gf, "multi_cz", l=7, gamma=1)),
        (2, lambda gf: embed_single(gf, 7, 0, build_gate(gf, "hadamard"))),
        (12, lambda gf: build_gate(gf, "hadamard")),
        (12, lambda gf: build_gate(gf, "t", gamma=1)),
    ], ids=["ccz@64", "cnot@1024", "hadamard@65536", "t@65536", "embed_single@4^8",
            "multi_cz7@4", "embed_single@4^7", "hadamard@4096", "t@4096"])
    def test_oversized_gates_refused_before_building(self, s, build):
        """q^sites past oracle.DIM_CAP, or a d x d matrix past
        oracle.SECTOR_CAP entries, raises TooLarge with no d x d array: these
        would ask for 1 TiB, 16 TiB, 32 GiB, 64 GiB, 64 GiB, then 4 GiB,
        4 GiB, 256 MiB and 256 MiB."""
        gf = make_field(s)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build(gf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_multi_cz_matches_ccz(self):
        gf = make_field(2)
        assert np.allclose(
            build_gate(gf, "multi_cz", l=3, gamma=2).mat, build_gate(gf, "ccz", gamma=2).mat
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_all_gates_unitary(self, s):
        gf = make_field(s)
        gates = [
            build_gate(gf, "hadamard"),
            build_gate(gf, "cnot"),
            build_gate(gf, "x", beta=1),
            build_gate(gf, "z", gamma=gf.q - 1),
            build_gate(gf, "mult", delta=gf.q - 1),
            build_gate(gf, "ccz", gamma=1) if gf.q <= 4 else build_gate(gf, "u_n", n=7, beta=1),
            build_gate(gf, "s", gamma=1),
            build_gate(gf, "t", gamma=1),
        ]
        for g in gates:
            assert g.is_unitary()

    def test_hadamard_squares_to_identity(self):
        for s in (1, 2, 3):
            gf = make_field(s)
            H = build_gate(gf, "hadamard").mat
            assert np.max(np.abs(H @ H - np.eye(gf.q))) < 1e-12

    def test_s_gate_not_additive(self):
        gf = make_field(2)
        found = False
        for g1 in gf.elements():
            for g2 in gf.elements():
                lhs = build_gate(gf, "s", gamma=g1).mat @ build_gate(gf, "s", gamma=g2).mat
                rhs = build_gate(gf, "s", gamma=g1 ^ g2).mat
                if not np.allclose(lhs, rhs):
                    found = True
        assert found


def reference_chi(gf, n):
    """(-1)^tr(b . j) by the scalar double loop, Kronecker-powered."""
    chi1 = np.empty((gf.q, gf.q), dtype=np.int8)
    for b in range(gf.q):
        for j in range(gf.q):
            chi1[b, j] = 1 - 2 * gf.trace(gf.mul(b, j))
    out = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        out = np.kron(out, chi1)
    return out


def reference_gate(gf, kind, **p):
    """Dense gate matrix from per-ket scalar field arithmetic."""
    q = gf.q
    if kind == "x":
        return pauli_matrix(PauliWord.x_word(gf, [p["beta"]])).mat
    if kind == "z":
        return pauli_matrix(PauliWord.z_word(gf, [p["gamma"]])).mat
    if kind == "hadamard":
        mat = np.zeros((q, q), dtype=np.complex128)
        for mu in range(q):
            for eta in range(q):
                mat[mu, eta] = 1 - 2 * gf.trace(gf.mul(mu, eta))
        return mat / np.sqrt(q)
    if kind == "mult":
        mat = np.zeros((q, q), dtype=np.complex128)
        for eta in range(q):
            mat[gf.mul(p["delta"], eta), eta] = 1.0
        return mat
    if kind == "cnot":
        mat = np.zeros((q * q, q * q), dtype=np.complex128)
        for e1 in range(q):
            for e2 in range(q):
                mat[e1 * q + (e2 ^ e1), e1 * q + e2] = 1.0
        return mat
    l = 3 if kind == "ccz" else p.get("l", 1)
    phases = []
    for u in all_digits(gf, l):
        u = [int(c) for c in u]
        if kind in ("ccz", "multi_cz"):
            prod = 1
            for c in u:
                prod = gf.mul(prod, c)
            phases.append(1 - 2 * gf.trace(gf.mul(p["gamma"], prod)))
        elif kind == "u_n":
            phases.append(1 - 2 * gf.trace(gf.mul(p["beta"], gf.pow(u[0], p["n"]))))
        else:
            root = 1j if kind == "s" else np.exp(1j * np.pi / 4)
            phases.append(root ** gf.trace(gf.mul(p["gamma"], u[0])))
    return np.diag(np.array(phases, dtype=np.complex128))


def gate_cases(gf):
    q, codes = gf.q, range(gf.q)
    cases = [("hadamard", {}), ("cnot", {})]
    cases += [("x", {"beta": c}) for c in codes] + [("mult", {"delta": c}) for c in codes if c]
    cases += [(k, {"gamma": c}) for k in ("z", "ccz", "s", "t") for c in codes]
    cases += [("u_n", {"n": n, "beta": c}) for n in (1, 2, 3, 7) for c in codes]
    if q <= 4:
        cases += [("multi_cz", {"l": l, "gamma": c}) for l in (2, 3, 4) for c in codes]
    return cases


def reference_build_gate(gf, kind, **params):
    """Each named gate's matrix by its own construction: a zeros-scatter for
    the permutations, np.diag for the diagonal gates, the chi table for H."""
    q = gf.q
    codes = np.arange(q, dtype=np.int64)

    def scatter(targets, d):
        mat = np.zeros((d, d), dtype=np.complex128)
        mat[targets, np.arange(d)] = 1
        return mat

    if kind == "x":
        return scatter(codes ^ params["beta"], q)
    if kind == "z":
        return np.diag(1 - 2 * gf.trace_arr(gf.mul_arr(params["gamma"], codes)))
    if kind == "hadamard":
        return _chi_matrix(gf, 1) / np.sqrt(q)
    if kind == "mult":
        return scatter(gf.mul_arr(params["delta"], codes), q)
    if kind == "cnot":
        kets = np.arange(q * q, dtype=np.int64)
        return scatter(kets ^ (kets >> gf.s), q * q)
    if kind in ("ccz", "multi_cz"):
        prod = reduce(gf.mul_arr, all_digits(gf, params.get("l", 3)).T)
        return np.diag(1 - 2 * gf.trace_arr(gf.mul_arr(params["gamma"], prod)))
    if kind == "u_n":
        return np.diag(1 - 2 * gf.trace_arr(gf.mul_arr(params["beta"], gf.pow(codes, params["n"]))))
    root = 1j if kind == "s" else np.exp(1j * np.pi / 4)
    return np.diag(np.array([1, root])[gf.trace_arr(gf.mul_arr(params["gamma"], codes))])


class TestGateBytes:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_per_kind_construction(self, s):
        # ccz at q = 16 is a 4096 x 4096 matrix (256 MiB) and is left out
        gf = make_field(s)
        cases = gate_cases(gf) + [("u_n", {"n": 100, "beta": c}) for c in gf.elements()]
        for kind, params in cases:
            if kind == "ccz" and gf.q == 16:
                continue
            got = build_gate(gf, kind, **params).mat
            want = np.asarray(reference_build_gate(gf, kind, **params), dtype=np.complex128)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, params)

    def test_from_action_round_trips_monomial(self):
        rng = np.random.default_rng(109)
        for s, n in ((1, 3), (2, 2), (3, 1), (4, 1)):
            gf = make_field(s)
            d = gf.q**n
            circle = np.exp(2j * np.pi * rng.random(d))
            for phases in (rng.choice([1, -1, 1j, -1j], size=d), circle):
                mat = random_monomial(rng, d, phases)
                perm, phase = _monomial(mat)
                op = DenseOperator.from_action(gf, n, perm, phase)
                assert op.mat.tobytes() == mat.tobytes()
                back = _monomial(op.mat)
                assert np.array_equal(back[0], perm) and np.array_equal(back[1], phase)


class TestTraceFormTables:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_chi_matches_scalar_loop(self, s, n):
        gf = make_field(s)
        chi, ref = _chi_matrix(gf, n), reference_chi(gf, n)
        assert chi.dtype == ref.dtype and np.array_equal(chi, ref)

    @pytest.mark.parametrize("s, n", [(s, n) for s in range(1, 11) for n in range(1, 11) if s * n <= 10])
    def test_chi_matches_matmul_formula(self, s, n):
        """The Kronecker power against 1 - 2 tr(digits @ digits.T) over F_q,
        row block by row block, for every q^n <= 1024."""
        gf = make_field(s)
        chi, digits = _chi_matrix(gf, n), all_digits(gf, n)
        assert chi.dtype == np.int8 and chi.shape == (gf.q**n,) * 2
        for r in range(0, gf.q**n, 128):
            want = 1 - 2 * gf.trace_arr(gf.matmul(digits[r : r + 128], digits.T))
            assert np.array_equal(chi[r : r + 128], want), r

    @pytest.mark.parametrize("s, n", [(1, 9), (3, 3)])
    def test_chi_build_memory_at_the_hierarchy_cap(self, s, n):
        """d = 512 takes O(d^2) bytes (256 KiB of int8 here), not n d^2 codes."""
        gf = make_field(s)
        build = oracle._chi_matrix.__wrapped__  # uncached
        build(gf, n)  # warm the field's own tables
        tracemalloc.start()
        try:
            chi = build(gf, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi.shape == (512, 512) and peak < 2 * 2**20, peak

    def test_chi_cached_read_only(self):
        gf = make_field(2)
        chi = _chi_matrix(gf, 2)
        assert _chi_matrix is oracle._chi_matrix and _chi_matrix(gf, 2) is chi
        assert not chi.flags.writeable
        with pytest.raises(ValueError):
            chi[0, 0] = 0

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_every_gate_matches_scalar_build(self, s):
        gf = make_field(s)
        for kind, params in gate_cases(gf):
            mat, ref = build_gate(gf, kind, **params).mat, reference_gate(gf, kind, **params)
            assert mat.dtype == ref.dtype, (kind, params)
            assert np.array_equal(mat, ref), (kind, params)


class TestPauliDecompose:
    def test_identity(self):
        gf = make_field(2)
        coeffs = pauli_decompose(DenseOperator(gf, 1, np.eye(4)))
        assert coeffs == {((0,), (0,)): 1.0}

    def test_single_pauli(self):
        gf = make_field(3)
        P = PauliWord.from_vectors(gf, [5], [2])
        coeffs = pauli_decompose(pauli_matrix(P))
        assert set(coeffs) == {((5,), (2,))}
        assert abs(coeffs[((5,), (2,))] - 1.0) < 1e-12

    def test_qubit_hadamard_coefficients(self):
        gf = make_field(1)
        coeffs = pauli_decompose(build_gate(gf, "hadamard"))
        r = 1 / np.sqrt(2)
        assert abs(coeffs[((1,), (0,))] - r) < 1e-12
        assert abs(coeffs[((0,), (1,))] - r) < 1e-12
        assert set(coeffs) == {((1,), (0,)), ((0,), (1,))}

    def test_reconstruction(self):
        gf = make_field(2)
        rng = np.random.default_rng(31)
        M = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        U = DenseOperator(gf, 2, M)
        back = pauli_reconstruct(gf, 2, pauli_decompose(U))
        assert np.max(np.abs(back.mat - M)) < 1e-10

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_double_loop(self, s):
        """Same dict, same key order, as a scan of every (x, z) coefficient."""
        gf = make_field(s)
        rng = np.random.default_rng(40 + s)
        n = 2 if s < 3 else 1
        d = gf.q**n

        def double_loop(U):
            C = pauli_coefficient_matrix(U)
            digits = all_digits(gf, n)
            out = {}
            for a in range(d):
                for b in range(d):
                    if abs(C[a, b]) > 1e-12:
                        out[(tuple(digits[a]), tuple(digits[b]))] = complex(C[a, b])
            return out

        P = PauliWord.from_vectors(gf, rng.integers(0, gf.q, n), rng.integers(0, gf.q, n))
        ops = [DenseOperator(gf, n, np.eye(d)), pauli_matrix(P),
               DenseOperator(gf, n, seeded_unitary(rng, d))]
        if n == 1:
            ops.append(build_gate(gf, "hadamard"))
        for U in ops:
            got, want = pauli_decompose(U), double_loop(U)
            assert got == want and list(got) == list(want)

    def test_is_pauli_multiple(self):
        gf = make_field(2)
        P = pauli_matrix(PauliWord.from_vectors(gf, [2], [1]))
        assert is_pauli_multiple(DenseOperator(gf, 1, 1j * P.mat))
        assert not is_pauli_multiple(build_gate(gf, "hadamard"))


class TestHierarchy:
    def test_pauli_is_level_one(self):
        gf = make_field(2)
        U = pauli_matrix(PauliWord.from_vectors(gf, [1], [3]))
        assert hierarchy_level(U, 4).level == 1

    def test_clifford_gates_level_two(self):
        for s in (1, 2):
            gf = make_field(s)
            assert hierarchy_level(build_gate(gf, "hadamard"), 4).level == 2
            assert hierarchy_level(build_gate(gf, "cnot"), 4).level == 2

    def test_clifford_zoo_level_two_q8(self):
        gf = make_field(3)
        assert hierarchy_level(build_gate(gf, "hadamard"), 4).level == 2
        assert hierarchy_level(build_gate(gf, "cnot"), 4).level == 2
        assert hierarchy_level(build_gate(gf, "mult", delta=5), 4).level == 2

    def test_ccz_exactly_three(self):
        gf = make_field(1)
        rep = hierarchy_level(build_gate(gf, "ccz", gamma=1), 4, "ccz")
        assert rep.level == 3 and rep.witness is not None

    def test_t_gate_level_three_qubit(self):
        gf = make_field(1)
        assert hierarchy_level(build_gate(gf, "t", gamma=1), 4).level == 3

    def test_report_json(self):
        gf = make_field(1)
        rep = hierarchy_level(build_gate(gf, "hadamard"), 4, "hadamard")
        data = rep.to_json()
        assert data["level"] == 2 and data["gate"] == "hadamard"

    def test_above_max(self):
        gf = make_field(1)
        rep = hierarchy_level(build_gate(gf, "ccz", gamma=1), 2, "ccz")
        assert rep.level is None and rep.to_json()["level"] == "above max"

    @pytest.mark.parametrize("mat", [[[1, 0], [0, 0]], [[0, 2], [2, 0]], [[1, 1], [0, 1]]])
    def test_non_unitary_refused(self, mat):
        """A projector, a monomial with phases 2 and a shear: the hierarchy is
        defined on unitaries only."""
        U = DenseOperator(make_field(1), 1, np.array(mat, dtype=np.complex128))
        with pytest.raises(NonUnitary, match="not unitary"):
            hierarchy_level(U, 4)

    def test_dimension_cap(self):
        gf = make_field(2)
        U = DenseOperator(gf, 5, np.eye(4**5))
        with pytest.raises(TooLarge):
            hierarchy_level(U, 2)

    @pytest.mark.parametrize("max_level", [0, -3])
    def test_max_level_below_one_rejected(self, max_level):
        with pytest.raises(ValueError):
            hierarchy_level(build_gate(make_field(2), "ccz", gamma=1), max_level)

    def test_no_reference_cycles_left(self):
        U = build_gate(make_field(2), "ccz", gamma=1)  # monomial path
        gc.collect()
        gc.disable()
        try:
            assert hierarchy_level(U, 4).level == 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_reference_cycles_left_on_dense_path(self):
        U = build_gate(make_field(2), "hadamard")
        gc.collect()
        gc.disable()
        try:
            assert hierarchy_level(U, 4).level == 2
            assert gc.collect() == 0
        finally:
            gc.enable()


def reference_is_pauli_multiple(U):
    """The dense level-1 rule on the complex coefficient product."""
    d = U.dim
    cols = np.arange(d)
    diagonals = U.mat[cols[:, None] ^ cols[None, :], cols[None, :]]  # row a holds U[j ^ a, j]
    C = np.abs(diagonals @ _chi_matrix(U.gf, U.n).astype(np.complex128).T / d)
    top = np.unravel_index(int(np.argmax(C)), C.shape)
    C[top] = 0.0
    return bool(np.max(C) <= _PAULI_ATOL)


def reference_levels(U, max_level=4):
    """[(in level k, first failing generator)] for k = 1, 2, ... up to the
    first member or max_level, by the dense recursion: d x d matrix
    conjugation and a memo on the rounded matrix."""
    gf, n = U.gf, U.n
    gens = []
    for site in range(n):
        for i in range(gf.s):
            codes = [0] * n
            codes[site] = 1 << i
            for word in (PauliWord.x_word(gf, codes), PauliWord.z_word(gf, codes)):
                gens.append((word, pauli_matrix(word).mat))
    memo = {}

    def in_level(mat, k):
        key = (np.round(mat, 8).tobytes(), k)
        if key in memo:
            return memo[key], None
        ok, failing = True, None
        if k == 1:
            ok = reference_is_pauli_multiple(DenseOperator(gf, n, mat))
        else:
            for word, g in gens:
                if not in_level(mat @ g @ mat.conj().T, k - 1)[0]:
                    ok, failing = False, word
                    break
        memo[key] = ok
        return ok, failing

    out = []
    for k in range(1, max_level + 1):
        out.append(in_level(U.mat, k))
        if out[-1][0]:
            break
    return out


def assert_matches_reference(U, name="gate"):
    """Level and witness for every max_level 1..6 equal the dense recursion's."""
    steps = reference_levels(U, 6)
    for max_level in range(1, 7):
        seen = steps[:max_level]
        level = len(seen) if seen[-1][0] else None
        failed = [w for ok, w in seen if not ok]  # the last failed level names the witness
        witness = failed[-1].to_text() if failed and failed[-1] else None
        rep = hierarchy_level(U, max_level, name)
        assert (rep.level, rep.witness) == (level, witness), (name, max_level)


def random_monomial(rng, d, phases):
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[rng.permutation(d), np.arange(d)] = phases
    return mat


def seeded_assignment(gf, rng, n):
    """n seeded random F_2-bases of gf, one per qudit."""
    return BasisAssignment([FieldBasis(gf, polynomial_basis(gf).recompose(
        linalg.random_invertible(make_field(1), rng, gf.s))) for _ in range(n)])


def seeded_unitary(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestMonomialEngine:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_every_gate_matches_dense_reference(self, s):
        gf = make_field(s)
        for kind, params in gate_cases(gf):
            U = build_gate(gf, kind, **params)
            assert (_monomial(U.mat) is None) == (kind == "hadamard"), kind
            if U.dim >= 256 and params["gamma"]:
                # ccz at q = 8, multi_cz(l = 4) at q = 4: the dense reference takes
                # 10-20 s a gate; they are pinned to its answers, CCZ_l at level l
                # with X on the first qudit as the witness from level 2 up
                x = PauliWord.x_word(gf, [1] + [0] * (U.n - 1)).to_text()
                for max_level in range(1, 7):
                    rep = hierarchy_level(U, max_level, kind)
                    level = U.n if max_level >= U.n else None
                    assert (rep.level, rep.witness) == (level, x if max_level > 1 else None)
            else:
                assert_matches_reference(U, kind)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pi_map_images_match_dense_reference(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(83 + s)
        random_assignment = lambda n: seeded_assignment(gf, rng, n)
        zoo = [build_gate(gf, "cnot"), build_gate(gf, "mult", delta=gf.q - 1),
               build_gate(gf, "t", gamma=1), build_gate(gf, "u_n", n=3, beta=1)]
        if gf.q <= 4:
            zoo.append(build_gate(gf, "ccz", gamma=gf.q - 1))
        for U in zoo:
            image = pi_map(random_assignment(U.n), U)
            assert _monomial(image.mat) is not None
            assert_matches_reference(image)
        if s > 1:  # a dense image: the Hadamard's, whose conjugates are monomial
            image = pi_map(random_assignment(1), build_gate(gf, "hadamard"))
            assert _monomial(image.mat) is None
            assert_matches_reference(image)

    @pytest.mark.parametrize("s, n", [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_random_monomials_match_dense_reference(self, s, n):
        gf = make_field(s)
        d = gf.q**n
        rng = np.random.default_rng(89 + 10 * s + n)
        roots = np.array([1, -1, 1j, -1j, np.exp(1j * np.pi / 4)])
        for _ in range(6):
            diagonal = np.diag(rng.choice(roots, size=d))
            discrete = random_monomial(rng, d, rng.choice(roots, size=d))
            circle = random_monomial(rng, d, np.exp(2j * np.pi * rng.random(d)))
            for mat in (diagonal, discrete, circle):
                assert _monomial(mat) is not None
                assert_matches_reference(DenseOperator(gf, n, mat))

    @pytest.mark.parametrize("s, n", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_non_monomial_take_dense_path(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(97 + s)
        H = build_gate(gf, "hadamard") if n == 1 else embed_single(gf, n, 0, build_gate(gf, "hadamard"))
        rotation = np.eye(gf.q**n, dtype=np.complex128)
        c, t = np.cos(1e-3), np.sin(1e-3)
        rotation[:2, :2] = [[c, -t], [t, c]]  # mixes kets 0 and 1
        near = random_monomial(rng, gf.q**n, 1.0) @ rotation  # unitary, two extra non-zeros
        scaled = random_monomial(rng, gf.q**n, 2.0)  # non-unit phases
        for mat in (H.mat, seeded_unitary(rng, gf.q**n), near):
            assert _monomial(mat) is None
            assert_matches_reference(DenseOperator(gf, n, mat))
        assert _monomial(scaled) is None
        with pytest.raises(NonUnitary):
            hierarchy_level(DenseOperator(gf, n, scaled), 4)

    @pytest.mark.parametrize("s", [1, 2, 3, 6])
    def test_hadamard_query_makes_one_coefficient_test(self, s, monkeypatch):
        """Every conjugate of the Hadamard is a Pauli, read as monomial up to
        the float residues of 1/sqrt(q): only the root takes is_pauli_multiple."""
        calls = []
        monkeypatch.setattr(gates, "is_pauli_multiple", lambda U: calls.append(U) or is_pauli_multiple(U))
        rep = hierarchy_level(build_gate(make_field(s), "hadamard"), 4, "hadamard")
        assert (rep.level, rep.witness, len(calls)) == (2, None, 1)

    @pytest.mark.parametrize("s, n", [(1, 2), (2, 1)])
    def test_zero_tolerance_matches_reference(self, s, n):
        """A Pauli times a rotation of kets 0 and 1: at 1e-12 the off-support
        entries read as zero (monomial, level 1), at 1e-6 the node is dense."""
        gf = make_field(s)
        P = pauli_matrix(PauliWord.from_vectors(gf, [1] * n, [gf.q - 1] * n)).mat
        for angle, monomial in ((1e-12, True), (1e-6, False)):
            rotation = np.eye(gf.q**n, dtype=np.complex128)
            rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            U = DenseOperator(gf, n, P @ rotation)
            assert (_monomial(U.mat) is not None) == monomial
            assert (hierarchy_level(U, 1).level == 1) == monomial
            assert_matches_reference(U)

    @pytest.mark.parametrize("extra, scale, read, unitary", [
        ([5e-9], 1.0, False, False), ([], 1 + 5e-9, False, True),
        ([9e-11, 9e-11], 1.0, False, False), ([2e-11, 2e-11], 1.0, True, True),
    ], ids=["extra-5e-9", "phase-1+5e-9", "two-extras-9e-11", "two-extras-2e-11"])
    def test_root_unitarity_is_one_rule(self, extra, scale, read, unitary):
        """X at q = 4 with off-support entries on its diagonal or one phase
        scaled: hierarchy_level raises NonUnitary exactly when is_unitary
        fails.  Two entries of 9e-11 put 1.8e-10 off the diagonal of U^dag U,
        past is_unitary's 1e-10, so _monomial must not read them as zero; two
        of 2e-11 it does read as zero, and that matrix is unitary."""
        gf = make_field(2)
        mat = build_gate(gf, "x", beta=1).mat.copy()
        mat[:, 0] *= scale
        for k, entry in enumerate(extra):
            mat[k, k] = entry
        U = DenseOperator(gf, 1, mat)
        assert (_monomial(mat) is not None, U.is_unitary()) == (read, unitary)
        if unitary:
            assert hierarchy_level(U, 4).level == 1
        else:
            with pytest.raises(NonUnitary):
                hierarchy_level(U, 4)

    @pytest.mark.parametrize("s, n", [(1, 3), (2, 1), (2, 2), (3, 1)])
    def test_level_one_rule_matches_is_pauli_multiple(self, s, n):
        gf = make_field(s)
        d = gf.q**n
        rng = np.random.default_rng(101 + 10 * s + n)
        kets = np.arange(d)
        cases, band = [], []
        for _ in range(8):
            x, z = rng.integers(0, gf.q, n), rng.integers(0, gf.q, n)
            P = pauli_matrix(PauliWord.from_vectors(gf, x, z)).mat
            cases.append(np.exp(2j * np.pi * rng.random()) * P)  # global-phase Pauli
            cases.append(random_monomial(rng, d, 1.0))  # usually not a translation
            translation = np.zeros((d, d), dtype=np.complex128)
            translation[kets ^ int(rng.integers(d)), kets] = np.exp(2j * np.pi * rng.random(d))
            cases.append(translation)  # non-character phases
            for eps in (1e-9, 1e-5):  # one phase of a Pauli nudged under / over the tolerance
                nudged = P.copy()
                nudged[:, 0] *= np.exp(1j * eps)
                cases.append(nudged)
            # nudged by 2 * _PAULI_ATOL, inside the band (_PAULI_ATOL, d * _PAULI_ATOL):
            # the other coefficients stay within _PAULI_ATOL, the phase rule refuses
            nudged = P.copy()
            nudged[:, 0] *= np.exp(2j * _PAULI_ATOL)
            band.append(nudged)
        for mat in cases:
            perm, phase = _monomial(mat)
            got = bool(_monomial_paulis(perm[None], phase[None])[0])
            U = DenseOperator(gf, n, mat)
            assert got == is_pauli_multiple(U) == reference_is_pauli_multiple(U)
        for mat in band:
            perm, phase = _monomial(mat)
            assert not _monomial_paulis(perm[None], phase[None])[0]
            assert is_pauli_multiple(DenseOperator(gf, n, mat))
        perms = np.array([_monomial(m)[0] for m in cases])
        phases = np.array([_monomial(m)[1] for m in cases])
        batch = _monomial_paulis(perms, phases)
        assert list(batch) == [is_pauli_multiple(DenseOperator(gf, n, m)) for m in cases]

    @pytest.mark.parametrize("s, n", [(1, 3), (2, 2), (3, 1)])
    def test_generator_actions_cached_read_only(self, s, n):
        gf = make_field(s)
        words, targets, phases = _generator_actions(gf, n)
        assert _generator_actions(gf, n)[1] is targets and len(words) == 2 * n * gf.s
        assert not targets.flags.writeable and not phases.flags.writeable
        with pytest.raises(ValueError):
            targets[0, 0] = 0
        with pytest.raises(ValueError):
            phases[0, 0] = 0
        for word, t, ph in zip(words, targets, phases):
            mat = np.zeros((gf.q**n,) * 2, dtype=np.complex128)
            mat[t, np.arange(t.size)] = ph
            assert np.array_equal(mat, pauli_matrix(word).mat)

    @pytest.mark.parametrize("s, n", [(1, 2), (2, 2), (3, 1), (6, 1)])
    def test_coefficient_matrix_matches_complex_product(self, s, n):
        gf = make_field(s)
        d = gf.q**n
        rng = np.random.default_rng(107 + s)
        U = DenseOperator(gf, n, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        cols = np.arange(d)
        diagonals = U.mat[cols[:, None] ^ cols[None, :], cols[None, :]]
        want = diagonals @ _chi_matrix(gf, n).astype(np.complex128).T / d
        assert np.allclose(pauli_coefficient_matrix(U), want, rtol=0, atol=1e-12)


def assert_action_matches_matrix(U):
    """The action U carries is exactly the (perm, phase) pair _monomial reads
    off U.mat, and both its arrays are read-only."""
    assert not U.clifford
    targets, phases = U.action
    perm, phase = _monomial(U.mat)
    assert targets.dtype == np.int64 and phases.dtype == np.complex128
    assert np.array_equal(targets, perm) and np.array_equal(phases, phase)
    assert not targets.flags.writeable and not phases.flags.writeable


def assert_clifford_marker_holds(U):
    """U carries the clifford marker and no action, and U g U^dag is densely a
    Pauli multiple for every single-site X/Z generator g."""
    assert U.clifford and U.action is None
    for word in _generator_actions(U.gf, U.n)[0]:
        conjugate = U.mat @ pauli_matrix(word).mat @ U.mat.conj().T
        assert reference_is_pauli_multiple(DenseOperator(U.gf, U.n, conjugate)), word


def one_qudit_cases(gf, rng):
    """One seeded parameter for each one-qudit monomial kind."""
    code = lambda: int(rng.integers(1, gf.q))
    return [("x", {"beta": code()}), ("z", {"gamma": code()}), ("mult", {"delta": code()}),
            ("s", {"gamma": code()}), ("t", {"gamma": code()}), ("u_n", {"n": 3, "beta": code()})]


class TestForms:
    """The form each constructor gives an operator, against its dense matrix."""

    @pytest.mark.parametrize("s", [1, 2, 3, 6])
    def test_build_gate_action_matches_matrix(self, s):
        gf = make_field(s)
        for kind, params in gate_cases(gf):
            if s == 6 and kind in ("cnot", "ccz"):  # q^2 and q^3 kets: one-qudit kinds only
                continue
            U = build_gate(gf, kind, **params)
            if kind == "hadamard":
                assert_clifford_marker_holds(U)
            else:
                assert_action_matches_matrix(U)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pi_map_relabels_the_action(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(113 + s)
        for kind, params in gate_cases(gf):
            U = build_gate(gf, kind, **params)
            image = pi_map(seeded_assignment(gf, rng, U.n), U)
            if kind == "hadamard":  # Pi maps Paulis to Paulis, so the marker carries over
                assert_clifford_marker_holds(image)
            else:
                assert_action_matches_matrix(image)

    @pytest.mark.parametrize("s, n", [(1, 1), (1, 3), (2, 2), (3, 3)])
    def test_embed_single_carries_the_action(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(127 + 10 * s + n)
        ops = [build_gate(gf, kind, **params) for kind, params in one_qudit_cases(gf, rng)]
        ops.append(pauli_matrix(PauliWord.from_vectors(gf, [1], [gf.q - 1])))  # moves and phases
        for site in range(n):
            for U in ops:
                assert_action_matches_matrix(embed_single(gf, n, site, U))

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_hadamard_is_marked_clifford(self, s):
        """H X^a H^dag = Z^a and H Z^b H^dag = X^b, densely."""
        gf = make_field(s)
        H = build_gate(gf, "hadamard")
        assert_clifford_marker_holds(H)
        for word in _generator_actions(gf, 1)[0]:
            conjugate = H.mat @ pauli_matrix(word).mat @ H.mat.conj().T
            want = pauli_matrix(PauliWord(gf, word.zvec, word.xvec)).mat
            assert np.allclose(conjugate, want, rtol=0, atol=1e-12), word

    @pytest.mark.parametrize("s, n", [(s, n) for s in (1, 2, 3) for n in (1, 2, 3)])
    def test_embedded_hadamard_is_marked_clifford(self, s, n):
        gf = make_field(s)
        H = build_gate(gf, "hadamard")
        for site in range(n):
            assert_clifford_marker_holds(embed_single(gf, n, site, H))

    def test_formed_matrix_is_read_only(self):
        gf = make_field(2)
        H = build_gate(gf, "hadamard")
        formed = [
            build_gate(gf, "t", gamma=1), build_gate(gf, "cnot"), H,
            pauli_matrix(PauliWord.from_vectors(gf, [1, 2], [3, 0])),
            embed_single(gf, 2, 1, build_gate(gf, "mult", delta=2)), embed_single(gf, 2, 0, H),
            pi_map(polynomial_basis(gf), build_gate(gf, "s", gamma=3)),
            pi_map(polynomial_basis(gf), H),
        ]
        for U in formed:
            with pytest.raises(ValueError):
                U.mat[0, 0] = 2.0
            with pytest.raises(ValueError):
                U.mat *= 2.0
        dense = DenseOperator(gf, 1, np.eye(4))
        assert dense.action is None and not dense.clifford and dense.mat.flags.writeable

    def test_new_matrix_drops_the_form(self):
        """Assigning a new .mat drops the form, so the query reads the new
        matrix: here it fails is_unitary."""
        gf = make_field(2)
        for U in (build_gate(gf, "x", beta=1), build_gate(gf, "hadamard")):
            U.mat = 2.0 * np.eye(4)
            assert U.action is None and not U.clifford
            with pytest.raises(NonUnitary):
                hierarchy_level(U, 4)

    def test_from_action_keeps_only_a_unitary_action(self):
        """An action whose targets repeat or whose phases leave the unit circle
        is not kept, so hierarchy_level raises NonUnitary on the operator, its
        embedding and its pi_map image, as is_unitary fails on each."""
        gf = make_field(2)
        swap = np.array([1, 0, 3, 2])
        cases = [(swap, 2.0), (swap, np.array([1, 1, 1, 1.001])), (np.array([0, 0, 2, 3]), 1.0)]
        for targets, phases in cases:
            U = DenseOperator.from_action(gf, 1, targets, phases)
            assert U.action is None and U.mat.flags.writeable
            for op in (U, embed_single(gf, 2, 1, U), pi_map(polynomial_basis(gf), U)):
                assert op.action is None and not op.is_unitary()
                with pytest.raises(NonUnitary):
                    hierarchy_level(op, 4)

    def test_generator_actions_read_the_stored_action(self, monkeypatch):
        """One pauli_matrix call per generator and no _monomial read-back."""
        reads, built = [], []
        monkeypatch.setattr(gates, "_monomial", lambda mat: reads.append(mat) or _monomial(mat))
        monkeypatch.setattr(gates, "pauli_matrix", lambda word: built.append(word) or pauli_matrix(word))
        words, targets, phases = _generator_actions.__wrapped__(make_field(2), 3)  # uncached
        assert reads == [] and built == list(words) and targets.shape == (12, 64)

    def test_formed_queries_read_no_matrix(self, monkeypatch):
        """A query on a formed root makes no _monomial read and builds no dense
        conjugate; the same Hadamard held as a dense matrix does both."""
        gf = make_field(2)
        H = build_gate(gf, "hadamard")
        cases = [
            (build_gate(gf, "ccz", gamma=1), 3), (build_gate(gf, "t", gamma=1), 3), (H, 2),
            (build_gate(gf, "cnot"), 2), (pauli_matrix(PauliWord.from_vectors(gf, [1], [2])), 1),
            (pi_map(seeded_assignment(gf, np.random.default_rng(131), 3), build_gate(gf, "ccz", gamma=2)), 3),
            (embed_single(gf, 2, 1, build_gate(gf, "t", gamma=3)), 3), (embed_single(gf, 2, 0, H), 2),
        ]
        reads, conjugates = [], []
        monkeypatch.setattr(gates, "_monomial", lambda mat: reads.append(mat) or _monomial(mat))
        monkeypatch.setattr(gates, "DenseOperator", lambda *a: conjugates.append(a) or DenseOperator(*a))
        for U, level in cases:
            assert hierarchy_level(U, 4).level == level
        assert reads == [] and conjugates == []
        assert hierarchy_level(DenseOperator(gf, 1, H.mat), 4).level == 2
        assert len(reads) == 1 + 2 * gf.s and len(conjugates) == 2 * gf.s


def algebraic_degree(f):
    """Degree of a Boolean function given by its 0/1 truth table over the
    packed ket index: the largest bit weight of a monomial in its algebraic
    normal form, from one Moebius transform (0 for f = 0)."""
    anf = np.array(f, dtype=np.uint8)
    w = 1
    while w < anf.size:
        blocks = anf.reshape(-1, 2, w)
        blocks[:, 1] ^= blocks[:, 0]
        w *= 2
    return max((bin(int(j)).count("1") for j in np.flatnonzero(anf)), default=0)


class TestClosedFormLevels:
    """Hierarchy levels of diagonal gates from closed forms that need no
    dense reference.  A diagonal gate diag((-1)^f) is at level max(1, deg f)
    (Cui, Gottesman & Krishna, PRA 95, 012329, 2017), and the degree of
    f(x) = tr(beta x^r) is the binary weight w_2(r) unless f = 0 (Carlet,
    Boolean Functions for Cryptography and Coding Theory, CUP 2021).  Each
    query runs with max_level at the predicted level, so a level above or
    below it fails."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_degree_rule(self, s):
        """z, ccz, u_n (n < 2q) and multi_cz(l = 2) at q <= 8 and multi_cz(l =
        3, 4) at q <= 4, every parameter code."""
        gf = make_field(s)
        codes = range(gf.q)
        cases = [(kind, {"gamma": c}) for kind in ("z", "ccz") for c in codes]
        cases += [("u_n", {"n": n, "beta": c}) for n in range(1, 2 * gf.q) for c in codes]
        ls = (2, 3, 4) if gf.q <= 4 else (2,)
        cases += [("multi_cz", {"l": l, "gamma": c}) for l in ls for c in codes]
        for kind, params in cases:
            U = build_gate(gf, kind, **params)
            diagonal = U.mat.diagonal()
            assert np.array_equal(U.mat, np.diag(diagonal)) and set(diagonal) <= {1, -1}
            level = max(1, algebraic_degree(diagonal.real < 0))
            assert hierarchy_level(U, level).level == level, (kind, params)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_u_n_level_is_the_binary_weight(self, s):
        """U_n^beta at level max(1, w_2(r)), r = ((n - 1) mod (q - 1)) + 1,
        or level 1 when it is the identity: every n < 2q and beta != 0 at
        q <= 16, and at q = 32 and 64 n = 2^w - 1 (w = 1..s, so up to level
        6) with beta in {1, 2, q - 1}."""
        gf = make_field(s)
        if gf.q <= 16:
            cases = [(npow, beta) for npow in range(1, 2 * gf.q) for beta in range(1, gf.q)]
        else:
            cases = [((1 << w) - 1, beta) for w in range(1, s + 1) for beta in (1, 2, gf.q - 1)]
        for npow, beta in cases:
            r = (npow - 1) % (gf.q - 1) + 1
            U = build_gate(gf, "u_n", n=npow, beta=beta)
            identity = np.array_equal(U.mat, np.eye(gf.q))
            level = 1 if identity else max(1, bin(r).count("1"))
            assert hierarchy_level(U, level).level == level, (npow, beta)

    def test_algebraic_degree(self):
        kets = np.arange(16)
        assert algebraic_degree(np.zeros(16)) == 0
        assert algebraic_degree(np.ones(16)) == 0
        assert algebraic_degree((kets >> 2) & 1) == 1
        assert algebraic_degree(((kets & 3) == 3) ^ ((kets >> 3) & 1)) == 2
        assert algebraic_degree(kets == 15) == 4


def reference_qubit_permutation(assignment):
    """perm[qudit index] = qubit index, one qudit and one bit at a time."""
    gf, n = assignment.gf, assignment.n
    digits = all_digits(gf, n)
    perm = np.zeros(digits.shape[0], dtype=np.int64)
    for i in range(n):
        bits = assignment[i].decompose(digits[:, i])
        block = np.zeros(digits.shape[0], dtype=np.int64)
        for b in range(gf.s):
            block = (block << 1) | bits[:, b]
        perm = (perm << gf.s) | block
    return perm


class TestQubitPermutation:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_nested_loops_mixed_bases(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(79 + s)
        pool = [polynomial_basis(gf), find_self_dual(gf)]
        pool += [FieldBasis(gf, polynomial_basis(gf).recompose(
            linalg.random_invertible(make_field(1), rng, s))) for _ in range(2)]
        for n in (1, 2, 3):
            for _ in range(3):
                A = BasisAssignment([pool[i] for i in rng.integers(len(pool), size=n)])
                perm = qubit_permutation(A)
                assert np.array_equal(perm, reference_qubit_permutation(A))
                assert np.array_equal(np.sort(perm), np.arange(gf.q**n))


class TestPhiMap:
    def test_zero_ket(self):
        gf = make_field(2)
        psi = StateVector(gf, 1, np.eye(4)[0])
        out = phi_map(find_self_dual(gf), psi)
        assert np.allclose(out.amps, np.eye(4)[0])

    def test_f4_omega_basis_maps_one_to_11(self):
        gf = make_field(2)
        B = FieldBasis(gf, [2, 3])
        psi = StateVector(gf, 1, np.eye(4)[1])  # |1>
        out = phi_map(B, psi)
        assert np.allclose(out.amps, np.eye(4)[0b11])

    def test_preserves_inner_products(self):
        gf = make_field(2)
        B = polynomial_basis(gf)
        rng = np.random.default_rng(37)
        for _ in range(20):
            a = rng.normal(size=16) + 1j * rng.normal(size=16)
            b = rng.normal(size=16) + 1j * rng.normal(size=16)
            pa = StateVector(gf, 2, a)
            pb = StateVector(gf, 2, b)
            lhs = np.vdot(phi_map(BasisAssignment.uniform(B, 2), pa).amps,
                          phi_map(BasisAssignment.uniform(B, 2), pb).amps)
            assert abs(lhs - np.vdot(a, b)) < 1e-10

    @pytest.mark.parametrize("s", [2, 3])
    def test_phi_inverse_undoes_phi(self, s):
        gf, gf2 = make_field(s), make_field(1)
        rng = np.random.default_rng(43 + s)
        for _ in range(5):
            rows = [linalg.random_invertible(gf2, rng, s) for _ in range(2)]
            random_bases = [FieldBasis(gf, [int(r @ (1 << np.arange(s))) for r in M]) for M in rows]
            for bases in (find_self_dual(gf), BasisAssignment(random_bases)):
                amps = rng.normal(size=gf.q**2) + 1j * rng.normal(size=gf.q**2)
                psi = StateVector(gf, 2, amps)
                back = phi_inverse(bases, phi_map(bases, psi), gf)
                assert back.gf == gf and back.n == 2
                assert np.array_equal(back.amps, psi.amps)


class TestMapsRefuseForeignInput:
    """The state and operator maps refuse bases over another field than
    their input, and qubit states that are not whole qudits over gf."""

    @staticmethod
    def foreign():
        """A state over x^4 + x + 1 and a basis over x^4 + x^3 + 1."""
        gf = make_field(modulus=19)
        psi = StateVector(gf, 1, np.eye(16)[3])
        return gf, psi, find_self_dual(make_field(modulus=25))

    def test_phi_map_basis_over_another_modulus(self):
        _, psi, basis = self.foreign()
        with pytest.raises(FieldMismatch):
            phi_map(basis, psi)

    def test_pi_map_basis_over_another_modulus(self):
        gf, _, basis = self.foreign()
        with pytest.raises(FieldMismatch):
            pi_map(basis, DenseOperator(gf, 1, np.eye(16)))

    def test_phi_map_of_a_qubit_state_with_a_qudit_basis(self):
        gf = make_field(2)
        with pytest.raises(FieldMismatch):
            phi_map(find_self_dual(gf), StateVector(make_field(1), 2, np.eye(4)[1]))

    def test_phi_inverse_of_a_qudit_state(self):
        gf = make_field(2)
        with pytest.raises(FieldMismatch):
            phi_inverse(find_self_dual(gf), StateVector(gf, 2, np.eye(16)[5]), gf)

    def test_phi_inverse_of_a_partial_qudit(self):
        gf = make_field(2)
        Psi = StateVector(make_field(1), 3, np.full(8, 8**-0.5))
        with pytest.raises(DimensionMismatch):
            phi_inverse(find_self_dual(gf), Psi, gf)

    def test_phi_inverse_with_a_basis_over_another_field(self):
        gf, _, basis = self.foreign()
        Psi = StateVector(make_field(1), 4, np.eye(16)[3])
        with pytest.raises(FieldMismatch):
            phi_inverse(basis, Psi, gf)


class TestPiMap:
    def test_identity(self):
        gf = make_field(2)
        out = pi_map(find_self_dual(gf), DenseOperator(gf, 1, np.eye(4)))
        assert np.allclose(out.mat, np.eye(4))

    def test_pauli_identifications(self):
        gf = make_field(2)
        gf2 = make_field(1)
        for B in (find_self_dual(gf), polynomial_basis(gf)):
            Bd = B.dual()
            for gamma in gf.elements():
                got = pi_map(B, pauli_matrix(PauliWord.x_word(gf, [gamma]))).mat
                want = pauli_matrix(PauliWord.x_word(gf2, B.decompose(gamma))).mat
                assert np.allclose(got, want)
                got = pi_map(B, pauli_matrix(PauliWord.z_word(gf, [gamma]))).mat
                want = pauli_matrix(PauliWord.z_word(gf2, Bd.decompose(gamma))).mat
                assert np.allclose(got, want)

    def test_cnot_becomes_pairwise_qubit_cnots(self):
        gf = make_field(2)
        B = find_self_dual(gf)
        got = pi_map(BasisAssignment.uniform(B, 2), build_gate(gf, "cnot")).mat
        expected = np.zeros((16, 16))
        for j in range(16):
            b = [(j >> (3 - i)) & 1 for i in range(4)]
            t = [b[0], b[1], b[2] ^ b[0], b[3] ^ b[1]]
            expected[sum(v << (3 - i) for i, v in enumerate(t)), j] = 1
        assert np.array_equal(got, expected)

    def test_homomorphism_properties(self):
        gf = make_field(2)
        B = polynomial_basis(gf)
        H = build_gate(gf, "hadamard")
        M = build_gate(gf, "mult", delta=3)
        lhs = pi_map(B, DenseOperator(gf, 1, H.mat @ M.mat)).mat
        assert np.allclose(lhs, pi_map(B, H).mat @ pi_map(B, M).mat)
        lhs = pi_map(B, DenseOperator(gf, 1, H.mat + M.mat)).mat
        assert np.allclose(lhs, pi_map(B, H).mat + pi_map(B, M).mat)
        assert np.allclose(pi_map(B, H).mat.conj().T, pi_map(B, DenseOperator(gf, 1, H.mat.conj().T)).mat)

    def test_compatibility_with_phi(self):
        gf = make_field(2)
        B = find_self_dual(gf)
        A = BasisAssignment.uniform(B, 2)
        rng = np.random.default_rng(41)
        U = build_gate(gf, "cnot")
        for _ in range(25):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi = StateVector(gf, 2, amps / np.linalg.norm(amps))
            lhs = pi_map(A, U).mat @ phi_map(A, psi).amps
            rhs = phi_map(A, U.apply(psi)).amps
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_hierarchy_preserved_for_zoo(self):
        gf = make_field(2)
        B = find_self_dual(gf)
        for name, U in (
            ("hadamard", build_gate(gf, "hadamard")),
            ("mult", build_gate(gf, "mult", delta=2)),
            ("ccz", build_gate(gf, "ccz", gamma=1)),
        ):
            A = BasisAssignment.uniform(B, U.n)
            assert hierarchy_level(U, 4, name).level == hierarchy_level(pi_map(A, U), 4, name).level
