"""Dense statevector oracle: matrices, stabiliser states, measurement."""

import tracemalloc

import numpy as np
import pytest

from gqudits import linalg
from gqudits import oracle as oracle_mod
from gqudits.bases import polynomial_basis
from gqudits.errors import (
    DimensionMismatch,
    FullTableauRequired,
    InvalidFieldCode,
    PureTypeRequired,
    TooLarge,
)
from gqudits.field import GF, make_field
from gqudits.oracle import (
    ATOL,
    NOT_EIGENSTATE,
    DenseOperator,
    StateVector,
    _power_actions,
    _sectors,
    _verify_eigen_equations,
    all_digits,
    index_of,
    born_probabilities,
    collapse,
    measure_projective,
    pauli_matrix,
    projectors,
    states_equal_up_to_phase,
    stabiliser_state,
    syndrome_component,
)
from gqudits.pauli import PauliWord
from gqudits.tableau import new_tableau


def uniform_state(gf, n):
    d = gf.q**n
    return StateVector(gf, n, np.full(d, 1 / np.sqrt(d), dtype=np.complex128))


def reference_index_of(gf, u):
    """Packed index of one digit row, one digit at a time."""
    out = 0
    for c in u:
        out = (out << gf.s) | int(c)
    return out


def reference_trace_dot_with(gf, codes, digits):
    """tr(codes . u) for every digit row u, one site at a time."""
    t = np.zeros(digits.shape[0], dtype=np.int64)
    for i, c in enumerate(codes):
        if c:
            t ^= gf.trace_arr(gf.mul_arr(int(c), digits[:, i]))
    return t


def reference_pauli_action(P):
    """(targets, phases) of one word: P |u> = phases[u] |targets[u]>, with
    targets = u + x and phases = sign * (-1)^tr(z . u)."""
    gf = P.gf
    d = gf.q**P.n
    targets = np.arange(d, dtype=np.int64) ^ reference_index_of(gf, P.xvec)
    phases = P.sign * (1 - 2 * reference_trace_dot_with(gf, P.z_array, all_digits(gf, P.n)))
    return targets, phases


def reference_syndrome_component(psi, P):
    """One power P^(2^i) at a time: bit i is 0 when P^(2^i) fixes psi within
    ATOL, else 1 when it negates psi within ATOL."""
    gf = psi.gf
    bits = []
    for i in range(gf.s):
        targets, phases = reference_pauli_action(P.power(1 << i))
        moved = np.empty_like(psi.amps)
        moved[targets] = phases * psi.amps
        if np.max(np.abs(moved - psi.amps)) <= ATOL:
            bits.append(0)
        elif np.max(np.abs(moved + psi.amps)) <= ATOL:
            bits.append(1)
        else:
            return NOT_EIGENSTATE
    return polynomial_basis(gf).dual().recompose(bits)


class TestKetLayout:
    def test_index_of_matches_digit_loop(self):
        rng = np.random.default_rng(61)
        for s in (1, 2, 3, 5):
            gf = make_field(s)
            for n in (1, 2, 4):
                digits = rng.integers(0, gf.q, size=(7, n))
                want = [reference_index_of(gf, u) for u in digits]
                assert index_of(gf, digits).tolist() == want
                got = index_of(gf, digits[0])
                assert type(got) is int and got == want[0]

    def test_index_of_inverts_all_digits(self):
        for s in range(1, 13):
            gf = make_field(s)
            for n in range(1, 12 // s + 1):
                digits = all_digits(gf, n)
                assert digits.shape == (gf.q**n, n)
                assert np.array_equal(index_of(gf, digits), np.arange(gf.q**n))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_trace_dot_matches_site_loop(self, s):
        # a Z word's phases are (-1)^tr(z . u)
        gf = make_field(s)
        rng = np.random.default_rng(67 + s)
        for n in (1, 2, 3):
            digits = all_digits(gf, n)
            for _ in range(4):
                codes = rng.integers(0, gf.q, n)
                _, (phases,) = _power_actions(PauliWord.z_word(gf, codes), [1])
                assert np.array_equal(phases, 1 - 2 * reference_trace_dot_with(gf, codes, digits))


class TestPauliMatrix:
    def test_identity(self):
        gf = make_field(2)
        assert np.array_equal(pauli_matrix(PauliWord.identity(gf, 1)).mat, np.eye(4))

    def test_qubit_matrices(self):
        gf = make_field(1)
        X = pauli_matrix(PauliWord.x_word(gf, [1])).mat
        Z = pauli_matrix(PauliWord.z_word(gf, [1])).mat
        assert np.array_equal(X, [[0, 1], [1, 0]])
        assert np.array_equal(Z, [[1, 0], [0, -1]])

    def test_q4_z_diagonal(self):
        gf = make_field(2)
        for gamma in gf.elements():
            Z = pauli_matrix(PauliWord.z_word(gf, [gamma])).mat
            expected = np.diag([1 - 2 * gf.trace(gf.mul(gamma, eta)) for eta in range(4)])
            assert np.array_equal(Z, expected)

    def test_sign_carried(self):
        gf = make_field(1)
        P = PauliWord.x_word(gf, [1], sign=-1)
        assert np.array_equal(pauli_matrix(P).mat, [[0, -1], [-1, 0]])

    def test_dimension_cap(self):
        gf = make_field(3)
        with pytest.raises(TooLarge):
            pauli_matrix(PauliWord.identity(gf, 5))  # 8^5 > DIM_CAP

    def test_unitary(self):
        gf = make_field(3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            P = PauliWord.from_vectors(gf, rng.integers(0, 8, 2), rng.integers(0, 8, 2))
            assert pauli_matrix(P).is_unitary()

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pure_x_phases_are_the_sign(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(61 + s)
        for sign in (1, -1):
            for _ in range(5):
                P = PauliWord.x_word(gf, rng.integers(0, gf.q, 2), sign=sign)
                (targets,), (phases,) = _power_actions(P, [1])
                want = sign * (1 - 2 * reference_trace_dot_with(gf, P.z_array, all_digits(gf, 2)))
                assert phases.dtype == want.dtype and np.array_equal(phases, want)
                assert np.array_equal(targets, np.arange(gf.q**2) ^ index_of(gf, P.x_array))


class TestPowerActions:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_per_power_action(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(101 + s)
        for n in (1, 2, 3):
            for _ in range(2):
                codes = rng.integers(0, gf.q, n)
                for P in (PauliWord.x_word(gf, codes), PauliWord.z_word(gf, codes)):
                    targets, phases = _power_actions(P, gf.elements())
                    assert targets.shape == phases.shape == (gf.q, gf.q**n)
                    for mu in gf.elements():
                        want_targets, want_phases = reference_pauli_action(P.power(mu))
                        assert np.array_equal(targets[mu], want_targets)
                        assert phases.dtype == want_phases.dtype
                        assert np.array_equal(phases[mu], want_phases)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_signed_and_mixed_words_at_mu_one(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(103 + s)
        for n in (1, 2, 3):
            for sign in (1, -1):
                x, z = rng.integers(0, gf.q, n), rng.integers(0, gf.q, n)
                for P in (PauliWord.from_vectors(gf, x, z, sign), PauliWord.x_word(gf, x, sign),
                          PauliWord.z_word(gf, z, sign)):
                    want_targets, want_phases = reference_pauli_action(P)
                    for mus in ([1], None):  # None: the word itself, no product
                        (targets,), (phases,) = _power_actions(P, mus)
                        assert np.array_equal(targets, want_targets)
                        assert phases.dtype == want_phases.dtype
                        assert np.array_equal(phases, want_phases)

    def test_pauli_matrix_makes_no_power_product(self, monkeypatch):
        """The mu = 1 action needs no mu * x or mu * (z . u) product: an X
        word takes no F_q product at all, a word with a Z part only the
        z . u of its matmul."""
        gf = make_field(3)
        calls = []
        product = GF.mul_arr
        monkeypatch.setattr(GF, "mul_arr", lambda self, a, b: calls.append(a) or product(self, a, b))
        assert pauli_matrix(PauliWord.x_word(gf, [3, 6], -1)).action is not None
        assert len(calls) == 0
        assert pauli_matrix(PauliWord.from_vectors(gf, [3, 0], [5, 7], -1)).action is not None
        assert len(calls) == 1
        _power_actions(PauliWord.from_vectors(gf, [3, 0], [5, 7], -1), [1])
        assert len(calls) == 4


class TestStabiliserState:
    def test_single_qubit_zero(self):
        gf = make_field(1)
        t = new_tableau(gf, 1, np.zeros((0, 1)), [[1]], [], [0])
        psi = stabiliser_state(t)
        assert np.allclose(psi.amps, [1, 0])

    def test_four_qubit_cat(self):
        gf = make_field(1)
        t = new_tableau(gf, 4, [[1, 1, 1, 1]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], [0], [0, 0, 0])
        psi = stabiliser_state(t)
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / np.sqrt(2)
        assert np.allclose(psi.amps, expected)

    def test_cat_with_flipped_syndrome(self):
        # X on the first two qubits violates only the middle Z stabiliser
        gf = make_field(1)
        t = new_tableau(gf, 4, [[1, 1, 1, 1]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], [0], [0, 1, 0])
        psi = stabiliser_state(t)
        expected = np.zeros(16)
        expected[0b1100] = expected[0b0011] = 1 / np.sqrt(2)
        assert np.allclose(np.abs(psi.amps), expected)

    def test_q4_bell_type(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        psi = stabiliser_state(t)
        # support on pairs with eta_1 + eta_2 = 0, all amplitudes equal
        for idx, amp in enumerate(psi.amps):
            u1, u2 = idx >> 2, idx & 3
            if u1 == u2:
                assert abs(amp - 0.5) < 1e-12
            else:
                assert abs(amp) < 1e-12
        # defining eigen-equations for every mu and both rows
        for mu in gf.elements():
            for word in (PauliWord.x_word(gf, [1, 1]), PauliWord.z_word(gf, [1, 1])):
                mat = pauli_matrix(word.power(mu)).mat
                assert np.allclose(mat @ psi.amps, psi.amps)

    def test_nontrivial_syndromes_respected(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [2], [3])
        psi = stabiliser_state(t)
        for word, syn in ((PauliWord.x_word(gf, [1, 1]), 2), (PauliWord.z_word(gf, [1, 1]), 3)):
            for mu in gf.elements():
                sign = 1 - 2 * gf.trace(gf.mul(mu, syn))
                assert np.allclose(pauli_matrix(word.power(mu)).mat @ psi.amps, sign * psi.amps)

    def test_full_tableau_required(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], np.zeros((0, 2)), [0], [])
        with pytest.raises(FullTableauRequired):
            stabiliser_state(t)


class TestEigenEquationCheck:
    """The exact check behind stabiliser_state rejects broken states."""

    @staticmethod
    def pure_tableau(gf, block, rng, n=2):
        rows = linalg.random_invertible(gf, rng, n)
        syn = rng.integers(1, gf.q, n)  # non-zero: the X-type signs are not all equal
        empty = np.zeros((0, n), dtype=np.int64)
        if block == "x":
            return new_tableau(gf, n, rows, empty, syn, [])
        return new_tableau(gf, n, empty, rows, [], syn)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_x_only_sign_flip_and_swap(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(71 + s)
        for _ in range(3):
            t = self.pure_tableau(gf, "x", rng)
            amps = np.sign(stabiliser_state(t).amps.real).astype(np.int64)
            _verify_eigen_equations(t, amps)
            flipped = amps.copy()
            flipped[rng.integers(amps.size)] *= -1
            with pytest.raises(RuntimeError, match="an X eigen-equation"):
                _verify_eigen_equations(t, flipped)
            i = int(rng.integers(amps.size))
            j = int(rng.choice(np.flatnonzero(amps != amps[i])))
            swapped = amps.copy()
            swapped[[i, j]] = swapped[[j, i]]
            with pytest.raises(RuntimeError, match="an X eigen-equation"):
                _verify_eigen_equations(t, swapped)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_z_only_swap(self, s):
        # a Z-only state is one ket; a sign flip keeps it an eigenstate
        gf = make_field(s)
        rng = np.random.default_rng(73 + s)
        for _ in range(3):
            t = self.pure_tableau(gf, "z", rng)
            amps = np.sign(stabiliser_state(t).amps.real).astype(np.int64)
            _verify_eigen_equations(t, amps)
            i = int(np.flatnonzero(amps)[0])
            j = int(rng.choice(np.flatnonzero(amps == 0)))
            swapped = amps.copy()
            swapped[[i, j]] = swapped[[j, i]]
            with pytest.raises(RuntimeError, match="a Z eigen-equation"):
                _verify_eigen_equations(t, swapped)

    @staticmethod
    def mixed_tableau(gf, rng, n=3, m_x=None):
        # X rows from an invertible M and Z rows from (M^-1)^T: row i of M
        # dotted with row j of (M^-1)^T is delta_ij, so the blocks commute
        M = linalg.random_invertible(gf, rng, n)
        inv = np.array([linalg.solve(gf, M, e) for e in np.eye(n, dtype=np.int64)])
        if m_x is None:
            m_x = int(rng.integers(1, n))
        return new_tableau(
            gf, n, M[:m_x], inv[m_x:], rng.integers(0, gf.q, m_x), rng.integers(0, gf.q, n - m_x)
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_mixed_planted_violations(self, s):
        # X^a commutes with the X rows and flips a Z row's syndrome when a
        # meets it; Z^c does the same the other way round
        gf = make_field(s)
        rng = np.random.default_rng(79 + s)
        digits = all_digits(gf, 3)
        for _ in range(4):
            t = self.mixed_tableau(gf, rng)
            assert t.m_x and t.m_z
            amps = np.rint(stabiliser_state(t).amps.real * np.sqrt(gf.q**t.m_x)).astype(np.int64)
            _verify_eigen_equations(t, amps)
            while True:
                a, c = rng.integers(0, gf.q, 3), rng.integers(0, gf.q, 3)
                if gf.matmul(t.zrows, a).any() and gf.matmul(t.xrows, c).any():
                    break
            shifted = np.empty_like(amps)
            shifted[np.arange(amps.size) ^ index_of(gf, a)] = amps
            with pytest.raises(RuntimeError, match="a Z eigen-equation"):
                _verify_eigen_equations(t, shifted)
            both = shifted * (1 - 2 * gf.trace_arr(gf.matmul(digits, c)))
            with pytest.raises(RuntimeError, match="an X eigen-equation"):
                _verify_eigen_equations(t, both)

    def test_every_power_checked_past_the_first_chunk(self):
        # q * q^n = 2^22 splits the powers into four chunks; the uniform state
        # on codes below 512 is fixed by X^mu for mu < 512 only
        gf = make_field(11)
        t = new_tableau(gf, 1, [[1]], np.zeros((0, 1), dtype=np.int64), [0], [])
        amps = np.ones(gf.q, dtype=np.int64)
        _verify_eigen_equations(t, amps)
        amps[512:] = 0
        with pytest.raises(RuntimeError, match="an X eigen-equation"):
            _verify_eigen_equations(t, amps)


def reference_eigen_check(t, amps):
    """The per-row eigen-check: one syndrome_component per row, X rows first."""
    psi = StateVector(t.gf, t.n, amps)
    for word, rows, syns, name in (
        (PauliWord.x_word, t.xrows, t.xsyn, "an X"), (PauliWord.z_word, t.zrows, t.zsyn, "a Z")
    ):
        for row, syn in zip(rows, syns):
            if syndrome_component(psi, word(t.gf, row)) != syn:
                raise RuntimeError(f"constructed state violates {name} eigen-equation")


def eigen_verdict(check, t, amps):
    """None when check accepts amps, else its RuntimeError message."""
    try:
        check(t, amps)
    except RuntimeError as exc:
        return str(exc)
    return None


def two_solve_amplitudes(t):
    """Integer amplitudes sum over u in L_X of (-1)^tr(u . t0) |x0 + u>, with
    x0 and t0 each solved from its block's syndromes."""
    gf = t.gf
    x0 = linalg.solve(gf, t.zrows, t.zsyn)
    t0 = linalg.solve(gf, t.xrows, t.xsyn)
    words = gf.matmul(all_digits(gf, t.m_x), t.xrows)
    amps = np.zeros(gf.q**t.n, dtype=np.int64)
    amps[index_of(gf, words ^ x0)] = 1 - 2 * gf.trace_arr(gf.matmul(words, t0))
    return amps


class TestStabiliserStatePhases:
    def test_matches_two_solve_construction(self, monkeypatch):
        """Phases from the X syndromes equal phases from a solved t0, and one
        solve is made per state."""
        rng = np.random.default_rng(97)
        solves, solve = [], linalg.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(linalg, "solve", counted)
        cases = 0
        for s in (1, 2, 3):
            gf = make_field(s)
            for n in (1, 2, 3):
                for m_x in range(n + 1):
                    for _ in range(12):
                        t = TestEigenEquationCheck.mixed_tableau(gf, rng, n, m_x)
                        solves.clear()
                        got = stabiliser_state(t).amps
                        assert len(solves) == 1
                        want = two_solve_amplitudes(t).astype(np.complex128)
                        assert np.array_equal(got, want / np.linalg.norm(want))
                        cases += 1
        assert cases == 3 * 9 * 12


class TestBlockEigenCheck:
    """The block check accepts and refuses exactly what the per-row check does."""

    def test_matches_per_row_check(self):
        rng = np.random.default_rng(83)
        tableaux = refused = 0
        for s in (1, 2, 3):
            gf = make_field(s)
            for n in (1, 2, 3):
                for m_x in range(n + 1):
                    for _ in range(38):
                        t = TestEigenEquationCheck.mixed_tableau(gf, rng, n, m_x)
                        amps = np.rint(
                            stabiliser_state(t).amps.real * np.sqrt(gf.q**m_x)
                        ).astype(np.int64)
                        flipped = amps.copy()
                        flipped[rng.choice(np.flatnonzero(amps))] *= -1
                        bumped = amps.copy()
                        bumped[rng.integers(amps.size)] += 1
                        for variant in (amps, flipped, np.roll(amps, 1), bumped):
                            verdict = eigen_verdict(_verify_eigen_equations, t, variant)
                            assert verdict == eigen_verdict(reference_eigen_check, t, variant)
                            refused += verdict is not None
                        tableaux += 1
        assert tableaux >= 1000
        assert refused > tableaux  # most corrupted variants are refused

    def test_no_per_row_pauli_action(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-row Pauli action in the eigen-check")

        gf = make_field(2)
        t = TestEigenEquationCheck.mixed_tableau(gf, np.random.default_rng(89))
        monkeypatch.setattr(oracle_mod, "syndrome_component", refuse)
        monkeypatch.setattr(oracle_mod, "_power_actions", refuse)
        assert stabiliser_state(t).norm() == pytest.approx(1.0)


class TestStacks:
    """A list of tableaux or of states is a stack, computed by the same array
    operations as a single argument, which is the batch of one."""

    @staticmethod
    def groups(seed, size=4):
        rng = np.random.default_rng(seed)
        for s in (1, 2, 3):
            gf = make_field(s)
            for n in (1, 2, 3):
                for m_x in range(n + 1):
                    yield gf, [TestEigenEquationCheck.mixed_tableau(gf, rng, n, m_x) for _ in range(size)]

    def test_stacked_states_match_one_at_a_time(self, monkeypatch):
        solves, solve = [], linalg.solve
        monkeypatch.setattr(linalg, "solve", lambda *args: solves.append(args) or solve(*args))
        groups = 0
        for _, ts in self.groups(137):
            solves.clear()
            stacked = stabiliser_state(ts)
            assert isinstance(stacked, list) and len(solves) == len(ts)
            for t, psi in zip(ts, stacked):
                assert psi.amps.tobytes() == stabiliser_state(t).amps.tobytes()
            groups += 1
        assert groups == 3 * 9

    def test_eigen_check_refuses_one_corrupted_member(self):
        rng = np.random.default_rng(139)
        refused = 0
        for gf, ts in self.groups(139):
            amps = np.array([
                np.rint(psi.amps.real * np.sqrt(gf.q**t.m_x)) for t, psi in zip(ts, stabiliser_state(ts))
            ]).astype(np.int64)
            _verify_eigen_equations(ts, amps)
            i = int(rng.integers(len(ts)))
            corrupted = amps.copy()
            if ts[i].m_x:  # a sign flip breaks an X eigen-equation
                corrupted[i, rng.choice(np.flatnonzero(amps[i]))] *= -1
            else:  # the one ket moved breaks a Z eigen-equation
                corrupted[i] = np.roll(amps[i], 1)
            want = eigen_verdict(_verify_eigen_equations, ts[i], corrupted[i])
            assert want is not None
            assert eigen_verdict(_verify_eigen_equations, ts, corrupted) == want
            refused += 1
        assert refused == 3 * 9

    def test_stack_needs_one_system_and_m_x(self):
        gf = make_field(2)
        rng = np.random.default_rng(149)
        t1, t2 = (TestEigenEquationCheck.mixed_tableau(gf, rng, 3, m_x) for m_x in (1, 2))
        other = TestEigenEquationCheck.mixed_tableau(gf, rng, 2, 1)
        for stack in ([t1, t2], [t1, other], []):
            with pytest.raises(DimensionMismatch):
                stabiliser_state(stack)
        psi = stabiliser_state(t1)
        w = PauliWord.z_word(gf, [1, 0, 0])
        for fn, extra in ((syndrome_component, ()), (born_probabilities, ()), (collapse, ([[0]],))):
            with pytest.raises(DimensionMismatch):
                fn([psi, stabiliser_state(other)], [w, PauliWord.z_word(gf, [1, 0])], *extra)
            with pytest.raises(DimensionMismatch):
                fn([psi], [w, w], *extra)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_stacked_measurement_matches_one_at_a_time(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(151 + s)
        for n in (1, 2, 3):
            states = [random_state(gf, n, rng) for _ in range(3)]
            words = [PauliWord.x_word(gf, rng.integers(1, gf.q, n)), PauliWord.z_word(gf, rng.integers(1, gf.q, n)),
                     PauliWord.x_word(gf, rng.integers(1, gf.q, n))]
            ts = [TestEigenEquationCheck.mixed_tableau(gf, rng, n, m_x) for m_x in (0, n, n)]
            eigen = [stabiliser_state(t) for t in ts]
            eigen_words = [PauliWord.z_word(gf, ts[0].zrows[0]), PauliWord.x_word(gf, ts[1].xrows[-1]), words[2]]
            assert syndrome_component(eigen, eigen_words) == [
                syndrome_component(psi, w) for psi, w in zip(eigen, eigen_words)
            ]
            probs = born_probabilities(states, words)
            assert probs.shape == (3, gf.q)
            etas = [rng.permutation(gf.q)[:2] for _ in states]
            collapsed = collapse(states, words, etas)
            for psi, w, row, out, want_etas in zip(states, words, probs, collapsed, etas):
                assert row.tobytes() == born_probabilities(psi, w).tobytes()
                for post, eta in zip(out, want_etas):
                    assert post.amps.tobytes() == collapse(psi, w, eta).amps.tobytes()


class TestStabiliserStateMemory:
    def test_largest_x_only_state_stays_small(self):
        """(s, n, m_X) = (1, 14, 14), d = 2^14: the kets double over the rows,
        so the 0.25 MiB state never needs a (2^14, 14, 14) product."""
        gf = make_field(1)
        n = 14
        syn = np.arange(n) % 2
        t = new_tableau(gf, n, np.eye(n, dtype=np.int64), np.zeros((0, n), dtype=np.int64), syn, [])
        tracemalloc.start()
        try:
            psi = stabiliser_state(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        signs = 1 - 2 * (np.bitwise_xor.reduce(all_digits(gf, n) & syn, axis=1))
        assert np.array_equal(psi.amps, signs / np.sqrt(gf.q**n))
        assert peak < 8 << 20


class TestEquality:
    def test_operators(self):
        gf = make_field(1)
        a = DenseOperator(gf, 1, np.eye(2))
        assert a == DenseOperator(gf, 1, np.eye(2))
        assert a == pauli_matrix(PauliWord.identity(gf, 1))  # the form is not compared
        assert a != DenseOperator(gf, 1, np.diag([1, -1]))
        assert a != DenseOperator(make_field(2), 1, np.eye(4)) and a != DenseOperator(gf, 2, np.eye(4))
        assert (a == "eye") is False and a != np.eye(2).tolist()

    def test_states(self):
        gf = make_field(1)
        a = StateVector(gf, 1, [1, 0])
        assert a == StateVector(gf, 1, [1, 0])
        assert a != StateVector(gf, 1, [0, 1])
        assert a != StateVector(make_field(2), 1, [1, 0, 0, 0]) and a != StateVector(gf, 2, [1, 0, 0, 0])
        assert (a == [1, 0]) is False and a != DenseOperator(gf, 1, np.eye(2))


class TestSyndromeComponent:
    def test_zero_state_under_pure_z(self):
        gf = make_field(2)
        psi = StateVector(gf, 2, np.eye(16)[0])
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = PauliWord.z_word(gf, rng.integers(0, 4, 2))
            assert syndrome_component(psi, w) == 0

    def test_shifted_code_state(self):
        # X^a maps syndrome 0 to w . a under Z^w
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [0], [0])
        psi = stabiliser_state(t)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.integers(0, 4, 2)
            shifted = StateVector(gf, 2, pauli_matrix(PauliWord.x_word(gf, a)).mat @ psi.amps)
            w = PauliWord.z_word(gf, [1, 1])
            assert syndrome_component(shifted, w) == gf.matmul(np.array([1, 1]), a)

    def test_uniform_under_pure_x(self):
        gf = make_field(2)
        psi = uniform_state(gf, 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = PauliWord.x_word(gf, rng.integers(0, 4, 2))
            assert syndrome_component(psi, w) == 0

    def test_not_eigenstate(self):
        gf = make_field(1)
        psi = StateVector(gf, 1, np.array([0.8, 0.6]))
        assert syndrome_component(psi, PauliWord.x_word(gf, [1])) is NOT_EIGENSTATE

    def test_pure_type_required(self):
        gf = make_field(2)
        psi = uniform_state(gf, 1)
        with pytest.raises(PureTypeRequired):
            syndrome_component(psi, PauliWord.from_vectors(gf, [1], [1]))

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_per_power_loop(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(107 + s)
        n = 2 if s < 4 else 1
        d = gf.q**n
        for _ in range(6):
            codes = rng.integers(0, gf.q, n)
            P = PauliWord.x_word(gf, codes) if rng.integers(2) else PauliWord.z_word(gf, codes)
            # eigenstates: the collapse of a random state onto each sector
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            states = [StateVector(gf, n, amps / np.linalg.norm(amps))]
            for eta in gf.elements():
                pr = projectors(P)[eta]
                if np.linalg.norm(pr @ amps) > 1e-6:
                    states.append(collapse(states[0], P, eta))
            # perturbations just inside and just outside ATOL
            for psi in list(states[1:]):
                for scale in (0.5, 0.9, 1.1, 2.0):
                    bump = np.zeros(d, dtype=np.complex128)
                    bump[rng.integers(d)] = scale * ATOL
                    states.append(StateVector(gf, n, psi.amps + bump))
            states.append(StateVector(gf, n, np.full(d, ATOL / 4)))  # within ATOL both ways
            for psi in states:
                assert syndrome_component(psi, P) == reference_syndrome_component(psi, P)
        assert syndrome_component(states[-1], P) == 0

    def test_mismatched_system_rejected(self):
        gf = make_field(2)
        with pytest.raises(DimensionMismatch):
            syndrome_component(uniform_state(gf, 2), PauliWord.z_word(gf, [1]))


class TestProjectors:
    @pytest.mark.parametrize("s,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_resolution_of_identity(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(4)
        for _ in range(5):
            codes = rng.integers(0, gf.q, n)
            if not codes.any():
                codes[0] = 1
            P = PauliWord.x_word(gf, codes) if rng.integers(2) else PauliWord.z_word(gf, codes)
            projs = projectors(P)
            total = sum(projs)
            assert np.allclose(total, np.eye(gf.q**n), atol=1e-10)
            for i, pi in enumerate(projs):
                for j, pj in enumerate(projs):
                    expect = pi if i == j else 0
                    assert np.allclose(pi @ pj, expect, atol=1e-10)


    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_scalar_character_sum(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(10 * s + n)
        words = [PauliWord.x_word(gf, [1] * n), PauliWord.z_word(gf, [gf.q - 1] * n)]
        for _ in range(4):
            codes = rng.integers(0, gf.q, n)
            words += [PauliWord.x_word(gf, codes), PauliWord.z_word(gf, codes)]
        for P in words:
            mats = [pauli_matrix(P.power(mu)).mat for mu in gf.elements()]
            for eta, pr in enumerate(projectors(P)):
                ref = np.zeros_like(mats[0])
                for mu, m in enumerate(mats):
                    ref += (1 - 2 * gf.trace(gf.mul(mu, eta))) * m
                ref = ref / gf.q
                assert pr.dtype == ref.dtype and np.array_equal(pr, ref)


class TestMeasureProjective:
    def test_eigenstate_deterministic(self):
        gf = make_field(2)
        t = new_tableau(gf, 2, [[1, 1]], [[1, 1]], [2], [0])
        psi = stabiliser_state(t)
        w = PauliWord.x_word(gf, [1, 1])
        probs = born_probabilities(psi, w)
        assert np.allclose(probs, np.eye(4)[2], atol=1e-10)
        eta, post = measure_projective(psi, w, np.random.default_rng(0))
        assert eta == 2 and states_equal_up_to_phase(post, psi)

    def test_qubit_plus_measurement(self):
        gf = make_field(1)
        psi = StateVector(gf, 1, np.array([1.0, 0.0]))
        probs = born_probabilities(psi, PauliWord.x_word(gf, [1]))
        assert np.allclose(probs, [0.5, 0.5])

    def test_q4_uniform_outcomes_chi_squared(self):
        gf = make_field(2)
        psi = uniform_state(gf, 1)
        w = PauliWord.z_word(gf, [1])
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        for _ in range(2000):
            eta, _ = measure_projective(psi, w, rng)
            counts[eta] += 1
        stat = float(((counts - 500.0) ** 2 / 500.0).sum())
        assert stat < 16.266  # chi-squared 0.999 quantile, df=3

    def test_collapse_checks_eta(self):
        gf = make_field(2)
        psi = uniform_state(gf, 1)
        w = PauliWord.z_word(gf, [1])
        for eta in (-1, gf.q, 2**70):
            with pytest.raises(InvalidFieldCode):
                collapse(psi, w, eta)
            with pytest.raises(InvalidFieldCode):
                collapse([psi, psi], [w, w], [[0, 1], [2, eta]])

    def test_zero_state_rejected(self):
        gf = make_field(2)
        zero = StateVector(gf, 1, np.zeros(4))
        w = PauliWord.x_word(gf, [1])
        with pytest.raises(ValueError, match="zero-norm"):
            born_probabilities(zero, w)
        with pytest.raises(ValueError, match="zero-norm"):
            measure_projective(zero, w, np.random.default_rng(0))

    def test_mismatched_systems_rejected(self):
        gf = make_field(2)
        psi = uniform_state(gf, 2)
        for w in (PauliWord.z_word(gf, [1]), PauliWord.z_word(make_field(1), [1, 1, 1, 1])):
            with pytest.raises(DimensionMismatch):
                born_probabilities(psi, w)
            with pytest.raises(DimensionMismatch):
                collapse(psi, w, 0)

    def test_collapse_is_eigenstate(self):
        gf = make_field(2)
        psi = uniform_state(gf, 2)
        w = PauliWord.z_word(gf, [1, 2])
        for eta in gf.elements():
            post = collapse(psi, w, eta)
            assert syndrome_component(post, w) == eta


def random_state(gf, n, rng):
    d = gf.q**n
    return StateVector(gf, n, rng.normal(size=d) + 1j * rng.normal(size=d)).normalised()


def textbook_sectors(psi, P):
    """Pi_eta psi = q^-1 sum_mu (-1)^tr(mu eta) P^mu psi, one dense P^mu at a time."""
    gf = psi.gf
    moved = [pauli_matrix(P.power(mu)).mat @ psi.amps for mu in gf.elements()]
    return [
        sum((1 - 2 * gf.trace(gf.mul(mu, eta))) * v for mu, v in enumerate(moved)) / gf.q
        for eta in gf.elements()
    ]


class TestSectors:
    @pytest.mark.parametrize("s,n", [(1, 1), (1, 4), (1, 9), (2, 2), (2, 4), (3, 2), (3, 3),
                                     (4, 1), (4, 2)])
    def test_measurement_matches_textbook_sum(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(200 + 10 * s + n)
        for _ in range(2):
            codes = rng.integers(0, gf.q, n)
            psi = random_state(gf, n, rng)
            for P in (PauliWord.x_word(gf, codes), PauliWord.z_word(gf, codes)):
                ref = textbook_sectors(psi, P)
                ref_probs = np.array([np.vdot(v, v).real for v in ref])
                assert np.allclose(born_probabilities(psi, P), ref_probs, rtol=0, atol=1e-12)
                for eta in np.flatnonzero(ref_probs > 1e-12):
                    want = ref[eta] / np.linalg.norm(ref[eta])
                    assert np.allclose(collapse(psi, P, eta).amps, want, rtol=0, atol=1e-12)
                eta, post = measure_projective(psi, P, rng)
                assert ref_probs[eta] > 1e-12
                assert np.allclose(post.amps, ref[eta] / np.linalg.norm(ref[eta]), atol=1e-12)

    @pytest.mark.parametrize("s,n", [(1, 3), (2, 2), (3, 2), (4, 1)])
    def test_sectors_resolve_the_state(self, s, n):
        gf = make_field(s)
        rng = np.random.default_rng(300 + s)
        psi = random_state(gf, n, rng)
        P = PauliWord.z_word(gf, rng.integers(1, gf.q, n))
        (sectors,) = _sectors([P], psi.amps[None])
        assert sectors.shape == (gf.q, psi.dim)
        assert np.allclose(sectors.sum(axis=0), psi.amps, atol=1e-12)
        gram = sectors.conj() @ sectors.T
        assert np.allclose(gram - np.diag(np.diag(gram)), 0, atol=1e-12)

    def test_q64_pair_measures_without_a_matrix_stack(self):
        """d = 4096: a (q, d, d) stack would be 16 GiB; the sectors are 4 MiB."""
        gf = make_field(6)
        rng = np.random.default_rng(64)
        psi = random_state(gf, 2, rng)
        P = PauliWord.x_word(gf, [5, 33])
        tracemalloc.start()
        try:
            probs = born_probabilities(psi, P)
            eta = int(np.argmax(probs))
            post = collapse(psi, P, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert syndrome_component(post, P) == eta
        assert peak < 64 << 20

    def test_oversized_stack_refused_before_it_is_built(self):
        """q = 2^14 on one qudit: q d = 2^28 sector entries (4 GiB) exceed
        SECTOR_CAP, so the Born rule raises TooLarge without allocating."""
        gf = make_field(14)
        amps = np.zeros(gf.q)
        amps[3] = 1
        psi = StateVector(gf, 1, amps)
        P = PauliWord.z_word(gf, [1])
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                born_probabilities(psi, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_oversized_projectors_refused_before_the_identity(self):
        """A Z word at q = 4, n = 7: d = 2^14 passes DIM_CAP, but q d^2 = 2^30
        projector entries exceed SECTOR_CAP, so no 4 GiB identity is built."""
        P = PauliWord.z_word(make_field(2), [1] * 7)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                projectors(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("s,n", [(1, 3), (2, 2), (4, 1), (4, 2)])
    def test_measure_projective_is_born_then_collapse(self, s, n):
        """One sector stack gives the same bytes as the Born rule, a draw
        and a separate collapse."""
        gf = make_field(s)
        rng = np.random.default_rng(400 + 10 * s + n)
        for _ in range(3):
            psi = random_state(gf, n, rng)
            P = PauliWord.x_word(gf, rng.integers(0, gf.q, n))
            seed = int(rng.integers(1 << 30))
            eta, post = measure_projective(psi, P, np.random.default_rng(seed))
            want = int(np.random.default_rng(seed).choice(gf.q, p=born_probabilities(psi, P)))
            assert eta == want
            assert post.amps.tobytes() == collapse(psi, P, eta).amps.tobytes()
