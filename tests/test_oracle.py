"""Dense statevector oracle: matrices, stabiliser states, measurement."""

import numpy as np
import pytest

from gqudits import linalg
from gqudits.errors import FullTableauRequired, PureTypeRequired, TooLarge
from gqudits.field import make_field
from gqudits.oracle import (
    NOT_EIGENSTATE,
    StateVector,
    _pauli_action,
    _trace_dot_with,
    _verify_eigen_equations,
    all_digits,
    index_of,
    born_probabilities,
    collapse,
    measure_projective,
    pauli_matrix,
    power_matrices,
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
        gf = make_field(s)
        rng = np.random.default_rng(67 + s)
        for n in (1, 2, 3):
            digits = all_digits(gf, n)
            for _ in range(4):
                codes = rng.integers(0, gf.q, n)
                got = _trace_dot_with(gf, codes, digits)
                assert np.array_equal(got, reference_trace_dot_with(gf, codes, digits))


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
                targets, phases = _pauli_action(P)
                want = sign * (1 - 2 * _trace_dot_with(gf, P.z_array, all_digits(gf, 2)))
                assert phases.dtype == want.dtype and np.array_equal(phases, want)
                assert np.array_equal(targets, np.arange(gf.q**2) ^ index_of(gf, P.x_array))


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
            assert syndrome_component(shifted, w) == gf.dot(np.array([1, 1]), a)

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
            mats = power_matrices(P)
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

    def test_collapse_is_eigenstate(self):
        gf = make_field(2)
        psi = uniform_state(gf, 2)
        w = PauliWord.z_word(gf, [1, 2])
        for eta in gf.elements():
            post = collapse(psi, w, eta)
            assert syndrome_component(post, w) == eta
