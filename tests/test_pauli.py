"""Pauli word algebra, cross-checked against the dense oracle."""

import numpy as np
import pytest

from gqudits import grs
from gqudits.errors import DimensionMismatch, InvalidFieldCode, PureTypeRequired
from gqudits.field import make_field
from gqudits.oracle import pauli_matrix
from gqudits.pauli import PauliWord


class TestMultiply:
    def test_identity(self):
        gf = make_field(2)
        I = PauliWord.identity(gf, 2)
        P = PauliWord.from_vectors(gf, [1, 2], [3, 0])
        assert I * P == P and P * I == P

    def test_commutation_sign_q8(self):
        gf = make_field(3)
        for beta in gf.nonzero_elements():
            for gamma in gf.nonzero_elements():
                X = PauliWord.x_word(gf, [beta])
                Z = PauliWord.z_word(gf, [gamma])
                forward = X * Z
                backward = Z * X
                assert forward.xvec == backward.xvec and forward.zvec == backward.zvec
                expected = -1 if gf.trace(gf.mul(beta, gamma)) else 1
                assert backward.sign == expected * forward.sign

    def test_pure_square_is_identity(self):
        gf = make_field(3)
        P = PauliWord.x_word(gf, [5, 3])
        sq = P * P
        assert sq == PauliWord.identity(gf, 2)

    def test_shape_mismatch(self):
        gf = make_field(2)
        with pytest.raises(DimensionMismatch):
            PauliWord.identity(gf, 1).multiply(PauliWord.identity(gf, 2))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_sign_matches_dense_product_single_qudit(self, s):
        gf = make_field(s)
        words = [
            PauliWord.from_vectors(gf, [x], [z]) for x in gf.elements() for z in gf.elements()
        ]
        mats = {w: pauli_matrix(w).mat for w in words}
        for a in words:
            for b in words:
                prod = a * b
                assert np.allclose(mats[a] @ mats[b], pauli_matrix(prod).mat, atol=1e-12)

    def test_sign_matches_dense_product_two_qudits(self):
        gf = make_field(2)
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = PauliWord.from_vectors(gf, rng.integers(0, 4, 2), rng.integers(0, 4, 2))
            b = PauliWord.from_vectors(gf, rng.integers(0, 4, 2), rng.integers(0, 4, 2))
            assert np.allclose(
                pauli_matrix(a).mat @ pauli_matrix(b).mat, pauli_matrix(a * b).mat, atol=1e-12
            )

    def test_associativity(self):
        gf = make_field(3)
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b, c = (
                PauliWord.from_vectors(gf, rng.integers(0, 8, 2), rng.integers(0, 8, 2))
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)


class TestCommutes:
    def test_pure_x_words_commute(self):
        gf = make_field(3)
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = PauliWord.x_word(gf, rng.integers(0, 8, 3))
            b = PauliWord.x_word(gf, rng.integers(0, 8, 3))
            assert a.commutes(b)

    def test_qubit_x_z_anticommute(self):
        gf = make_field(1)
        assert not PauliWord.x_word(gf, [1]).commutes(PauliWord.z_word(gf, [1]))

    def test_cat_tableau_rows_commute(self):
        gf = make_field(3)
        g = [3, 5, 6, 7]
        xrow = PauliWord.x_word(gf, g)
        zrows = [
            PauliWord.z_word(gf, [g[1], g[0], 0, 0]),
            PauliWord.z_word(gf, [0, g[2], g[1], 0]),
            PauliWord.z_word(gf, [0, 0, g[3], g[2]]),
        ]
        for z in zrows:
            assert xrow.commutes(z)

    def test_agrees_with_matrix_commutator(self):
        rng = np.random.default_rng(23)
        for s in (1, 2, 3):
            gf = make_field(s)
            for _ in range(40):
                a = PauliWord.from_vectors(gf, [rng.integers(0, gf.q)], [rng.integers(0, gf.q)])
                b = PauliWord.from_vectors(gf, [rng.integers(0, gf.q)], [rng.integers(0, gf.q)])
                A, B = pauli_matrix(a).mat, pauli_matrix(b).mat
                comm_norm = np.linalg.norm(A @ B - B @ A)
                assert a.commutes(b) == (comm_norm < 1e-12)


class TestPower:
    def test_unit_and_zero(self):
        gf = make_field(3)
        P = PauliWord.z_word(gf, [3, 1])
        assert P.power(1) == P
        assert P.power(0) == PauliWord.identity(gf, 2)

    def test_q8_scaling(self):
        gf = make_field(3)
        P = PauliWord.x_word(gf, [3, 5])
        mu = 6
        assert P.power(mu).xvec == (gf.mul(6, 3), gf.mul(6, 5))

    def test_mixed_type_rejected(self):
        gf = make_field(2)
        with pytest.raises(PureTypeRequired):
            PauliWord.from_vectors(gf, [1], [1]).power(2)

    def test_power_is_multiplicative(self):
        gf = make_field(2)
        P = PauliWord.z_word(gf, [2, 1])
        for m1 in gf.elements():
            for m2 in gf.elements():
                assert P.power(m1) * P.power(m2) == P.power(m1 ^ m2)


class TestWeight:
    def test_identity(self):
        assert PauliWord.identity(make_field(2), 4).weight() == 0

    def test_count_nonzero_sites(self):
        assert PauliWord.x_word(make_field(2), [1, 0, 1]).weight() == 2

    def test_min_weight_grs_codeword(self):
        gf = make_field(3)
        code = grs.GrsCode(gf, 3, np.arange(7), np.ones(7, dtype=np.int64))
        cw = grs.min_weight_codeword(code, [0, 1], 1)
        P = PauliWord.x_word(gf, cw)
        assert P.weight() == code.n - code.k + 1


class TestText:
    def test_round_trip(self):
        gf = make_field(2)
        P = PauliWord.from_vectors(gf, [1, 0], [0, 3], sign=-1)
        assert P.to_text() == "-|x:[1,0]|z:[0,3]"
        assert PauliWord.from_text(gf, P.to_text()) == P

    def test_bad_text(self):
        with pytest.raises(ValueError):
            PauliWord.from_text(make_field(2), "x:[1]")


class TestIntegerCodes:
    def test_float_codes_refused(self):
        gf = make_field(3)
        for build in (lambda: PauliWord.x_word(gf, [1.5, 2.9]), lambda: PauliWord.z_word(gf, [1.0]),
                      lambda: PauliWord.from_vectors(gf, [1], [0.5]), lambda: PauliWord(gf, (1.5,), (0,)),
                      lambda: PauliWord.x_word(gf, ["1"])):
            with pytest.raises(InvalidFieldCode):
                build()

    def test_integer_codes_kept(self):
        gf = make_field(3)
        word = PauliWord.x_word(gf, np.array([1, 2], dtype=np.uint8))
        assert word.xvec == (1, 2) and all(type(c) is int for c in word.xvec)
        assert PauliWord.z_word(gf, []).n == 0
        with pytest.raises(DimensionMismatch):
            PauliWord.x_word(gf, [[1, 2]])
