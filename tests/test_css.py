"""CSS code construction, duals, parameters, and logical spaces."""

import numpy as np
import pytest

from gqudits import linalg, oracle
from gqudits.css import CssCode, dual_space, logical_spaces, min_weight_excluding, new_css, params
from gqudits.errors import InvalidDocument, NotCommuting, RankDeficient
from gqudits.field import make_field
from gqudits.grs import make_qrs
from gqudits.pauli import PauliWord


def in_row_space(gf, M, w):
    """w is an F_q combination of the rows of M."""
    return linalg.solve(gf, linalg.as_matrix(M).T, w) is not None


class TestNewCss:
    def test_trivial_code(self):
        gf = make_field(2)
        code = new_css(gf, 3, np.zeros((0, 3)), np.zeros((0, 3)))
        assert code.k == 3

    def test_repetition_style(self):
        gf = make_field(2)
        gx = np.array([[1, 1, 1]])
        gz = dual_space(gf, gx)[:1]  # one Z check orthogonal to the X check
        code = new_css(gf, 3, gx, gz)
        assert code.k == 1

    def test_qrs_inputs_valid(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        assert qrs.css.k == 3

    def test_dependent_rows_rejected(self):
        gf = make_field(2)
        with pytest.raises(RankDeficient):
            new_css(gf, 3, [[1, 1, 0], [2, 2, 0]], np.zeros((0, 3)))

    def test_non_orthogonal_rejected(self):
        gf = make_field(2)
        with pytest.raises(NotCommuting):
            new_css(gf, 2, [[1, 0]], [[1, 1]])

    def test_json_round_trip(self):
        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        again = CssCode.from_json(code.to_json())
        assert np.array_equal(again.gx, code.gx) and np.array_equal(again.gz, code.gz)

    @pytest.mark.parametrize("key", ["modulus", "gx", "gz"])
    def test_json_missing_key_named(self, key):
        data = make_qrs(make_field(3), 8, 2, 5).css.to_json()
        del data[key]
        with pytest.raises(InvalidDocument, match=f"missing key '{key}'"):
            CssCode.from_json(data)
        with pytest.raises(InvalidDocument, match="got str"):
            CssCode.from_json("gx")


class TestDualSpace:
    def test_full_space_dual_is_zero(self):
        gf = make_field(2)
        assert dual_space(gf, np.eye(3, dtype=np.int64)).shape == (0, 3)

    def test_double_dual_spans_row_space(self):
        gf = make_field(3)
        rng = np.random.default_rng(83)
        for _ in range(20):
            M = linalg.random_matrix(gf, rng, 3, 5)
            dd = dual_space(gf, dual_space(gf, M))
            r1, _ = linalg.rref(gf, M)
            r2, _ = linalg.rref(gf, dd)
            assert np.array_equal(r1[: linalg.rank(gf, M)], r2[: linalg.rank(gf, dd)])

    def test_dimension_identity(self):
        gf = make_field(2)
        rng = np.random.default_rng(89)
        for _ in range(20):
            M = linalg.random_matrix(gf, rng, 2, 4)
            assert linalg.rank(gf, M) + dual_space(gf, M).shape[0] == 4

    def test_grs_dual_matches_multiplier_formula(self):
        from gqudits.grs import GrsCode, dual, generator_matrix

        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(8), np.ones(8, dtype=np.int64))
        kernel = dual_space(gf, generator_matrix(code))
        formula = generator_matrix(dual(code))
        ra, _ = linalg.rref(gf, kernel)
        rb, _ = linalg.rref(gf, formula)
        assert np.array_equal(ra[:5], rb[:5])


class TestParams:
    def test_k_zero_distances_not_applicable(self):
        gf = make_field(2)
        code = new_css(gf, 2, [[1, 1]], [[1, 1]])
        p = params(code)
        assert p.k == 0 and p.d_x is None and p.d_z is None and p.distance_status == "exact"

    def test_qrs_8_2_5(self):
        gf = make_field(3)
        p = params(make_qrs(gf, 8, 2, 5).css)
        assert (p.n, p.k, p.d_x, p.d_z, p.d) == (8, 3, 4, 3, 3)
        assert p.distance_status == "exact"

    @pytest.mark.parametrize("n,k1,k2", [(6, 1, 3), (7, 2, 4), (5, 1, 4)])
    def test_enumerated_distance_matches_formula(self, n, k1, k2):
        gf = make_field(3)
        qrs = make_qrs(gf, n, k1, k2)
        p = params(qrs.css)
        assert p.d_x == qrs.d_x_formula == n - k2 + 1
        assert p.d_z == qrs.d_z_formula == k1 + 1

    def test_budget_exhausted_reports_not_computed(self):
        gf = make_field(3)
        p = params(make_qrs(gf, 8, 2, 5).css, distance_budget=64)
        assert p.distance_status == "not-computed" and p.d is None

    def test_min_weight_excluding_empty_difference(self):
        gf = make_field(2)
        M = np.array([[1, 0], [0, 1]])
        assert min_weight_excluding(gf, M, M, 1 << 10) is None


class TestLogicalSpaces:
    def test_k_zero_empty(self):
        gf = make_field(2)
        code = new_css(gf, 2, [[1, 1]], [[1, 1]])
        z, x = logical_spaces(code)
        assert z.shape == (0, 2) and x.shape == (0, 2)

    def test_symplectic_pairing_nondegenerate(self):
        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        z, x = logical_spaces(code)
        assert z.shape == (3, 8) and x.shape == (3, 8)
        pairing = gf.matmul(z, x.T)
        assert linalg.rank(gf, pairing) == 3

    def test_qrs_z_logicals_have_weight_at_least_dz(self):
        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        z, _ = logical_spaces(code)
        for row in z:
            assert int((row != 0).sum()) >= 3

    def test_representatives_are_logical(self):
        gf = make_field(3)
        code = make_qrs(gf, 8, 2, 5).css
        z, x = logical_spaces(code)
        for row in z:  # in L_X^perp but outside L_Z
            assert not np.any(gf.matvec(code.gx, row))
            assert not in_row_space(gf, code.gz, row)
        for row in x:
            assert not np.any(gf.matvec(code.gz, row))
            assert not in_row_space(gf, code.gx, row)


class TestOracleDimension:
    @pytest.mark.parametrize("s,n", [(1, 3), (2, 2)])
    def test_k_matches_codespace_dimension(self, s, n):
        """Trace of the product of syndrome-0 projectors equals q^k."""
        gf = make_field(s)
        rng = np.random.default_rng(97)
        for _ in range(10):
            m_x = int(rng.integers(0, n + 1))
            gx = linalg.random_full_rank(gf, rng, m_x, n) if m_x else np.zeros((0, n), dtype=np.int64)
            K = linalg.kernel_basis(gf, gx)
            m_z = int(rng.integers(0, K.shape[0] + 1))
            gz = K[:m_z] if m_z else np.zeros((0, n), dtype=np.int64)
            code = new_css(gf, n, gx, gz)
            proj = np.eye(gf.q**n, dtype=np.complex128)
            for row in code.gx:
                proj = proj @ oracle.projectors(PauliWord.x_word(gf, row))[0]
            for row in code.gz:
                proj = proj @ oracle.projectors(PauliWord.z_word(gf, row))[0]
            dim = round(float(np.trace(proj).real))
            assert dim == gf.q**code.k
