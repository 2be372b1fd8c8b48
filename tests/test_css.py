"""CSS code construction, duals, parameters, and logical spaces."""

import numpy as np
import pytest

from gqudits import linalg, oracle
from gqudits.css import CssCode, dual_space, logical_spaces, min_weight_excluding, new_css, params
from gqudits.errors import InvalidDocument, NotCommuting, RankDeficient
from gqudits.field import make_field
from gqudits.grs import make_qrs
from gqudits.pauli import PauliWord
from gqudits.q2b import convert_code


def in_row_space(gf, M, w):
    """w is an F_q combination of the rows of M."""
    return linalg.solve(gf, linalg.as_matrix(M).T, w) is not None


def chunked_min_weight_excluding(gf, span_basis, exclude, budget):
    """The former enumerator, kept as the reference: one F_q matmul per
    2^14 messages, then one mul_arr pass per pivot of rref(exclude) to
    reduce each word modulo span(exclude)."""
    span_basis = linalg.as_matrix(span_basis)
    exclude = linalg.as_matrix(exclude, span_basis.shape[1])
    dim = span_basis.shape[0]
    total = gf.q**dim
    if total > budget:
        return None
    rx, pivots = linalg.rref(gf, exclude)
    shifts = np.array([gf.s * (dim - 1 - i) for i in range(dim)], dtype=np.int64)
    best = None
    for start in range(0, total, 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), total), dtype=np.int64)
        msgs = (idx[:, None] >> shifts[None, :]) & (gf.q - 1)
        words = gf.matmul(msgs, span_basis)
        res = words.copy()
        for j, c in enumerate(pivots):
            f = res[:, c].copy()
            nz = f != 0
            if np.any(nz):
                res[nz] ^= gf.mul_arr(f[nz, None], rx[j][None, :])
        keep = res.any(axis=1) & (idx != 0)
        if np.any(keep):
            w = int((words[keep] != 0).sum(axis=1).min())
            best = w if best is None else min(best, w)
    return best


def random_span_case(gf, rng):
    """(span rows, exclude rows, kind): at most 2^12 span words, with
    dependent rows whenever dim exceeds the rank; exclude empty, inside the
    span, partly outside it, or the span itself."""
    n = int(rng.integers(1, 7))
    dim = int(rng.integers(0, 12 // gf.s + 1))
    r = int(rng.integers(0, min(dim, n) + 1))
    base = linalg.random_matrix(gf, rng, r, n)
    mix = linalg.random_matrix(gf, rng, dim - r, r)
    span = np.vstack([base, gf.matmul(mix, base)]) if r else np.zeros((dim, n), dtype=np.int64)
    span = span[rng.permutation(dim)]
    kind = ["empty", "inside", "partly-outside", "span"][int(rng.integers(0, 4))]
    if kind == "empty":
        exclude = np.zeros((0, n), dtype=np.int64)
    elif kind == "span":
        exclude = span
    else:
        m = int(rng.integers(1, dim + 2))
        exclude = gf.matmul(linalg.random_matrix(gf, rng, m, dim), span)
        if kind == "partly-outside":
            exclude = np.vstack([exclude, linalg.random_matrix(gf, rng, 1, n)])
    return span, exclude, kind


class TestNewCss:
    def test_trivial_code(self):
        gf = make_field(2)
        code = new_css(gf, 3, np.zeros((0, 3)), np.zeros((0, 3)))
        assert code.k == 3

    @pytest.mark.parametrize("x_empty", [True, False])
    def test_one_empty_block(self, x_empty):
        gf = make_field(2)
        rows, empty = [[1, 2, 3], [0, 1, 1]], np.zeros((0, 3))
        code = new_css(gf, 3, empty, rows) if x_empty else new_css(gf, 3, rows, empty)
        assert code.k == 1 and (code.m_x, code.m_z) == ((0, 2) if x_empty else (2, 0))

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

    def test_json_q_must_match_the_modulus(self):
        data = make_qrs(make_field(3), 8, 2, 5).css.to_json()
        data["q"] = 16
        with pytest.raises(InvalidDocument, match="key 'q' is 16, but modulus 11 gives q = 8"):
            CssCode.from_json(data)
        data["q"] = "8"
        with pytest.raises(InvalidDocument, match="key 'q' must be an integer"):
            CssCode.from_json(data)
        del data["q"]
        assert CssCode.from_json(data).gf == make_field(3)


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


class TestMinWeightDifferential:
    """The XOR-doubling enumerator against the chunked F_q enumerator."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_random_cases(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(1000 + s)
        kinds = set()
        for _ in range(80):
            span, exclude, kind = random_span_case(gf, rng)
            kinds.add(kind)
            got = min_weight_excluding(gf, span, exclude, 1 << 20)
            assert got == chunked_min_weight_excluding(gf, span, exclude, 1 << 20)
            if kind == "span" or span.shape[0] == 0:
                assert got is None
        assert kinds == {"empty", "inside", "partly-outside", "span"}

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_budget_edge(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(2000 + s)
        for dim in range(1, 12 // s + 1):
            span = linalg.random_matrix(gf, rng, dim, 5)
            exclude = gf.matmul(linalg.random_matrix(gf, rng, 1, dim), span)
            got = min_weight_excluding(gf, span, exclude, gf.q**dim)
            assert got == chunked_min_weight_excluding(gf, span, exclude, gf.q**dim)
            assert min_weight_excluding(gf, span, exclude, gf.q**dim - 1) is None

    def test_budget_refused_before_tables(self):
        gf = make_field(4)
        span = np.eye(40, dtype=np.int64)  # 2^160 words: any table would not fit
        assert min_weight_excluding(gf, span, span[:1], 1 << 20) is None

    @pytest.mark.parametrize("s,dim,seed", [(1, 16, 0), (2, 8, 1), (4, 4, 2), (3, 5, 3)])
    def test_high_generators(self, s, dim, seed):
        """More than 14 F_2 generators, so the Gray-code walk runs."""
        gf = make_field(s)
        rng = np.random.default_rng(3000 + seed)
        span = linalg.random_matrix(gf, rng, dim, 8)
        for exclude in (span[:1], span[: 14 // s], np.zeros((0, 8), dtype=np.int64)):
            got = min_weight_excluding(gf, span, exclude, 1 << 20)
            assert got == chunked_min_weight_excluding(gf, span, exclude, 1 << 20)

    def test_minimum_only_in_high_generators(self):
        """Over F_2 with 16 rows and exclude = the first 14, the only weight-1
        word outside span(exclude) is the sum of the last two rows, so the
        walk must reach the combination of both high generators."""
        gf = make_field(1)
        rng = np.random.default_rng(3100)
        span = np.zeros((16, 18), dtype=np.int64)
        span[:14, :14] = linalg.random_matrix(gf, rng, 14, 14)
        span[14, 14:] = 1  # weight 4
        span[15, 14:17] = 1  # weight 3; span[14] ^ span[15] = e_17
        got = min_weight_excluding(gf, span, span[:14], 1 << 20)
        assert got == chunked_min_weight_excluding(gf, span, span[:14], 1 << 20) == 1

    def test_converted_qrs_qubit_params(self):
        gf = make_field(3)
        qubit = convert_code(make_qrs(gf, 8, 2, 5).css)
        p = qubit.params()
        code = qubit.as_binary_css()
        gf2 = code.gf
        d_x = chunked_min_weight_excluding(gf2, dual_space(gf2, code.gz), code.gx, 1 << 20)
        d_z = chunked_min_weight_excluding(gf2, dual_space(gf2, code.gx), code.gz, 1 << 20)
        assert (p.d_x, p.d_z, p.d, p.distance_status) == (d_x, d_z, min(d_x, d_z), "exact")


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


    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_greedy_rank_reference(self, s):
        """One rref against the row-by-row rank loop it replaced."""

        def extend(gf, stab, ambient):
            reps, current = [], stab
            for v in ambient:
                cand = np.vstack([current, v[None, :]])
                if linalg.rank(gf, cand) > linalg.rank(gf, current):
                    reps.append(v)
                    current = cand
            return np.array(reps, dtype=np.int64).reshape(len(reps), stab.shape[1])

        gf = make_field(s)
        rng = np.random.default_rng(257 + s)
        for _ in range(5):
            n = int(rng.integers(2, min(gf.q, 10) + 1))
            k1, k2 = sorted(int(k) for k in rng.integers(0, n + 1, 2))
            code = make_qrs(gf, n, k1, k2, rng.permutation(gf.q)[:n].astype(np.int64)).css
            z, x = logical_spaces(code)
            assert np.array_equal(z, extend(gf, code.gz, dual_space(gf, code.gx)))
            assert np.array_equal(x, extend(gf, code.gx, dual_space(gf, code.gz)))


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
