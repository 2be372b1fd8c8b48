"""Classical GRS machinery, MDS weight counts, decoding, and the QRS build."""

import math
import pickle

import numpy as np
import pytest

from gqudits import grs, linalg
from gqudits.errors import (
    DecodeFailure,
    DimensionMismatch,
    GquditError,
    InvalidFieldCode,
    InvalidNesting,
    InvalidSupport,
    WeightBelowDistance,
)
from gqudits.field import make_field
from gqudits.grs import (
    GrsCode,
    decode,
    dual,
    dual_multipliers,
    encode,
    generator_matrix,
    make_qrs,
    mds_weight_count,
    min_weight_codeword,
)


def in_row_space(gf, M, w):
    """w is an F_q combination of the rows of M."""
    return linalg.solve(gf, linalg.as_matrix(M).T, w) is not None


def f4_instance():
    gf = make_field(2)
    return GrsCode(gf, 2, np.array([0, 1, 2]), np.ones(3, dtype=np.int64))


def decode_word(code, received):
    """(codeword, error) of a received word: decode takes its syndrome H . r."""
    received = np.asarray(received, dtype=np.int64)
    err = decode(code, code.gf.matmul(code.parity_check, received))
    return received ^ err, err


def enumerate_codewords(code):
    gf = code.gf
    G = generator_matrix(code)
    words = []
    for idx in range(gf.q**code.k):
        msg = np.array(
            [(idx >> (gf.s * (code.k - 1 - i))) & (gf.q - 1) for i in range(code.k)],
            dtype=np.int64,
        )
        words.append(gf.matmul(G.T, msg))
    return words


class TestGeneratorMatrix:
    def test_k1_all_ones(self):
        gf = make_field(3)
        code = GrsCode(gf, 1, np.arange(5), np.ones(5, dtype=np.int64))
        assert np.array_equal(generator_matrix(code), np.ones((1, 5)))

    def test_f4_rows(self):
        G = generator_matrix(f4_instance())
        assert np.array_equal(G, [[1, 1, 1], [0, 1, 2]])

    def test_rank_is_k(self):
        rng = np.random.default_rng(101)
        for s in (2, 3):
            gf = make_field(s)
            for _ in range(10):
                n = int(rng.integers(2, gf.q + 1))
                k = int(rng.integers(1, n + 1))
                code = GrsCode(
                    gf, k, rng.permutation(gf.q)[:n], rng.integers(1, gf.q, n, dtype=np.int64)
                )
                assert linalg.rank(gf, generator_matrix(code)) == k

    def test_validation(self):
        gf = make_field(2)
        with pytest.raises(InvalidSupport):
            GrsCode(gf, 1, np.array([0, 0]), np.ones(2, dtype=np.int64))
        with pytest.raises(InvalidSupport):
            GrsCode(gf, 1, np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(DimensionMismatch):
            GrsCode(gf, 5, np.array([0, 1]), np.ones(2, dtype=np.int64))


def reference_dual_multipliers(gf, alpha, v):
    """u_i = (v_i * prod_{j != i} (alpha_i - alpha_j))^-1, point by point."""
    out = []
    for i, (a, vi) in enumerate(zip(alpha, v)):
        prod = vi
        for j, b in enumerate(alpha):
            if j != i:
                prod = gf.mul(prod, a ^ b)
        out.append(gf.inv(prod))
    return out


def reference_generator_matrix(gf, k, alpha, v):
    """Row j holds v_i * alpha_i^j, point by point."""
    return [[gf.mul(vi, gf.pow(a, j)) for a, vi in zip(alpha, v)] for j in range(k)]


SETUP_CASES = [
    (s, n) for s in (1, 3, 8, 17, 20) for n in (1, 2, 3, 5, 64, 128) if n <= 1 << s
]


class TestLogDepthSetup:
    """dual_multipliers (a product tree over the differences) and
    generator_matrix (rows filled by doubling) against per-point loops, and
    their ceil(log2) products, in table fields and past the table cap."""

    @staticmethod
    def instance(s, n):
        gf = make_field(s)
        rng = np.random.default_rng(3700 + 7 * s + n)
        alpha = rng.choice(gf.q, n, replace=False).astype(np.int64)
        return gf, alpha, rng.integers(1, gf.q, n, dtype=np.int64)

    @staticmethod
    def count_products(monkeypatch, gf):
        calls = []
        prod = gf._prod
        monkeypatch.setattr(gf, "_prod", lambda a, b: calls.append(1) or prod(a, b))
        return calls

    @pytest.mark.parametrize("s,n", SETUP_CASES)
    def test_dual_multipliers(self, monkeypatch, s, n):
        gf, alpha, v = self.instance(s, n)
        calls = self.count_products(monkeypatch, gf)
        u = dual_multipliers(gf, alpha, v)
        assert len(calls) == math.ceil(math.log2(n))
        assert u.dtype == np.int64 and u.tolist() == reference_dual_multipliers(gf, alpha.tolist(), v.tolist())

    @pytest.mark.parametrize("s,n", SETUP_CASES)
    def test_generator_matrix(self, monkeypatch, s, n):
        gf, alpha, v = self.instance(s, n)
        calls = self.count_products(monkeypatch, gf)
        for k in (0, 1, 2, 3, 7, 8, 9):
            if k <= n:
                calls.clear()
                G = generator_matrix(GrsCode(gf, k, alpha, v))
                assert len(calls) == (math.ceil(math.log2(k)) if k else 0)
                assert G.shape == (k, n) and G.dtype == np.int64
                assert G.tolist() == reference_generator_matrix(gf, k, alpha.tolist(), v.tolist())

    def test_no_points(self):
        gf = make_field(3)
        assert dual_multipliers(gf, [], []).shape == (0,)
        assert generator_matrix(GrsCode(gf, 0, [], [])).shape == (0, 0)

    def test_one_multiplier_per_point(self):
        """The diagonal takes v, so a v of another length is refused, not cycled."""
        gf = make_field(3)
        for alpha, v in (([0, 1, 2], [1, 1]), ([0, 1], [1, 1, 1])):
            with pytest.raises(DimensionMismatch):
                dual_multipliers(gf, alpha, v)


class TestEncode:
    def test_zero_polynomial(self):
        assert not encode(f4_instance(), [0, 0]).any()

    def test_f_equals_x(self):
        # f = x evaluates to alpha itself, multiplied by v = 1
        assert np.array_equal(encode(f4_instance(), [0, 1]), [0, 1, 2])

    def test_injective(self):
        code = f4_instance()
        seen = {tuple(w.tolist()) for w in enumerate_codewords(code)}
        assert len(seen) == 4**2

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            encode(f4_instance(), [1])

    def test_dimension_zero_encodes_the_zero_word(self):
        code = GrsCode(make_field(2), 0, [0, 1, 2], [1, 2, 3])
        word = encode(code, [])
        assert word.dtype == np.int64 and np.array_equal(word, [0, 0, 0])

    def test_linear(self):
        gf = make_field(2)
        code = f4_instance()
        rng = np.random.default_rng(103)
        for _ in range(20):
            f1 = rng.integers(0, 4, 2)
            f2 = rng.integers(0, 4, 2)
            assert np.array_equal(
                encode(code, f1) ^ encode(code, f2), encode(code, f1 ^ f2)
            )


class TestDual:
    def test_double_dual_row_space(self):
        code = f4_instance()
        dd = dual(dual(code))
        gf = code.gf
        ra, _ = linalg.rref(gf, generator_matrix(code))
        rb, _ = linalg.rref(gf, generator_matrix(dd))
        assert np.array_equal(ra, rb)

    def test_f4_orthogonality(self):
        code = f4_instance()
        G = generator_matrix(code)
        Gd = generator_matrix(dual(code))
        assert not np.any(code.gf.matmul(G, Gd.T))

    def test_full_support_q8(self):
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(8), np.ones(8, dtype=np.int64))
        Gd = generator_matrix(dual(code))
        assert Gd.shape == (5, 8)
        assert not np.any(gf.matmul(generator_matrix(code), Gd.T))

    def test_scalar_closure(self):
        gf = make_field(2)
        code = f4_instance()
        words = enumerate_codewords(code)
        word_set = {tuple(w.tolist()) for w in words}
        for w in words:
            for mu in gf.elements():
                assert tuple(gf.mul_arr(w, mu).tolist()) in word_set


class TestWeightEnumerator:
    def test_minimum_weight_count(self):
        for n, k, q in ((3, 2, 4), (7, 3, 8), (8, 5, 8)):
            d = n - k + 1
            assert mds_weight_count(n, k, q, d) == math.comb(n, d) * (q - 1)

    def test_f4_n3_k2_census(self):
        assert mds_weight_count(3, 2, 4, 2) == 9
        assert mds_weight_count(3, 2, 4, 3) == 6
        assert mds_weight_count(3, 2, 4, 2) + mds_weight_count(3, 2, 4, 3) == 4**2 - 1

    @pytest.mark.parametrize("s,n,k", [(2, 3, 2), (3, 7, 3)])
    def test_formula_matches_enumeration(self, s, n, k):
        gf = make_field(s)
        code = GrsCode(gf, k, np.arange(n), np.ones(n, dtype=np.int64))
        hist = np.zeros(n + 1, dtype=np.int64)
        for w in enumerate_codewords(code):
            hist[int((w != 0).sum())] += 1
        d = n - k + 1
        for w in range(1, n + 1):
            expected = mds_weight_count(n, k, gf.q, w) if w >= d else 0
            assert hist[w] == expected

    def test_below_distance_rejected(self):
        with pytest.raises(WeightBelowDistance):
            mds_weight_count(7, 3, 8, 4)

    def test_enumerated_distance_is_mds(self):
        rng = np.random.default_rng(107)
        for s in (2, 3):
            gf = make_field(s)
            for _ in range(5):
                n = int(rng.integers(2, min(gf.q, 6) + 1))
                k = int(rng.integers(1, n + 1))
                code = GrsCode(
                    gf, k, rng.permutation(gf.q)[:n], rng.integers(1, gf.q, n, dtype=np.int64)
                )
                weights = [int((w != 0).sum()) for w in enumerate_codewords(code) if w.any()]
                assert min(weights) == n - k + 1


class TestMinWeightCodeword:
    def test_k1_constant(self):
        gf = make_field(3)
        code = GrsCode(gf, 1, np.arange(5), np.ones(5, dtype=np.int64))
        cw = min_weight_codeword(code, [], 3)
        assert np.array_equal(cw, [3] * 5)

    def test_f4_vanishing_at_zero(self):
        cw = min_weight_codeword(f4_instance(), [0], 1)
        assert cw[0] == 0 and cw[1] != 0 and cw[2] != 0

    def test_census_is_exhaustive(self):
        from itertools import combinations

        gf = make_field(2)
        code = f4_instance()
        words = set()
        for roots in combinations([0, 1, 2], 1):
            for eta in gf.nonzero_elements():
                words.add(tuple(min_weight_codeword(code, roots, eta).tolist()))
        assert len(words) == (gf.q - 1) * math.comb(3, 1) == 9

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_polynomial_reference(self, s):
        """The direct product against encode(eta * prod (x - r)), with the
        product built by the scalar coefficient loop it replaced."""

        def pmul(gf, a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] ^= gf.mul(ca, cb)
            return out

        gf = make_field(s)
        rng = np.random.default_rng(251 + s)
        for _ in range(10):
            n = int(rng.integers(2, gf.q + 1))
            k1 = int(rng.integers(1, n + 1))
            alpha = rng.permutation(gf.q)[:n].astype(np.int64)
            v = rng.integers(1, gf.q, size=n, dtype=np.int64)
            code = GrsCode(gf, k1, alpha, v)
            roots = rng.choice(alpha, size=k1 - 1, replace=False).tolist()
            eta = int(rng.integers(1, gf.q))
            poly = [eta]
            for r in roots:
                poly = pmul(gf, poly, [r, 1])
            want = encode(code, poly)
            assert np.array_equal(min_weight_codeword(code, roots, eta), want)

    def test_invalid_roots(self):
        with pytest.raises(InvalidSupport):
            min_weight_codeword(f4_instance(), [3], 1)
        with pytest.raises(InvalidSupport):
            min_weight_codeword(f4_instance(), [0], 0)


class TestDecode:
    def test_round_trip_no_errors(self):
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(7), np.ones(7, dtype=np.int64))
        rng = np.random.default_rng(109)
        for _ in range(50):
            msg = rng.integers(0, 8, 3)
            cw = encode(code, msg)
            got, err = decode_word(code, cw)
            assert np.array_equal(got, cw) and not err.any()

    def test_corrects_within_radius(self):
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(7), np.ones(7, dtype=np.int64))
        rng = np.random.default_rng(113)
        assert code.radius == 2
        for _ in range(500):
            cw = encode(code, rng.integers(0, 8, 3))
            err = np.zeros(7, dtype=np.int64)
            pos = rng.choice(7, size=2, replace=False)
            err[pos] = rng.integers(1, 8, 2)
            got, got_err = decode_word(code, cw ^ err)
            assert np.array_equal(got, cw) and np.array_equal(got_err, err)

    def test_beyond_radius_never_unsound(self):
        """Weight-3 errors at radius 2: failure or a codeword within radius
        of the received word; no output can claim the true codeword's ball."""
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(7), np.ones(7, dtype=np.int64))
        codewords = {tuple(w.tolist()) for w in enumerate_codewords(code)}
        rng = np.random.default_rng(127)
        failures = 0
        for _ in range(200):
            cw = encode(code, rng.integers(0, 8, 3))
            err = np.zeros(7, dtype=np.int64)
            pos = rng.choice(7, size=3, replace=False)
            err[pos] = rng.integers(1, 8, 3)
            received = cw ^ err
            try:
                got, got_err = decode_word(code, received)
            except DecodeFailure:
                failures += 1
                continue
            assert tuple(got.tolist()) in codewords
            assert np.array_equal(got ^ got_err, received)
            assert int((got_err != 0).sum()) <= code.radius
        assert failures > 0

    def test_nonzero_multipliers_handled(self):
        gf = make_field(3)
        rng = np.random.default_rng(131)
        code = GrsCode(gf, 2, np.arange(6), rng.integers(1, 8, 6, dtype=np.int64))
        cw = encode(code, [3, 5])
        err = np.zeros(6, dtype=np.int64)
        err[4] = 7
        got, got_err = decode_word(code, cw ^ err)
        assert np.array_equal(got, cw) and np.array_equal(got_err, err)

    def test_zero_dimensional_code(self):
        gf = make_field(2)
        code = GrsCode(gf, 0, np.arange(4), np.ones(4, dtype=np.int64))
        cw, err = decode_word(code, np.array([0, 1, 0, 0]))
        assert not cw.any() and err[1] == 1
        with pytest.raises(DecodeFailure):
            decode_word(code, np.array([1, 1, 1, 0]))


def nearest_codewords(words: np.ndarray, received: np.ndarray) -> tuple[int, np.ndarray]:
    """Distance from received to the code and every codeword at that distance."""
    dist = (words != received[None, :]).sum(axis=1)
    best = int(dist.min())
    return best, words[dist == best]


class TestDecodeAgainstBruteForce:
    """The decoder is a bounded-distance decoder: within the radius of some
    codeword it returns that (unique) codeword, and further from the code it
    refuses.  Checked against exhaustive nearest-codeword search with n = q,
    so the evaluation points include 0."""

    def check(self, code, words, received):
        best, nearest = nearest_codewords(words, received)
        if best <= code.radius:
            assert nearest.shape[0] == 1
            got, err = decode_word(code, received)
            assert np.array_equal(got, nearest[0])
            assert np.array_equal(got ^ err, received)
        else:
            with pytest.raises(DecodeFailure):
                decode_word(code, received)

    @pytest.mark.parametrize("k", [1, 2])
    def test_f4_every_received_word(self, k):
        gf = make_field(2)
        code = GrsCode(gf, k, np.arange(4), np.array([1, 3, 2, 1]))
        words = np.array(enumerate_codewords(code))
        for idx in range(gf.q**code.n):
            received = np.array([(idx >> (2 * i)) & 3 for i in range(4)], dtype=np.int64)
            self.check(code, words, received)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_f8_random_words_of_every_weight(self, k):
        gf = make_field(3)
        rng = np.random.default_rng(211 + k)
        code = GrsCode(gf, k, np.arange(8), rng.integers(1, 8, 8, dtype=np.int64))
        words = np.array(enumerate_codewords(code))
        for weight in range(code.n + 1):
            for _ in range(40):
                cw = words[int(rng.integers(len(words)))]
                err = np.zeros(8, dtype=np.int64)
                pos = rng.choice(8, size=weight, replace=False)
                err[pos] = rng.integers(1, 8, weight)
                self.check(code, words, cw ^ err)

    def test_f8_single_errors_at_every_position(self):
        gf = make_field(3)
        code = GrsCode(gf, 4, np.arange(8), np.ones(8, dtype=np.int64))
        cw = encode(code, [5, 0, 3, 1])
        for i in range(code.n):  # i = 0 is the evaluation point alpha = 0
            for value in gf.nonzero_elements():
                err = np.zeros(8, dtype=np.int64)
                err[i] = value
                got, got_err = decode_word(code, cw ^ err)
                assert np.array_equal(got, cw) and np.array_equal(got_err, err)

    def test_f8_error_pairs_through_zero_point(self):
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(8), np.ones(8, dtype=np.int64))
        cw = encode(code, [1, 6, 2])
        for j in range(1, code.n):
            err = np.zeros(8, dtype=np.int64)
            err[[0, j]] = [7, j]
            got, got_err = decode_word(code, cw ^ err)
            assert np.array_equal(got, cw) and np.array_equal(got_err, err)


class TestDecodeEdgeCases:
    def test_full_dimension_code_takes_every_word(self):
        gf = make_field(3)
        rng = np.random.default_rng(223)
        code = GrsCode(gf, 8, np.arange(8), rng.integers(1, 8, 8, dtype=np.int64))
        assert code.radius == 0
        for _ in range(20):
            received = rng.integers(0, 8, 8)
            got, err = decode_word(code, received)
            assert np.array_equal(got, received) and not err.any()

    def test_zero_dimension_code_up_to_the_radius(self):
        gf = make_field(3)
        rng = np.random.default_rng(227)
        code = GrsCode(gf, 0, np.arange(8), rng.integers(1, 8, 8, dtype=np.int64))
        assert code.radius == 4
        for weight in range(code.n + 1):
            received = np.zeros(8, dtype=np.int64)
            pos = rng.choice(8, size=weight, replace=False)
            received[pos] = rng.integers(1, 8, weight)
            if weight <= code.radius:
                got, err = decode_word(code, received)
                assert not got.any() and np.array_equal(err, received)
            else:
                with pytest.raises(DecodeFailure):
                    decode_word(code, received)

    def test_n255_full_radius(self):
        gf = make_field(8)
        code = GrsCode(gf, 127, np.arange(255), np.ones(255, dtype=np.int64))
        assert code.radius == 64
        rng = np.random.default_rng(229)
        cw = encode(code, rng.integers(0, 256, 127))
        err = np.zeros(255, dtype=np.int64)
        pos = np.concatenate([[0], 1 + rng.choice(254, size=63, replace=False)])
        err[pos] = rng.integers(1, 256, 64)
        got, got_err = decode_word(code, cw ^ err)
        assert np.array_equal(got, cw) and np.array_equal(got_err, err)


class TestPowerTable:
    @pytest.mark.parametrize("s,n,k", [(3, 8, 2), (3, 8, 8), (6, 64, 16), (17, 16, 6)])
    def test_powers_of_the_points_up_to_the_radius(self, s, n, k):
        gf = make_field(s)
        rng = np.random.default_rng(301 + s)
        alpha = np.concatenate([[0], 1 + rng.choice(gf.q - 1, size=n - 1, replace=False)])
        code = GrsCode(gf, k, alpha, np.ones(n, dtype=np.int64))
        P = code.powers
        assert P.shape == (n, code.radius + 1) and P.size <= code.parity_check.size // 2 + n
        for m in range(code.radius + 1):  # 0^0 = 1, so the point 0 needs no special row
            assert np.array_equal(P[:, m], [gf.pow(int(a), m) for a in alpha])


class TestDecodeRefusals:
    """DecodeFailure names the stage that refused, the locator length L as
    its weight and the radius; the messages are unchanged."""

    def refusal(self, code, syndrome):
        with pytest.raises(DecodeFailure) as info:
            decode(code, syndrome)
        exc = info.value
        got = str(exc), exc.stage, exc.weight, exc.radius
        copied = pickle.loads(pickle.dumps(exc))
        assert (str(copied), copied.stage, copied.weight, copied.radius) == got
        return got

    def test_locator_longer_than_the_radius(self):
        code = GrsCode(make_field(2), 0, np.arange(4), np.ones(4, dtype=np.int64))
        assert self.refusal(code, [0, 0, 0, 1]) == (
            "error locator length 4 exceeds the radius 2", "radius", 4, 2
        )

    def test_locator_that_does_not_split(self):
        code = GrsCode(make_field(2), 0, np.arange(4), np.ones(4, dtype=np.int64))
        assert self.refusal(code, [0, 1, 0, 0]) == (
            "error locator does not split over the evaluation points", "split", 2, 2
        )

    def test_final_syndrome_check(self, monkeypatch):
        """A locator that splits but does not generate the syndrome reaches
        the final check under the other two stages (Berlekamp-Massey's own
        locators never do: its shortest register fixes the values)."""
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(1, 8), np.ones(7, dtype=np.int64))
        err = np.zeros(7, dtype=np.int64)
        err[[1, 4]] = [3, 5]
        root = int(code.alpha[2])  # sigma(z) = z + root
        monkeypatch.setattr(grs, "_berlekamp_massey", lambda gf, S: (np.array([1, root]), 1))
        assert self.refusal(code, gf.matmul(code.parity_check, err)) == (
            "no error within the radius has this syndrome", "syndrome", 1, 2
        )


class TestDecodeTableFree:
    """decode over F_2^17, a field without exp/log tables, so the kernel
    branch of _prod and the pow branch of _inv run inside it."""

    def test_every_weight_through_the_zero_point(self):
        gf = make_field(17)
        assert gf._exp is None
        rng = np.random.default_rng(307)
        alpha = np.concatenate([[0], 1 + rng.choice(gf.q - 1, size=15, replace=False)])
        code = GrsCode(gf, 6, alpha, rng.integers(1, gf.q, size=16, dtype=np.int64))
        H = code.parity_check
        assert code.radius == 5
        refused = 0
        for weight in range(code.n + 1):
            for trial in range(4):
                err = np.zeros(code.n, dtype=np.int64)
                pos = rng.choice(code.n, size=weight, replace=False)
                if trial < 2 and weight and 0 not in pos:
                    pos[0] = 0  # an error at the point alpha = 0
                err[pos] = rng.integers(1, gf.q, size=weight)
                syndrome = gf.matmul(H, err)
                if weight <= code.radius:
                    assert np.array_equal(decode(code, syndrome), err)
                    continue
                try:
                    got = decode(code, syndrome)
                except DecodeFailure:
                    refused += 1
                    continue
                assert np.array_equal(gf.matmul(H, got), syndrome)
                assert int((got != 0).sum()) <= code.radius
        assert refused > 0


def reference_berlekamp_massey(gf, S):
    """The vectorised register update that the scalar one replaced: every
    step updates all N + 1 - shift entries with one array product."""
    N = S.size
    lam = np.zeros(N + 1, dtype=np.int64)
    lam[0] = 1
    prev = lam.copy()
    L, shift, prev_d = 0, 1, 1
    for j in range(N):
        d = int(S[j] ^ np.bitwise_xor.reduce(gf._prod(lam[1 : L + 1], S[j - L : j][::-1])))
        if d:
            old = lam.copy()
            lam[shift:] ^= gf._prod(prev[: N + 1 - shift], gf.div(d, prev_d))
            if 2 * L <= j:
                L, prev, prev_d, shift = j + 1 - L, old, d, 0
        shift += 1
    return lam[: L + 1], L


def reference_decode(c, syndrome):
    """decode with the vectorised Berlekamp-Massey and the vectorised Forney
    step (a Toeplitz product for Omega, one gather from c.powers for both
    evaluations), and the final check over all n columns."""
    gf = c.gf
    syndrome = np.asarray(syndrome, dtype=np.int64)
    H = c.parity_check
    error = np.zeros(c.n, dtype=np.int64)
    if not syndrome.any():
        return error
    lam, L = reference_berlekamp_massey(gf, syndrome)
    if L > c.radius:
        raise DecodeFailure("radius", stage="radius", weight=L, radius=c.radius)
    pos = np.flatnonzero(np.bitwise_xor.reduce(gf._prod(c.powers[:, L::-1], lam), axis=1) == 0)
    if pos.size != L:
        raise DecodeFailure("split", stage="split", weight=L, radius=c.radius)
    X = c.alpha[pos]
    nz = X != 0
    lags = np.arange(L)[:, None] - np.arange(L + 1)[None, :]
    toeplitz = np.where(lags >= 0, syndrome[np.maximum(lags, 0)], 0)
    omega = np.bitwise_xor.reduce(gf._prod(toeplitz, lam), axis=1)
    deriv = np.where(np.arange(L) % 2, 0, lam[1:])
    num, den = np.bitwise_xor.reduce(
        gf._prod(c.powers[pos[nz], None, L - 1 :: -1], np.stack([omega, deriv])), axis=2
    ).T
    values = np.zeros(L, dtype=np.int64)
    values[nz] = gf._prod(X[nz], gf._prod(num, gf._inv(den)))
    values[~nz] = syndrome[0] ^ np.bitwise_xor.reduce(values)
    error[pos] = gf._prod(values, gf._inv(H[0, pos]))
    if not np.array_equal(gf.matmul(H, error), syndrome):
        raise DecodeFailure("syndrome", stage="syndrome", weight=L, radius=c.radius)
    return error


def outcome(decoder, code, syndrome):
    """The decoded error as a list, or the stage of the refusal."""
    try:
        return decoder(code, syndrome).tolist()
    except DecodeFailure as exc:
        return exc.stage


class TestScalarDecoderAgainstVectorised:
    """The scalar Berlekamp-Massey and Forney step against the vectorised
    ones they replaced, kept above as the reference: the same register
    (Lambda, L), and the same error or the same refusal stage."""

    @pytest.mark.parametrize(
        "s,n,k", [(2, 4, 1), (3, 8, 2), (6, 40, 16), (8, 48, 20), (16, 24, 10), (20, 16, 6)]
    )
    def test_same_register_and_outcome(self, s, n, k):
        gf = make_field(s)
        rng = np.random.default_rng(311 + s)
        alpha = np.concatenate([[0], 1 + rng.choice(gf.q - 1, size=n - 1, replace=False)])
        code = GrsCode(gf, k, alpha, rng.integers(1, gf.q, size=n, dtype=np.int64))
        H = code.parity_check
        syndromes = [rng.integers(0, gf.q, size=n - k) for _ in range(12)]
        for weight in range(min(code.radius + 3, n) + 1):
            for trial in range(6):
                err = np.zeros(n, dtype=np.int64)
                pos = rng.choice(n, size=weight, replace=False)
                if trial % 2 and weight and 0 not in pos:
                    pos[0] = 0  # an error at the point alpha = 0
                err[pos] = rng.integers(1, gf.q, size=weight)
                syndromes.append(gf.matmul(H, err))
        stages = set()
        for S in syndromes:
            lam, L = grs._berlekamp_massey(gf, S.tolist())
            want_lam, want_L = reference_berlekamp_massey(gf, S)
            assert (lam, L) == (want_lam.tolist(), want_L)
            got = outcome(decode, code, S)
            assert got == outcome(reference_decode, code, S)
            stages.add(got if isinstance(got, str) else "decoded")
        assert "decoded" in stages and stages & {"radius", "split"}

    def test_table_free_decodes_finish(self):
        """Over F_2^20 every scalar op runs the kernel on ints and every
        inverse is a power: decodes up to the radius still come back exact."""
        gf = make_field(20)
        assert gf._exp is None
        rng = np.random.default_rng(331)
        alpha = np.concatenate([[0], 1 + rng.choice(gf.q - 1, size=15, replace=False)])
        code = GrsCode(gf, 6, alpha, rng.integers(1, gf.q, size=16, dtype=np.int64))
        for weight in range(code.radius + 1):
            err = np.zeros(code.n, dtype=np.int64)
            pos = rng.choice(code.n, size=weight, replace=False)
            err[pos] = rng.integers(1, gf.q, size=weight)
            assert np.array_equal(decode(code, gf.matmul(code.parity_check, err)), err)


class TestFieldCodes:
    """Out-of-range element codes are refused, not wrapped or indexed."""

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_syndrome_outside_field(self, bad):
        gf = make_field(3)
        code = GrsCode(gf, 3, np.arange(7), np.ones(7, dtype=np.int64))
        syndrome = np.array([1, 2, 3, 4])
        syndrome[2] = bad
        with pytest.raises(InvalidFieldCode):
            decode(code, syndrome)

    @pytest.mark.parametrize("length", [0, 3, 5, 7])
    def test_syndrome_length_is_n_minus_k(self, length):
        code = GrsCode(make_field(3), 3, np.arange(7), np.ones(7, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            decode(code, np.ones(length, dtype=np.int64))

    def test_multiplier_outside_field(self):
        with pytest.raises(InvalidFieldCode):
            GrsCode(make_field(3), 2, np.arange(4), np.array([1, 1, -3, 1]))

    def test_point_outside_field(self):
        with pytest.raises(InvalidFieldCode):
            GrsCode(make_field(3), 2, np.array([0, 1, 9]), np.ones(3, dtype=np.int64))

    def test_error_type_is_package_and_value_error(self):
        assert issubclass(InvalidFieldCode, GquditError)
        assert issubclass(InvalidFieldCode, ValueError)


class TestMakeQrs:
    def test_equal_dimensions_give_k_zero(self):
        gf = make_field(3)
        assert make_qrs(gf, 8, 3, 3).k == 0

    def test_8_3_instance_parameters(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        assert (qrs.k, qrs.d_x_formula, qrs.d_z_formula) == (3, 4, 3)

    def test_nesting_membership(self):
        gf = make_field(3)
        qrs = make_qrs(gf, 8, 2, 5)
        big = GrsCode(gf, 5, qrs.alpha, qrs.v)
        G_big = generator_matrix(big)
        for row in generator_matrix(GrsCode(gf, 2, qrs.alpha, qrs.v)):
            assert in_row_space(gf, G_big, row)

    def test_invalid_nesting(self):
        with pytest.raises(InvalidNesting):
            make_qrs(make_field(3), 8, 5, 2)

    @pytest.mark.parametrize(
        "alpha,v,sizes",
        [([0, 1, 2], [1, 1, 1], (3, 3)), ([0, 1, 2], None, (3, 8)), (None, [1, 1, 1], (8, 3))],
    )
    def test_alpha_and_v_need_n_entries(self, alpha, v, sizes):
        with pytest.raises(DimensionMismatch) as exc:
            make_qrs(make_field(3), 8, 1, 2, alpha, v)
        msg = f"n = 8, but alpha has {sizes[0]} entries and v has {sizes[1]}"
        assert str(exc.value) == msg

    def test_dual_multipliers_match_scalar_products(self):
        gf = make_field(4)
        rng = np.random.default_rng(233)
        for n in (1, 2, 5, 16):
            alpha = rng.permutation(16)[:n]
            v = rng.integers(1, 16, n, dtype=np.int64)
            expected = []
            for i in range(n):
                prod = int(v[i])
                for j in range(n):
                    if j != i:
                        prod = gf.mul(prod, int(alpha[i]) ^ int(alpha[j]))
                expected.append(gf.inv(prod))
            assert dual_multipliers(gf, alpha, v).tolist() == expected

    def test_dual_multipliers_independent_of_k(self):
        gf = make_field(3)
        alpha = np.arange(8)
        v = np.ones(8, dtype=np.int64)
        u = dual_multipliers(gf, alpha, v)
        for k in (1, 3, 6):
            d = dual(GrsCode(gf, k, alpha, v))
            assert np.array_equal(d.v, u) and d.k == 8 - k

    @pytest.mark.parametrize("s", [2, 3, 4, 6, 8])
    def test_decoder_parity_checks_are_the_check_rows(self, s):
        """H of the "Z" decoder is gx and H of the "X" decoder is gz, exactly,
        so a measured F_q syndrome is the decoder's syndrome as it stands."""
        gf = make_field(s)
        rng = np.random.default_rng(263 + s)
        for j in range(8):
            n = int(rng.integers(2, gf.q + 1))
            alpha = rng.permutation(gf.q)[:n].astype(np.int64)
            if j % 2 and 0 not in alpha:
                alpha[rng.integers(n)] = 0
            v = rng.integers(1, gf.q, size=n, dtype=np.int64)
            k1, k2 = sorted(rng.integers(0, n + 1, size=2).tolist())
            if j == 0:
                k1, k2 = 0, n
            qrs = make_qrs(gf, n, k1, k2, alpha, v)
            assert np.array_equal(qrs.decoders["Z"].parity_check, qrs.css.gx)
            assert np.array_equal(qrs.decoders["X"].parity_check, qrs.css.gz)


def decode_outcome(code, syndrome):
    """decode's errors as a list, or its DecodeFailure as its fields."""
    try:
        return decode(code, syndrome).tolist()
    except DecodeFailure as exc:
        return str(exc), exc.stage, exc.weight, exc.radius, exc.shot


class TestDecodeStacks:
    """A (shots, n - k) stack of syndromes against one decode call a row."""

    @pytest.mark.parametrize("s,n,k", [(3, 8, 2), (4, 16, 6), (6, 64, 32), (8, 100, 60)])
    def test_stack_matches_single_rows(self, s, n, k):
        gf = make_field(s)
        rng = np.random.default_rng(353 + s)
        alpha = rng.permutation(gf.q)[:n].astype(np.int64)
        code = GrsCode(gf, k, alpha, rng.integers(1, gf.q, size=n, dtype=np.int64))
        E = np.zeros((3 * (code.radius + 4), n), dtype=np.int64)
        for row, weight in zip(E, rng.permutation(np.repeat(np.arange(code.radius + 4), 3))):
            row[rng.choice(n, size=weight, replace=False)] = rng.integers(1, gf.q, size=weight)
        S = gf.matmul(E, code.parity_check.T)
        singles = [decode_outcome(code, row) for row in S]
        refused = [i for i, got in enumerate(singles) if isinstance(got, tuple)]
        assert refused and all(singles[i][4] == 0 for i in refused)
        assert decode_outcome(code, S) == singles[refused[0]][:4] + (refused[0],)
        kept = [i for i in range(len(S)) if i not in refused]
        assert decode_outcome(code, S[kept]) == [singles[i] for i in kept]
        assert all(singles[i] == E[i].tolist() for i in kept if np.count_nonzero(E[i]) <= code.radius)

    def test_shapes(self):
        code = GrsCode(make_field(3), 3, np.arange(7), np.ones(7, dtype=np.int64))
        assert decode(code, np.zeros(4, dtype=np.int64)).shape == (7,)
        assert decode(code, np.zeros((1, 4), dtype=np.int64)).shape == (1, 7)
        assert decode(code, np.zeros((0, 4), dtype=np.int64)).shape == (0, 7)
        for shape in [(2, 3), (2, 5), (2, 1, 4), ()]:
            with pytest.raises(DimensionMismatch):
                decode(code, np.zeros(shape, dtype=np.int64))

    def test_stack_checks_every_code(self):
        code = GrsCode(make_field(3), 3, np.arange(7), np.ones(7, dtype=np.int64))
        S = np.ones((3, 4), dtype=np.int64)
        S[2, 1] = 8
        with pytest.raises(InvalidFieldCode):
            decode(code, S)


class TestValueEquality:
    """== compares the field, the parameters and the arrays by value."""

    def test_grs_codes(self):
        gf = make_field(3)
        a = GrsCode(gf, 2, [0, 1, 2, 3], [1, 2, 3, 4])
        assert a == GrsCode(gf, 2, np.array([0, 1, 2, 3]), (1, 2, 3, 4))
        assert a != GrsCode(gf, 2, [0, 1, 2, 3], [1, 2, 3, 5])
        assert a != GrsCode(gf, 2, [0, 1, 2, 4], [1, 2, 3, 4])
        assert a != GrsCode(gf, 3, [0, 1, 2, 3], [1, 2, 3, 4])
        assert a != GrsCode(make_field(4), 2, [0, 1, 2, 3], [1, 2, 3, 4])
        assert a != "GRS" and a == a

    def test_qrs_codes(self):
        gf = make_field(3)
        a = make_qrs(gf, 8, 2, 5)
        assert a == make_qrs(gf, 8, 2, 5)
        assert a != make_qrs(gf, 8, 2, 5, v=[1, 1, 1, 1, 1, 1, 1, 2])
        assert a != make_qrs(gf, 8, 2, 5, alpha=[1, 0, 2, 3, 4, 5, 6, 7])
        assert a != make_qrs(gf, 8, 1, 5)
        assert a != grs.QrsCode(gf, 2, 5, a.alpha, a.v, np.r_[2, a.u[1:]], a.css)
