"""Dense elimination: the packed F_2 path and the rank-1 F_q path against
the generic loops."""

import numpy as np
import pytest

from gqudits import linalg
from gqudits.errors import InvalidFieldCode
from gqudits.field import make_field

GF2 = make_field(1)
GF4 = make_field(2)  # F_2 is the subfield {0, 1} of F_4


def random_bits(rng, m, n, density=None):
    p = rng.random() if density is None else density
    return (rng.random((m, n)) < p).astype(np.int64)


def shapes(rng):
    """(m, n, carried columns) covering empty, tall, wide and square cases."""
    yield from [(0, 0, 0), (0, 5, 2), (3, 0, 0), (1, 1, 1), (4, 4, 0)]
    for _ in range(60):
        m, n = (int(x) for x in rng.integers(1, 40, 2))
        yield m, n, int(rng.integers(0, 12))
    yield 30, 3, 4  # tall
    yield 3, 70, 5  # wide, one byte boundary crossed many times
    yield 9, 64, 0  # exactly eight packed bytes
    yield 9, 63, 1


def loop_rref_augmented(gf, M, C):
    """The row-at-a-time F_q elimination: one scale and one update per row."""
    R = linalg.as_matrix(M).copy()
    A = linalg.as_matrix(C).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
            A[[r, p]] = A[[p, r]]
        inv = gf.inv(int(R[r, c]))
        if inv != 1:
            R[r] = gf.mul_arr(R[r], inv)
            A[r] = gf.mul_arr(A[r], inv)
        for i in range(rows):
            f = int(R[i, c])
            if i != r and f:
                R[i] ^= gf.mul_arr(R[r], f)
                A[i] ^= gf.mul_arr(A[r], f)
        pivots.append(c)
        r += 1
    return R, A, pivots


def scale_then_clear_rref_augmented(gf, M, C):
    """The F_q pivot that the fused one replaced: scale the pivot row by a
    checked product, then clear column c by a second one."""
    W = np.concatenate([linalg.as_matrix(M), linalg.as_matrix(C, 0)], axis=1)
    rows, cols = linalg.as_matrix(M).shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.flatnonzero(W[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            W[[r, p]] = W[[p, r]]
        inv = gf.inv(int(W[r, c]))
        if inv != 1:
            W[r] = gf.mul_arr(W[r], inv)
        f = W[:, c].copy()
        f[r] = 0
        if f.any():
            W ^= gf.mul_arr(f[:, None], W[r])
        pivots.append(c)
        r += 1
    return W[:, :cols], W[:, cols:], pivots


class TestFusedPivot:
    def test_matches_scale_then_clear(self):
        """2,000 random cases over F_2 .. F_256, rank-deficient inputs and
        carried columns included."""
        rng = np.random.default_rng(419)
        for trial in range(2000):
            gf = make_field(1 + trial % 8)
            m, n = (int(x) for x in rng.integers(1, 10, 2))
            M = rng.integers(0, gf.q, (m, n), dtype=np.int64)
            M[rng.random((m, n)) < rng.random()] = 0
            if m > 2 and trial % 3:
                M[-1] = M[0] ^ gf.mul_arr(M[1], int(rng.integers(0, gf.q)))
            C = rng.integers(0, gf.q, (m, int(rng.integers(0, 4))), dtype=np.int64)
            got = linalg.rref_augmented(gf, M, C)
            want = scale_then_clear_rref_augmented(gf, M, C)
            assert got[2] == want[2]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_past_the_table_cap(self):
        """Over F_2^17 the fused pivot runs the kernel, not the tables."""
        gf = make_field(17)
        assert gf._exp is None
        rng = np.random.default_rng(421)
        for _ in range(20):
            M = rng.integers(0, gf.q, (4, 5), dtype=np.int64)
            M[3] = M[0] ^ gf.mul_arr(M[1], int(rng.integers(1, gf.q)))
            C = rng.integers(0, gf.q, (4, 2), dtype=np.int64)
            got = linalg.rref_augmented(gf, M, C)
            want = scale_then_clear_rref_augmented(gf, M, C)
            assert got[2] == want[2] and len(got[2]) == 3
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestPackedF2AgainstGeneric:
    def test_rref_augmented_identical(self):
        rng = np.random.default_rng(401)
        for m, n, k in shapes(rng):
            M = random_bits(rng, m, n)
            if m > 2:  # make some inputs rank deficient
                M[-1] = M[0] ^ M[1]
            C = random_bits(rng, m, k, 0.5)
            R2, X2, p2 = linalg.rref_augmented(GF2, M, C)
            R4, X4, p4 = linalg.rref_augmented(GF4, M, C)
            assert p2 == p4
            assert np.array_equal(R2, R4) and np.array_equal(X2, X4)
            assert R2.dtype == X2.dtype == np.int64

    def test_identity_carried_gives_transform(self):
        """[R | E] = rref([M | I]) satisfies E @ M = R over F_2."""
        rng = np.random.default_rng(403)
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(1, 25, 2))
            M = random_bits(rng, m, n)
            R, E, pivots = linalg.rref_augmented(GF2, M, np.eye(m, dtype=np.int64))
            assert np.array_equal(E @ M % 2, R)
            assert len(pivots) == linalg.rank(GF4, M)

    def test_vector_carried_column(self):
        M = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        b = np.array([1, 0, 1])
        _, carried, pivots = linalg.rref_augmented(GF2, M, b)
        assert carried.shape == (3, 1) and pivots == [0, 1]

    def test_kernel_and_solve(self):
        rng = np.random.default_rng(405)
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(1, 30, 2))
            M = random_bits(rng, m, n)
            K = linalg.kernel_basis(GF2, M)
            assert K.shape == (n - linalg.rank(GF2, M), n)
            assert not np.any(M @ K.T % 2)
            x = rng.integers(0, 2, n)
            sol = linalg.solve(GF2, M, M @ x % 2)
            assert sol is not None and np.array_equal(M @ sol % 2, M @ x % 2)


class TestRankOneFqAgainstLoop:
    def test_rref_augmented_identical(self):
        """600 random matrices over F_4 .. F_256, dependent rows included."""
        rng = np.random.default_rng(409)
        for trial in range(600):
            gf = make_field(int(rng.integers(2, 9)))
            m, n = (int(x) for x in rng.integers(1, 12, 2))
            k = int(rng.integers(0, 4))
            M = rng.integers(0, gf.q, (m, n), dtype=np.int64)
            M[rng.random((m, n)) < rng.random()] = 0  # some sparse columns
            if m > 2 and trial % 2:
                M[-1] = M[0] ^ gf.mul_arr(M[1], int(rng.integers(1, gf.q)))
            C = rng.integers(0, gf.q, (m, k), dtype=np.int64)
            R, X, pivots = linalg.rref_augmented(gf, M, C)
            R0, X0, pivots0 = loop_rref_augmented(gf, M, C)
            assert pivots == pivots0
            assert np.array_equal(R, R0) and np.array_equal(X, X0)
            assert R.dtype == X.dtype == np.int64
            assert X.shape == (m, k)

    def test_empty_and_one_row(self):
        gf = make_field(3)
        for M, C in (
            ([[0, 0, 0]], [[5]]),
            ([[0, 3, 6]], [[1, 2]]),
            (np.zeros((0, 4)), np.zeros((0, 1))),
        ):
            R, X, pivots = linalg.rref_augmented(gf, M, C)
            R0, X0, pivots0 = loop_rref_augmented(gf, M, C)
            assert pivots == pivots0
            assert np.array_equal(R, R0) and np.array_equal(X, X0)


class TestCodeValidation:
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_f2_rank_rejects_non_bits(self, bad):
        with pytest.raises(InvalidFieldCode):
            linalg.rank(GF2, [[bad, 0], [0, 1]])

    def test_fq_rank_rejects_out_of_range(self):
        with pytest.raises(InvalidFieldCode):
            linalg.rank(make_field(3), [[8, 1], [0, 1]])

    def test_carried_columns_checked(self):
        with pytest.raises(InvalidFieldCode):
            linalg.rref_augmented(GF2, [[1, 0]], [[3]])


class TestPivotFillAgainstLoop:
    """kernel_basis and solve against their per-pivot fill loops."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_kernel_basis_and_solve(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(263 + s)
        for m, n, _ in shapes(rng):
            M = rng.integers(0, gf.q, size=(m, n))
            R, pivots = linalg.rref(gf, M)
            free = [c for c in range(n) if c not in pivots]
            K = np.zeros((len(free), n), dtype=np.int64)
            for i, f in enumerate(free):
                K[i, f] = 1
                for j, p in enumerate(pivots):
                    K[i, p] = R[j, f]
            assert np.array_equal(linalg.kernel_basis(gf, M), K)

            b = gf.matmul(M, rng.integers(0, gf.q, size=n)) if m else np.zeros(0, dtype=np.int64)
            _, carried, _ = linalg.rref_augmented(gf, M, b)
            x = np.zeros(n, dtype=np.int64)
            for j, p in enumerate(pivots):
                x[p] = carried[j, 0]
            assert np.array_equal(linalg.solve(gf, M, b), x)


class TestEmptyShapes:
    @pytest.mark.parametrize(
        "M,ncols,shape",
        [
            (np.zeros((4, 0)), None, (4, 0)),
            (np.zeros((4, 0)), 3, (4, 0)),
            (np.zeros((0, 5)), None, (0, 5)),
            (np.zeros((0, 0)), 3, (0, 3)),
            ([], None, (0, 0)),
            ([], 3, (0, 3)),
        ],
    )
    def test_as_matrix_keeps_rows(self, M, ncols, shape):
        assert linalg.as_matrix(M, ncols).shape == shape

    @pytest.mark.parametrize("s", [1, 2])
    def test_rref_of_zero_columns_carries_every_row(self, s):
        gf = make_field(s)
        C = np.arange(8).reshape(4, 2) % gf.q
        R, A, pivots = linalg.rref_augmented(gf, np.zeros((4, 0), dtype=np.int64), C)
        assert R.shape == (4, 0) and pivots == []
        assert np.array_equal(A, C)
