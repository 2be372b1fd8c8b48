"""Dense linear algebra over F_q on small integer-code matrices.

Everything here is Gaussian elimination at desk scale.  Over F_q (q > 2)
each pivot costs one factor column and one broadcast rank-1 update of the
whole augmented matrix, which also scales the pivot row, with the unchecked
field kernel (the input's codes are checked once, on entry).  Over F_2
each row of the augmented matrix is packed into one Python integer and
eliminated by XOR, the dense-GF(2) technique of M4RI; both paths perform
the same row operations and return the same canonical form.
"""

from __future__ import annotations

import numpy as np

from .field import GF


def as_matrix(M, ncols: int | None = None) -> np.ndarray:
    """M, codes already checked (GF.check_codes), as a 2-D array; no cast.

    An (m, 0) matrix keeps its m rows.  An input with no rows, or an empty
    1-D one, becomes (0, ncols); ncols defaults to the input's column
    count, or 0 for a 1-D input.
    """
    A = np.asarray(M)
    if A.size == 0 and not (A.ndim == 2 and A.shape[0]):
        return A.reshape(0, ncols if ncols is not None else (A.shape[1] if A.ndim == 2 else 0))
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    return A


def rref_augmented(gf: GF, M, C) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduced row echelon form of M, applying identical row ops to C.

    Pivot entries are normalised to 1 and eliminated above and below, so
    the result is the unique canonical representative of the row space
    (with the carried columns transformed covariantly).  Entries of M and C
    must be field codes of gf.
    """
    R, A = as_matrix(gf.check_codes(M)), gf.check_codes(C)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    rows, cols = R.shape
    W = np.concatenate([R, A], axis=1)  # a fresh copy; every row operation acts on [M | C]
    if gf.q == 2:
        return _rref_f2(W, cols)
    pivots: list[int] = []
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
        # one rank-1 update scales the pivot row and clears column c: row i ^=
        # f_i * row r with f_i = inv * W[i, c], and f_r = 1 ^ inv turns row r
        # into inv * row r (characteristic 2)
        inv = gf.inv(int(W[r, c]))
        f = gf._prod(W[:, c], inv)
        f[r] = 1 ^ inv
        if f.any():
            W ^= gf._prod(f[:, None], W[r])
        pivots.append(c)
        r += 1
    return W[:, :cols], W[:, cols:], pivots


def _rref_f2(W: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """rref_augmented over F_2 on the rows of W = [M | C] packed into Python
    ints; M is the first cols columns.

    Column 0 is the most significant bit, so the leftmost non-zero column
    of a row is read off its bit length.  The row operations are exactly
    those of the generic loop: the pivot of column c is the first row at or
    below r that has bit c set, it is swapped into row r and XORed into
    every other row with bit c set.  Rows below r are zero left of the next
    pivot column, so that column is the one with the longest such row.
    """
    rows, width = W.shape
    if cols == 0:  # an (m, 0) M: nothing to eliminate, the m carried rows stay as given
        return W[:, :0], W, []
    nbytes = -(-width // 8)
    bits = 8 * nbytes  # column j is bit bits - 1 - j of a packed row
    packed = np.packbits(W, axis=1).tobytes()
    words = [int.from_bytes(packed[i : i + nbytes], "big") for i in range(0, rows * nbytes, nbytes)]
    pivots: list[int] = []
    for r in range(rows):
        lengths = [w.bit_length() for w in words[r:]]
        top = max(lengths)
        if top <= bits - cols:  # rows r.. are zero across M
            break
        p = r + lengths.index(top)
        words[r], words[p] = words[p], words[r]
        pivot = words[r]
        mask = 1 << (top - 1)
        words = [w ^ pivot if w & mask else w for w in words]
        words[r] = pivot
        pivots.append(bits - top)
    flat = np.frombuffer(b"".join(w.to_bytes(nbytes, "big") for w in words), dtype=np.uint8)
    out = np.unpackbits(flat.reshape(rows, nbytes), axis=1, count=width).astype(np.int64)
    return out[:, :cols], out[:, cols:], pivots


def rref(gf: GF, M) -> tuple[np.ndarray, list[int]]:
    R, _, pivots = rref_augmented(gf, M, np.zeros((len(M), 0), dtype=np.int64))
    return R, pivots


def rank(gf: GF, M) -> int:
    return len(rref(gf, M)[1])


def kernel_basis(gf: GF, M) -> np.ndarray:
    """Generator matrix of the right kernel {x : M x = 0}."""
    R, pivots = rref(gf, M)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    K = np.eye(n, dtype=np.int64)[free]
    K[:, pivots] = R[: len(pivots), free].T  # -R[j,f] == R[j,f] in characteristic 2
    return K


def solve(gf: GF, M, b) -> np.ndarray | None:
    """One particular solution of M x = b, or None if inconsistent."""
    R, carried, pivots = rref_augmented(gf, M, b)
    return particular(R.shape[1], carried, pivots)


def particular(ncols: int, carried: np.ndarray, pivots: list[int]) -> np.ndarray | None:
    """The solution of M x = b read off rref_augmented(gf, M, b)'s carried
    column and pivots (M has ncols columns): the reduced b at the pivot
    columns and zero elsewhere, or None if a zero row carries a non-zero."""
    r = len(pivots)
    if carried[r:].any():
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = carried[:r, 0]
    return x


def random_matrix(gf: GF, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.integers(0, gf.q, size=(m, n), dtype=np.int64)


def random_full_rank(gf: GF, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Rejection-sample an m x n matrix of rank m (requires m <= n)."""
    if m > n:
        raise ValueError("cannot have rank m > n")
    while True:
        M = random_matrix(gf, rng, m, n)
        if rank(gf, M) == m:
            return M


def random_invertible(gf: GF, rng: np.random.Generator, m: int) -> np.ndarray:
    return random_full_rank(gf, rng, m, m)
