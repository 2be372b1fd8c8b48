"""Generalized Reed-Solomon codes and the quantum Reed-Solomon construction.

Codewords are evaluations of degree-<k polynomials at distinct points,
scaled by non-zero column multipliers.  Message coefficients are in the
monomial basis, low degree first.  Decoding takes the syndrome S = H . e
(a QRS code's check rows are its decoders' H, so S is what its checks
report) and corrects up to floor((n-k)/2) errors: Berlekamp-Massey finds the
error locator, a Chien search over the evaluation points finds the error
positions and Forney's formula gives the error values.  decode checks one
syndrome, or a stack of them, once and then decodes row by row.
Berlekamp-Massey and Forney's step work on a handful of elements (at most
n - k syndromes, at most radius positions), so they run on Python ints
through the field's unchecked scalar kernels (``GF._kernels``); the Chien
search and the final check H . e == S stay vectorised on ``GF._prod``: one
gather from a cached table of point powers, one product and one XOR-reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor

import numpy as np

from .css import CssCode, new_css
from .errors import (
    DecodeFailure,
    DimensionMismatch,
    InvalidNesting,
    InvalidSupport,
    WeightBelowDistance,
)
from .field import GF, check_int, values_equal


# -- classical GRS -------------------------------------------------------------


@dataclass
class GrsCode:
    gf: GF
    k: int
    alpha: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = self.gf.check_codes(self.alpha).reshape(-1)
        self.v = self.gf.check_codes(self.v).reshape(-1)
        n = check_int(self.alpha.size, "n", 0, self.gf.q, DimensionMismatch)  # distinct points
        if self.v.size != n:
            raise DimensionMismatch("need one multiplier per evaluation point")
        if len(set(self.alpha.tolist())) != n:
            raise InvalidSupport("evaluation points must be distinct")
        if np.any(self.v == 0):
            raise InvalidSupport("column multipliers must be non-zero")
        self.k = check_int(self.k, "dimension k", 0, n, DimensionMismatch)

    __eq__ = values_equal

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def d(self) -> int:
        return self.n - self.k + 1

    @property
    def radius(self) -> int:
        return (self.n - self.k) // 2

    @cached_property
    def parity_check(self) -> np.ndarray:
        """H[j, i] = w_i alpha_i^j (j < n-k), w = dual_multipliers(alpha, v):
        the dual code's generator matrix, so H . r is the syndrome of r."""
        return generator_matrix(dual(self))

    @cached_property
    def _scalars(self) -> tuple[list[int], list[int]]:
        """alpha and w = parity_check[0] as lists, for the decoder's scalar steps."""
        return self.alpha.tolist(), self.parity_check[0].tolist()

    @cached_property
    def powers(self) -> np.ndarray:
        """P[i, m] = alpha_i^m for m = 0..radius, with 0^0 = 1: the table
        that the Chien search gathers from."""
        return np.stack([self.gf.pow(self.alpha, m) for m in range(self.radius + 1)], axis=1)


def generator_matrix(c: GrsCode) -> np.ndarray:
    """Row j holds v_i * alpha_i^j for j = 0..k-1."""
    G = np.zeros((c.k, c.n), dtype=np.int64)
    row = c.v.copy()
    for j in range(c.k):
        G[j] = row
        row = c.gf.mul_arr(row, c.alpha)
    return G


def encode(c: GrsCode, coeffs) -> np.ndarray:
    """(v_1 f(alpha_1), ..., v_n f(alpha_n)) for message coefficients of f."""
    coeffs = c.gf.check_codes(coeffs).reshape(-1)
    if coeffs.size != c.k:
        raise DimensionMismatch(f"message needs {c.k} coefficients, got {coeffs.size}")
    return c.gf.matmul(coeffs, generator_matrix(c))


def dual_multipliers(gf: GF, alpha, v) -> np.ndarray:
    """u with u_i^-1 = v_i * prod_{j != i} (alpha_i - alpha_j)."""
    alpha, v = gf.check_codes(alpha).reshape(-1), gf.check_codes(v).reshape(-1)
    diff = alpha[:, None] ^ alpha[None, :]
    np.fill_diagonal(diff, 1)
    for col in diff.T:
        v = gf.mul_arr(v, col)
    return gf.inv_arr(v)


def dual(c: GrsCode) -> GrsCode:
    """GRS_{n-k}(alpha, u): generator matrices satisfy G . G'^T = 0."""
    return GrsCode(c.gf, c.n - c.k, c.alpha, dual_multipliers(c.gf, c.alpha, c.v))


def mds_weight_count(n: int, k: int, q: int, w: int) -> int:
    """Number of weight-w codewords in any [n, k, n-k+1] MDS code over F_q."""
    n = check_int(n, "n")
    d = n - check_int(k, "k", 0, n) + 1
    q, w = check_int(q, "q", 2), check_int(w, "w", d, error=WeightBelowDistance)
    check_int(w, "w", 0, n, DimensionMismatch)
    total = 0
    for j in range(w - d + 1):
        term = math.comb(w - 1, j) * q ** (w - d - j)
        total += -term if j % 2 else term
    return math.comb(n, w) * (q - 1) * total


def min_weight_codeword(c: GrsCode, roots, eta: int) -> np.ndarray:
    """Evaluations of eta * prod_{beta in roots} (x - beta): weight n-k+1."""
    roots = c.gf.check_codes(roots).reshape(-1)
    points = set(roots.tolist())
    if len(points) != roots.size or not points <= set(c.alpha.tolist()):
        raise InvalidSupport("roots must be distinct evaluation points")
    if len(roots) != c.k - 1:
        raise InvalidSupport(f"need k-1 = {c.k - 1} roots, got {len(roots)}")
    if c.gf.check_code(eta) == 0:
        raise InvalidSupport("eta must be non-zero")
    # v_i * eta * prod_r (alpha_i - r), one product per root over all points
    factors = c.alpha[None, :] ^ roots[:, None]
    return reduce(c.gf.mul_arr, factors, c.gf.mul_arr(c.v, eta))


def _berlekamp_massey(gf: GF, S: list[int]) -> tuple[list[int], int]:
    """Shortest register (Lambda, L) with Lambda_0 = 1 and sum_l Lambda_l
    S_{j-l} = 0 for L <= j < len(S) (Massey 1969), on Python ints whose codes
    are already checked.  Lambda has exactly L + 1 entries (its degree may be less)."""
    mul, inv = gf._kernels
    lam, prev = [1], [1]
    L, shift, prev_d = 0, 1, 1
    for j, d in enumerate(S):
        for l in range(1, L + 1):
            d ^= mul(lam[l], S[j - l])
        if d:
            # lam - (d / prev_d) x^shift prev; x^shift prev has L + 1 entries at most,
            # or exactly the new L + 1 when the register grows
            scale = mul(d, inv(prev_d))
            new = lam + [0] * (shift + len(prev) - len(lam))
            for i, p in enumerate(prev, shift):
                if p:
                    new[i] ^= mul(p, scale)
            if 2 * L <= j:
                L, prev, prev_d, shift = j + 1 - L, lam, d, 0
            lam = new
        shift += 1
    return lam, L


def decode(c: GrsCode, syndrome) -> np.ndarray:
    """The error e with at most radius floor((n-k)/2) non-zero entries and
    syndrome S = H . e, S_j = sum_i w_i e_i alpha_i^j (j < n-k), with
    H = c.parity_check; DecodeFailure if there is none, so never unsound.

    A (shots, n - k) stack of syndromes is checked once and gives the
    (shots, n) stack of errors, decoded row by row; a 1-D syndrome is the
    batch of one and gives one error.  The first row that is refused raises
    its DecodeFailure, whose shot is that row.
    """
    syndrome = c.gf.check_codes(syndrome)
    if syndrome.ndim not in (1, 2) or syndrome.shape[-1] != c.n - c.k:
        raise DimensionMismatch(
            f"syndrome rows need length n - k = {c.n - c.k}, got shape {syndrome.shape}"
        )
    rows = syndrome if syndrome.ndim == 2 else syndrome[None]
    errors = np.zeros((len(rows), c.n), dtype=np.int64)
    for shot, S in enumerate(rows.tolist()):
        if any(S):
            pos, e = _decode_row(c, S, shot)
            errors[shot, pos] = e
    return errors if syndrome.ndim == 2 else errors[0]


def _decode_row(c: GrsCode, S: list[int], shot: int):
    """(positions, values) of the error that decode finds for one non-zero
    syndrome S of Python ints, row shot of its call.

    An error at the point alpha_i = 0 adds to S_0 only: it lengthens the
    Berlekamp-Massey register L but adds no factor to the locator Lambda, so
    sigma(z) = z^L Lambda(1/z) has the root z = 0, and that error's value is
    what S_0 holds beyond the other values.
    """
    gf, H = c.gf, c.parity_check
    mul, inv = gf._kernels
    alpha, w = c._scalars
    lam, L = _berlekamp_massey(gf, S)

    def refusal(stage: str, message: str) -> DecodeFailure:
        return DecodeFailure(message, stage=stage, weight=L, radius=c.radius, shot=shot)

    if L > c.radius:
        raise refusal("radius", f"error locator length {L} exceeds the radius {c.radius}")
    # Chien search: sigma(alpha_i) = sum_l Lambda_l alpha_i^(L-l)
    sigma = np.bitwise_xor.reduce(gf._prod(c.powers[:, L::-1], np.array(lam)), axis=1)
    pos = np.flatnonzero(sigma == 0)
    if pos.size != L:
        raise refusal("split", "error locator does not split over the evaluation points")

    # Forney: Y_i = X_i Omega(1/X_i) / Lambda'(1/X_i) with Omega = S Lambda mod x^L, each
    # read as X^(L-1) f(1/X) = sum_j f_j X^(L-1-j) (Horner): the X^(L-1) cancel in the ratio.
    omega = [0] * L
    for i in range(L):
        for l in range(i + 1):
            omega[i] ^= mul(S[i - l], lam[l])
    deriv = [0 if i % 2 else lam[i + 1] for i in range(L)]  # characteristic 2: odd terms only
    support = pos.tolist()
    X = [alpha[i] for i in support]
    values = [0] * L
    for i, x in enumerate(X):
        if x:
            num = den = 0
            for o, dl in zip(omega, deriv):
                num, den = mul(num, x) ^ o, mul(den, x) ^ dl
            values[i] = mul(x, mul(num, inv(den)))
    if 0 in X:
        values[X.index(0)] = reduce(xor, values, S[0])
    e = [mul(y, inv(w[i])) for y, i in zip(values, support)]

    # H . e == S, read on the support columns alone
    if np.bitwise_xor.reduce(gf._prod(H[:, pos], np.array(e)), axis=1).tolist() != S:
        raise refusal("syndrome", "no error within the radius has this syndrome")
    return pos, e


# -- quantum Reed-Solomon --------------------------------------------------------


@dataclass
class QrsCode:
    gf: GF
    k1: int
    k2: int
    alpha: np.ndarray
    v: np.ndarray
    u: np.ndarray
    css: CssCode

    def __post_init__(self) -> None:
        self.alpha = self.gf.check_codes(self.alpha).reshape(-1)
        self.v = self.gf.check_codes(self.v).reshape(-1)
        self.u = self.gf.check_codes(self.u).reshape(-1)
        self.k1 = check_int(self.k1, "k1", 0, self.n, DimensionMismatch)
        self.k2 = check_int(self.k2, "k2", self.k1, self.n, InvalidNesting)

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def k(self) -> int:
        return self.k2 - self.k1

    @property
    def d_x_formula(self) -> int:
        return self.n - self.k2 + 1

    @property
    def d_z_formula(self) -> int:
        return self.k1 + 1

    __eq__ = values_equal

    @cached_property
    def decoders(self) -> dict[str, GrsCode]:
        """Per error kind, the GRS code whose parity check is that kind's check
        rows: gx generates GRS_{k1}(alpha, v), the dual of GRS_{n-k1}(alpha, u)
        ("Z"), and gz generates GRS_{n-k2}(alpha, u), that of GRS_{k2}(alpha, v)."""
        return {
            "Z": GrsCode(self.gf, self.n - self.k1, self.alpha, self.u),
            "X": GrsCode(self.gf, self.k2, self.alpha, self.v),
        }

    def to_json(self) -> dict:
        data = self.css.to_json()
        data.update(
            {
                "n": self.n,
                "k1": self.k1,
                "k2": self.k2,
                "alpha": self.alpha.tolist(),
                "v": self.v.tolist(),
            }
        )
        return data


def make_qrs(gf: GF, n: int, k1: int, k2: int, alpha=None, v=None) -> QrsCode:
    """CSS(L_X = GRS_k1, L_Z = GRS_{n-k2} with dual multipliers).

    Logical qudits k = k2 - k1, d_X = n - k2 + 1, d_Z = k1 + 1.
    """
    n = check_int(n, "n")
    k1 = check_int(k1, "k1", 0, n, DimensionMismatch)
    k2 = check_int(k2, "k2", k1, n, InvalidNesting)
    # alpha defaults to all of F_q in code order when n = q
    alpha = np.arange(n, dtype=np.int64) if alpha is None else gf.check_codes(alpha)
    v = np.ones(n, dtype=np.int64) if v is None else gf.check_codes(v)
    if np.size(alpha) != n or np.size(v) != n:
        raise DimensionMismatch(
            f"n = {n}, but alpha has {np.size(alpha)} entries and v has {np.size(v)}"
        )
    cx = GrsCode(gf, k1, alpha, v)
    u = dual_multipliers(gf, cx.alpha, cx.v)
    cz = GrsCode(gf, n - k2, cx.alpha, u)
    css = new_css(gf, n, generator_matrix(cx), generator_matrix(cz))
    return QrsCode(gf, k1, k2, cx.alpha, cx.v, u, css)
