"""Qudit CSS codes from orthogonal F_q-linear spaces.

Distances are exact minimum weights, d_X over L_Z^perp \\ L_X and d_Z over
L_X^perp \\ L_Z, computed only while the span has at most a budget of
words.  They are enumerated over F_2: an F_q-span is the F_2-span of its
rows times the basis codes 1 << j, and the residual modulo the excluded
space is F_2-linear too.  Every word and its residual come from XOR
doubling of a table and one XOR per further combination, so no field
multiply runs per word.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotCommuting, RankDeficient, json_int_fields, json_matrix
from .field import GF, check_int, field_from_json, values_equal

DEFAULT_DISTANCE_BUDGET = 1 << 20
_LOW_BITS = 14


@dataclass
class CssCode:
    """Checked when built: rows of n entries (DimensionMismatch), independent
    within each block (RankDeficient, naming it), gx . gz^T = 0 (NotCommuting)."""

    gf: GF
    n: int
    gx: np.ndarray  # generators of L_X
    gz: np.ndarray  # generators of L_Z

    def __post_init__(self) -> None:
        self.n = check_int(self.n, "n", error=DimensionMismatch)
        self.gx, self.gz, _ = check_blocks(self.gf, self.n, self.gx, self.gz)

    __eq__ = values_equal

    @property
    def m_x(self) -> int:
        return self.gx.shape[0]

    @property
    def m_z(self) -> int:
        return self.gz.shape[0]

    @property
    def k(self) -> int:
        return self.n - self.m_x - self.m_z

    def to_json(self) -> dict:
        return {
            "q": self.gf.q,
            "modulus": self.gf.modulus,
            "gx": self.gx.tolist(),
            "gz": self.gz.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CssCode":
        gf = field_from_json(data)
        gx, gz = json_int_fields(data, gx=2, gz=2)
        n = len((gx + gz)[0]) if gx + gz else 0
        return new_css(gf, n, json_matrix("gx", gx, n), json_matrix("gz", gz, n))


@dataclass
class CodeParams:
    n: int
    k: int
    d_x: int | None
    d_z: int | None
    d: int | None
    distance_status: str  # "exact" or "not-computed"

    def to_json(self) -> dict:
        return asdict(self)


def check_blocks(gf: GF, n: int, gx, gz, xcarry=None, zcarry=None):
    """The checks of a CssCode, which a tableau runs with its syndromes as
    the carried columns: gx and gz as (m, n) int64 matrices and, for each,
    rref_augmented's (carried, pivots) of [rows | carry], its one
    elimination.  A row of another width than n or a carry of another length
    than its block raises DimensionMismatch, dependent rows RankDeficient
    (naming the block and its rank), and gx . gz^T != 0 NotCommuting."""
    n = check_int(n, "n", error=DimensionMismatch)
    gx, gz = (linalg.as_matrix(gf.check_codes(rows), n) for rows in (gx, gz))
    reduced = []
    for name, rows, carry in (("gx", gx, xcarry), ("gz", gz, zcarry)):
        if rows.shape[1] != n:
            raise DimensionMismatch(f"{name} rows have {rows.shape[1]} entries, n = {n}")
        if carry is None:
            carry = np.zeros((len(rows), 0), dtype=np.int64)
        elif len(carry) != len(rows):
            raise DimensionMismatch(f"{len(carry)} syndromes for {len(rows)} {name} rows")
        _, carried, pivots = linalg.rref_augmented(gf, rows, carry)
        if len(pivots) != len(rows):
            raise RankDeficient(f"{name} rows are linearly dependent (rank {len(pivots)} of {len(rows)})")
        reduced.append((carried, pivots))
    if np.any(gf.matmul(gx, gz.T)):
        raise NotCommuting("L_X is not orthogonal to L_Z")
    return gx, gz, reduced


def new_css(gf: GF, n: int, gx, gz) -> CssCode:
    """The CSS code of gx and gz, which CssCode checks as it is built."""
    return CssCode(gf, n, gx, gz)


def dual_space(gf: GF, M) -> np.ndarray:
    """Generator matrix of the Euclidean-orthogonal space (the kernel)."""
    return linalg.kernel_basis(gf, M)


def min_weight_excluding(gf: GF, span_basis, exclude, budget: int) -> int | None:
    """Minimum F_q-Hamming weight over span(span_basis) \\ span(exclude).

    Returns None when q^dim exceeds the enumeration budget, before any
    table is built, and when the difference is empty.

    The F_q-span of the dim rows is the F_2-span of the dim*s vectors
    beta_j * row (beta_j = 1 << j), and the residual of a word modulo
    span(exclude), w - w[:, pivots] . rref(exclude), is F_2-linear too.  So
    each generator carries [word | residual] in the narrowest unsigned
    dtype, a low table of up to 2^14 combinations is built by XOR doubling,
    and the remaining generators are walked in Gray-code order, one XOR of
    the low table per step.  A word lies outside span(exclude) exactly when
    its residual half is non-zero; no field multiply runs per word.
    """
    span_basis = linalg.as_matrix(gf.check_codes(span_basis))
    exclude = linalg.as_matrix(gf.check_codes(exclude), span_basis.shape[1])
    dim, n = span_basis.shape
    if gf.q**dim > budget:
        return None
    rx, pivots = linalg.rref(gf, exclude)
    rx = rx[: len(pivots)]
    betas = 1 << np.arange(gf.s, dtype=np.int64)
    words = gf.mul_arr(betas[None, :, None], span_basis[:, None, :]).reshape(dim * gf.s, n)
    residual = words ^ gf.matmul(words[:, pivots], rx)
    # one column per generator, so every reduction below runs along contiguous rows
    gens = np.vstack([words.T, residual.T]).astype(np.min_scalar_type(gf.q - 1))
    n_low = min(dim * gf.s, _LOW_BITS)
    low = np.zeros((2 * n, 1 << n_low), dtype=gens.dtype)
    for i in range(n_low):  # column c of low is the XOR of the generators at the set bits of c
        low[:, 1 << i : 2 << i] = low[:, : 1 << i] ^ gens[:, i : i + 1]
    high = gens[:, n_low:]
    best: int | None = None
    shift = np.zeros((2 * n, 1), dtype=gens.dtype)
    for i in range(1 << high.shape[1]):
        if i:  # Gray code: step i flips the generator at the lowest set bit of i
            j = (i & -i).bit_length() - 1
            shift ^= high[:, j : j + 1]
        T = low ^ shift
        outside = T[n:].any(axis=0)
        if outside.any():
            w = int(np.count_nonzero(T[:n], axis=0)[outside].min())
            best = w if best is None else min(best, w)
    return best


def params(code: CssCode, distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> CodeParams:
    """n, k, and brute-force d_X / d_Z within the enumeration budget of words."""
    distance_budget = check_int(distance_budget, "distance budget")
    gf = code.gf
    k = code.k
    if k == 0:
        return CodeParams(code.n, 0, None, None, None, "exact")
    dx = min_weight_excluding(gf, dual_space(gf, code.gz), code.gx, distance_budget)
    dz = min_weight_excluding(gf, dual_space(gf, code.gx), code.gz, distance_budget)
    if dx is None or dz is None:
        return CodeParams(code.n, k, dx, dz, None, "not-computed")
    return CodeParams(code.n, k, dx, dz, min(dx, dz), "exact")


def logical_spaces(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """Coset representatives: (Z-logicals in L_X^perp mod L_Z, X-logicals
    in L_Z^perp mod L_X); k rows each, independent modulo the stabilisers."""
    gf = code.gf

    def extend(stab: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        # pivot columns of [stab; ambient]^T: each ambient row independent of
        # the stabilisers and of the ambient rows before it
        _, pivots = linalg.rref(gf, np.vstack([stab, ambient]).T)
        pivots = np.array(pivots, dtype=np.int64)
        return ambient[pivots[pivots >= len(stab)] - len(stab)]

    z_reps = extend(code.gz, dual_space(gf, code.gx))
    x_reps = extend(code.gx, dual_space(gf, code.gz))
    return z_reps, x_reps
