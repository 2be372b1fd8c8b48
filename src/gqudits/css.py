"""Qudit CSS codes from orthogonal F_q-linear spaces.

Distances are computed by brute-force enumeration of the relevant row
spaces (message enumeration plus membership rejection), guarded by an
explicit word budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotCommuting, RankDeficient, json_int_fields
from .field import GF, make_field

DEFAULT_DISTANCE_BUDGET = 1 << 20
_CHUNK = 1 << 14


@dataclass
class CssCode:
    gf: GF
    n: int
    gx: np.ndarray  # generators of L_X
    gz: np.ndarray  # generators of L_Z

    def __post_init__(self) -> None:
        self.gx = linalg.as_matrix(self.gx, self.n)
        self.gz = linalg.as_matrix(self.gz, self.n)

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
        modulus, gx, gz = json_int_fields(data, modulus=0, gx=2, gz=2)
        gf = make_field(modulus=modulus)
        n = max((len(r) for r in gx + gz), default=0)
        gx = np.array(gx, dtype=np.int64).reshape(len(gx), n)
        gz = np.array(gz, dtype=np.int64).reshape(len(gz), n)
        return new_css(gf, n, gx, gz)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass
class CodeParams:
    n: int
    k: int
    d_x: int | None
    d_z: int | None
    d: int | None
    distance_status: str  # "exact" or "not-computed"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_x": self.d_x,
            "d_z": self.d_z,
            "d": self.d,
            "distance_status": self.distance_status,
        }


def new_css(gf: GF, n: int, gx, gz) -> CssCode:
    """Validated CSS code: independent generator rows with gx . gz^T = 0."""
    code = CssCode(gf, n, gx, gz)
    if linalg.rank(gf, code.gx) != code.m_x or linalg.rank(gf, code.gz) != code.m_z:
        raise RankDeficient("generator rows are linearly dependent")
    if code.m_x and code.m_z:
        if np.any(gf.matmul(code.gx, code.gz.T)):
            raise NotCommuting("L_X is not orthogonal to L_Z")
    return code


def dual_space(gf: GF, M) -> np.ndarray:
    """Generator matrix of the Euclidean-orthogonal space (the kernel)."""
    return linalg.kernel_basis(gf, linalg.as_matrix(M))


def _iter_words(gf: GF, basis: np.ndarray):
    """Yield chunks of every F_q-combination of the basis rows (message order)."""
    dim = basis.shape[0]
    total = gf.q**dim
    shifts = np.array([gf.s * (dim - 1 - i) for i in range(dim)], dtype=np.int64)
    mask = gf.q - 1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        msgs = (idx[:, None] >> shifts[None, :]) & mask
        yield gf.matmul(msgs, basis), idx

def _membership_mask(gf: GF, words: np.ndarray, rref_rows: np.ndarray, pivots) -> np.ndarray:
    """True where a word lies in the row space described by the RREF."""
    res = words.copy()
    for j, c in enumerate(pivots):
        f = res[:, c].copy()
        nz = f != 0
        if np.any(nz):
            res[nz] ^= gf.mul_arr(f[nz, None], rref_rows[j][None, :])
    return ~res.any(axis=1)


def min_weight_excluding(gf: GF, span_basis, exclude, budget: int) -> int | None:
    """Minimum F_q-Hamming weight over span(span_basis) \\ span(exclude).

    Returns None when q^dim exceeds the enumeration budget.
    """
    span_basis = linalg.as_matrix(span_basis)
    exclude = linalg.as_matrix(exclude, span_basis.shape[1])
    dim = span_basis.shape[0]
    if gf.q**dim > budget:
        return None
    rx, pivots = linalg.rref(gf, exclude)
    rx = rx[: len(pivots)]
    best: int | None = None
    for words, idx in _iter_words(gf, span_basis):
        weights = (words != 0).sum(axis=1)
        member = _membership_mask(gf, words, rx, pivots)
        keep = ~member
        keep &= idx != 0  # note: zero word is always a member anyway
        if np.any(keep):
            w = int(weights[keep].min())
            if best is None or w < best:
                best = w
    return best


def params(code: CssCode, distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> CodeParams:
    """n, k, and brute-force d_X / d_Z within the enumeration budget."""
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
        reps = []
        current = stab
        r = linalg.rank(gf, current)
        for v in ambient:
            cand = np.vstack([current, v[None, :]])
            if linalg.rank(gf, cand) > r:
                reps.append(v)
                current = cand
                r += 1
        return np.array(reps, dtype=np.int64).reshape(len(reps), code.n)

    z_reps = extend(code.gz, dual_space(gf, code.gx))
    x_reps = extend(code.gx, dual_space(gf, code.gz))
    return z_reps, x_reps
