"""CSS stabiliser tableaux over F_q with field-valued syndromes.

A tableau lists independent X-type and Z-type generator rows, each with one
syndrome component, as (m, n + 1) blocks [rows | syndromes].  Row
operations transform syndromes covariantly (scale: sigma -> mu sigma; add:
sigma_j -> sigma_j + sigma_i), so they act on whole block rows and the
defined state is unchanged.  A "full" tableau (m_X + m_Z = n) pins a
unique state and supports pure-type Pauli measurement.

On a full tableau span(X rows) = span(Z rows)^perp, so measuring a word w
needs no elimination: it is deterministic iff w is orthogonal to every
opposite-type row, with outcome w . t0 where rows . t0 = syndromes.
``new_tableau`` checks ranks and orthogonality with ``css.new_css`` at the
input boundaries (user calls, ``from_json``, ``cat_block_tableau``); the
updates keep both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .css import new_css
from .errors import (
    DimensionMismatch,
    FullTableauRequired,
    InvalidScale,
    NotCssPreserving,
    json_int_fields,
    json_matrix,
)
from .field import GF, field_from_json
from .pauli import PauliWord


@dataclass
class CssTableau:
    """Blocks x, z: (m, n + 1) int64 [rows | syndromes], checked by new_tableau."""

    gf: GF
    n: int
    x: np.ndarray
    z: np.ndarray

    @property
    def xrows(self) -> np.ndarray:
        return self.x[:, :-1]

    @property
    def zrows(self) -> np.ndarray:
        return self.z[:, :-1]

    @property
    def xsyn(self) -> np.ndarray:
        return self.x[:, -1]

    @property
    def zsyn(self) -> np.ndarray:
        return self.z[:, -1]

    @property
    def m_x(self) -> int:
        return self.x.shape[0]

    @property
    def m_z(self) -> int:
        return self.z.shape[0]

    @property
    def is_full(self) -> bool:
        return self.m_x + self.m_z == self.n

    def block(self, name: str) -> np.ndarray:
        """The "x" or "z" block; ValueError for any other name."""
        if name not in ("x", "z"):
            raise ValueError(f"block must be 'x' or 'z', got {name!r}")
        return self.x if name == "x" else self.z

    def copy(self) -> "CssTableau":
        return CssTableau(self.gf, self.n, self.x.copy(), self.z.copy())

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.gf.q,
            "modulus": self.gf.modulus,
            "xrows": self.xrows.tolist(),
            "zrows": self.zrows.tolist(),
            "xsyn": self.xsyn.tolist(),
            "zsyn": self.zsyn.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CssTableau":
        gf = field_from_json(data)
        xrows, zrows, xsyn, zsyn = json_int_fields(data, xrows=2, zrows=2, xsyn=1, zsyn=1)
        n = len((xrows + zrows)[0]) if xrows + zrows else 0
        xrows, zrows = json_matrix("xrows", xrows, n), json_matrix("zrows", zrows, n)
        return new_tableau(gf, n, xrows, zrows, xsyn, zsyn)


def new_tableau(gf: GF, n: int, xrows, zrows, xsyn, zsyn) -> CssTableau:
    """Validated tableau: F_q syndromes, independent rows, orthogonal blocks."""
    xrows, zrows = linalg.as_matrix(xrows, n), linalg.as_matrix(zrows, n)
    xsyn = np.asarray(xsyn, dtype=np.int64).reshape(-1)
    zsyn = np.asarray(zsyn, dtype=np.int64).reshape(-1)
    if xrows.shape[1] != n or zrows.shape[1] != n:
        raise DimensionMismatch("generator rows must have n columns")
    if xsyn.shape[0] != xrows.shape[0]:
        raise DimensionMismatch("one X syndrome per X row required")
    if zsyn.shape[0] != zrows.shape[0]:
        raise DimensionMismatch("one Z syndrome per Z row required")
    gf.check_codes(xsyn)
    gf.check_codes(zsyn)
    new_css(gf, n, xrows, zrows)
    return CssTableau(gf, n, np.column_stack([xrows, xsyn]), np.column_stack([zrows, zsyn]))


# -- row operations ----------------------------------------------------------


def scale_row(t: CssTableau, block: str, j: int, mu: int) -> CssTableau:
    """Multiply row j (and its syndrome) by a non-zero scalar."""
    if mu == 0:
        raise InvalidScale("row scaling must be by a non-zero field element")
    out = t.copy()
    rows = out.block(block)
    rows[j] = t.gf.mul_arr(rows[j], mu)
    return out


def add_row(t: CssTableau, block: str, i: int, j: int) -> CssTableau:
    """Add row i into row j (syndromes add too); i != j."""
    if i == j:
        raise InvalidScale("cannot add a row into itself")
    out = t.copy()
    rows = out.block(block)
    rows[j] ^= rows[i]
    return out


def canonical_form(t: CssTableau) -> CssTableau:
    """Unique representative: RREF per block with syndromes carried along."""

    def reduce(block: np.ndarray) -> np.ndarray:
        rows, syn, _ = linalg.rref_augmented(t.gf, block[:, :-1], block[:, -1:])
        return np.hstack([rows, syn])

    return CssTableau(t.gf, t.n, reduce(t.x), reduce(t.z))


# -- Clifford updates ---------------------------------------------------------


def apply_gate(t: CssTableau, kind: str, *sites, delta: int | None = None) -> CssTableau:
    """Conjugation update for cnot(i, j), hadamard(i), or mult(i, delta).

    Syndromes are unchanged: each row maps to a single rewritten row whose
    F_q power line carries the same eigenvalue pattern.  hadamard(i) moves
    the rows supported on site i alone to the other block and refuses a
    weight>1 row touching site i, which would no longer be pure-type.
    """
    gf = t.gf
    if not all(0 <= i < t.n for i in sites):
        raise DimensionMismatch(f"sites {sites} outside [0, {t.n})")
    if kind == "hadamard":
        (i,) = sites
        rows = np.vstack([t.xrows, t.zrows])
        if np.any((rows[:, i] != 0) & (np.count_nonzero(rows, axis=1) > 1)):
            raise NotCssPreserving(f"hadamard on site {i} would mix types in a weight>1 row")
        xmove = t.x[:, i] != 0
        zmove = t.z[:, i] != 0
        x = np.vstack([t.x[~xmove], t.z[zmove]])
        z = np.vstack([t.z[~zmove], t.x[xmove]])
        return CssTableau(gf, t.n, x, z)
    out = t.copy()
    if kind == "cnot":
        i, j = sites
        if i == j:
            raise DimensionMismatch("cnot needs two distinct sites")
        out.x[:, j] ^= out.x[:, i]
        out.z[:, i] ^= out.z[:, j]
    elif kind == "mult":
        (i,) = sites
        if delta is None or gf.check_code(delta) == 0:
            raise InvalidScale("mult update needs a non-zero delta")
        out.x[:, i] = gf.mul_arr(out.x[:, i], delta)
        out.z[:, i] = gf.mul_arr(out.z[:, i], gf.inv(delta))
    else:
        raise ValueError(f"unsupported tableau gate {kind!r}")
    return out


# -- measurement -------------------------------------------------------------


def _measured(t: CssTableau, P: PauliWord) -> tuple[str, np.ndarray, np.ndarray]:
    """P's block and vector w, and w's F_q dot with every opposite-type row."""
    if not t.is_full:
        raise FullTableauRequired("measurement is defined on full tableaux")
    P.require_pure()
    if P.gf != t.gf or P.n != t.n:
        raise DimensionMismatch("word and tableau live on different systems")
    if any(P.zvec):
        return "z", P.z_array, t.gf.matvec(t.xrows, P.z_array)
    return "x", P.x_array, t.gf.matvec(t.zrows, P.x_array)  # the identity word too


def deterministic_outcome(t: CssTableau, P: PauliWord) -> int | None:
    """P's outcome when P's vector w has zero dot with every opposite row
    (so w = c . rows), else None.  The outcome sum_j c_j sigma_j is w . t0
    for any t0 with rows . t0 = syn."""
    block, w, dots = _measured(t, P)
    if np.any(dots):
        return None
    same = t.block(block)
    return t.gf.dot(w, linalg.solve(t.gf, same[:, :-1], same[:, -1]))


def measure_postselect(t: CssTableau, P: PauliWord, eta: int) -> CssTableau:
    """Tableau update for measuring P with a forced random-branch outcome.

    The first opposite-type row with non-zero dot against P's vector w is
    the pivot: dots[k] / dots[pivot] times it is added to every other
    opposite row (syndromes too), then it is dropped and [w | eta] joins the
    same-type block.  Every outcome has probability 1/q, so any eta in F_q
    is legal.  The result keeps fullness, rank and orthogonality.
    """
    gf = t.gf
    block, w, dots = _measured(t, P)
    hits = np.flatnonzero(dots)
    if hits.size == 0:
        raise InvalidScale("outcome is deterministic; cannot postselect freely")
    gf.check_code(eta)
    pivot = hits[0]
    keep = np.arange(dots.size) != pivot
    opp = t.z if block == "x" else t.x
    f = gf.mul_arr(dots[keep], gf.inv(int(dots[pivot])))
    opp = opp[keep] ^ gf.mul_arr(f[:, None], opp[pivot])
    same = np.vstack([t.block(block), np.append(w, eta)])
    return CssTableau(gf, t.n, same, opp) if block == "x" else CssTableau(gf, t.n, opp, same)


def measure(t: CssTableau, P: PauliWord, rng: np.random.Generator) -> tuple[int, CssTableau]:
    """Measure a pure-type word on a full tableau.

    Deterministic when P's vector lies in the same-type row space; otherwise
    the outcome is uniform over F_q and the tableau is updated.
    """
    det = deterministic_outcome(t, P)
    if det is not None:
        return det, t
    eta = int(rng.integers(0, t.gf.q))
    return eta, measure_postselect(t, P, eta)


# -- the cat-state measurement gadget -----------------------------------------


@dataclass
class CatGadgetResult:
    outcomes: list[int]
    recovered: int
    tableau: CssTableau


def cat_block_tableau(gf: GF, gammas, eta: int) -> CssTableau:
    """8-qudit joint tableau: cat ancilla (sites 0-3) + code block (4-7).

    The code block is completed to full rank with the same cat-style Z rows,
    planting syndrome eta on its X generator.
    """
    g1, g2, g3, g4 = (int(g) for g in gammas)
    if 0 in (g1, g2, g3, g4):
        raise InvalidScale("gadget coefficients must all be non-zero")
    z = [0, 0, 0, 0]
    xrows = [[g1, g2, g3, g4] + z, z + [g1, g2, g3, g4]]
    zpatterns = [[g2, g1, 0, 0], [0, g3, g2, 0], [0, 0, g4, g3]]
    zrows = [p + z for p in zpatterns] + [z + p for p in zpatterns]
    return new_tableau(gf, 8, xrows, zrows, [0, eta], [0] * 6)


def run_cat_gadget(gf: GF, gammas, eta: int, rng: np.random.Generator) -> CatGadgetResult:
    """Measure pairwise XX on (j, j+4), then recover eta = sum gamma_j eta_j."""
    t = cat_block_tableau(gf, gammas, eta)
    outcomes = []
    for j in range(4):
        codes = [0] * 8
        codes[j] = 1
        codes[j + 4] = 1
        out, t = measure(t, PauliWord.x_word(gf, codes), rng)
        outcomes.append(out)
    recovered = 0
    for g, o in zip(gammas, outcomes):
        recovered ^= gf.mul(int(g), o)
    return CatGadgetResult(outcomes, recovered, t)
