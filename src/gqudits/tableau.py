"""CSS stabiliser tableaux over F_q with field-valued syndromes.

A tableau lists independent X-type and Z-type generator rows plus one
syndrome component per row.  Row operations transform syndromes
covariantly (scale: sigma -> mu sigma; add: sigma_j -> sigma_j + sigma_i),
so the defined state is unchanged.  A "full" tableau (m_X + m_Z = n) pins a
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
from .field import GF, make_field
from .pauli import PauliWord


@dataclass
class CssTableau:
    gf: GF
    n: int
    xrows: np.ndarray
    zrows: np.ndarray
    xsyn: np.ndarray
    zsyn: np.ndarray

    def __post_init__(self) -> None:
        self.xrows = linalg.as_matrix(self.xrows, self.n)
        self.zrows = linalg.as_matrix(self.zrows, self.n)
        self.xsyn = np.asarray(self.xsyn, dtype=np.int64).reshape(-1)
        self.zsyn = np.asarray(self.zsyn, dtype=np.int64).reshape(-1)
        if self.xrows.shape[1] != self.n or self.zrows.shape[1] != self.n:
            raise DimensionMismatch("generator rows must have n columns")
        if self.xsyn.shape[0] != self.xrows.shape[0]:
            raise DimensionMismatch("one X syndrome per X row required")
        if self.zsyn.shape[0] != self.zrows.shape[0]:
            raise DimensionMismatch("one Z syndrome per Z row required")

    @property
    def m_x(self) -> int:
        return self.xrows.shape[0]

    @property
    def m_z(self) -> int:
        return self.zrows.shape[0]

    @property
    def is_full(self) -> bool:
        return self.m_x + self.m_z == self.n

    def copy(self) -> "CssTableau":
        return CssTableau(
            self.gf, self.n, self.xrows.copy(), self.zrows.copy(), self.xsyn.copy(), self.zsyn.copy()
        )

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
        modulus, xrows, zrows, xsyn, zsyn = json_int_fields(
            data, modulus=0, xrows=2, zrows=2, xsyn=1, zsyn=1
        )
        gf = make_field(modulus=modulus)
        n = len((xrows + zrows)[0]) if xrows + zrows else 0
        xrows, zrows = json_matrix("xrows", xrows, n), json_matrix("zrows", zrows, n)
        return new_tableau(gf, n, xrows, zrows, xsyn, zsyn)


def new_tableau(gf: GF, n: int, xrows, zrows, xsyn, zsyn) -> CssTableau:
    """Validated tableau: F_q syndromes, independent rows, orthogonal blocks."""
    t = CssTableau(gf, n, xrows, zrows, xsyn, zsyn)
    gf.check_codes(t.xsyn)
    gf.check_codes(t.zsyn)
    new_css(gf, n, t.xrows, t.zrows)
    return t


# -- row operations ----------------------------------------------------------


def _block(t: CssTableau, block: str) -> tuple[np.ndarray, np.ndarray]:
    if block == "x":
        return t.xrows, t.xsyn
    if block == "z":
        return t.zrows, t.zsyn
    raise ValueError(f"block must be 'x' or 'z', got {block!r}")


def scale_row(t: CssTableau, block: str, j: int, mu: int) -> CssTableau:
    """Multiply row j (and its syndrome) by a non-zero scalar."""
    if mu == 0:
        raise InvalidScale("row scaling must be by a non-zero field element")
    out = t.copy()
    rows, syn = _block(out, block)
    rows[j] = t.gf.mul_arr(rows[j], mu)
    syn[j] = t.gf.mul(int(syn[j]), mu)
    return out


def add_row(t: CssTableau, block: str, i: int, j: int) -> CssTableau:
    """Add row i into row j (syndromes add too); i != j."""
    if i == j:
        raise InvalidScale("cannot add a row into itself")
    out = t.copy()
    rows, syn = _block(out, block)
    rows[j] ^= rows[i]
    syn[j] ^= syn[i]
    return out


def canonical_form(t: CssTableau) -> CssTableau:
    """Unique representative: RREF per block with syndromes carried along."""
    gf = t.gf
    rx, sx, _ = linalg.rref_augmented(gf, t.xrows, t.xsyn)
    rz, sz, _ = linalg.rref_augmented(gf, t.zrows, t.zsyn)
    return CssTableau(gf, t.n, rx, rz, sx.reshape(-1), sz.reshape(-1))


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
        xmove = t.xrows[:, i] != 0
        zmove = t.zrows[:, i] != 0
        return CssTableau(
            gf, t.n,
            np.vstack([t.xrows[~xmove], t.zrows[zmove]]),
            np.vstack([t.zrows[~zmove], t.xrows[xmove]]),
            np.concatenate([t.xsyn[~xmove], t.zsyn[zmove]]),
            np.concatenate([t.zsyn[~zmove], t.xsyn[xmove]]),
        )
    out = t.copy()
    if kind == "cnot":
        i, j = sites
        if i == j:
            raise DimensionMismatch("cnot needs two distinct sites")
        if out.m_x:
            out.xrows[:, j] ^= out.xrows[:, i]
        if out.m_z:
            out.zrows[:, i] ^= out.zrows[:, j]
    elif kind == "mult":
        (i,) = sites
        if delta is None or gf.check_code(delta) == 0:
            raise InvalidScale("mult update needs a non-zero delta")
        if out.m_x:
            out.xrows[:, i] = gf.mul_arr(out.xrows[:, i], delta)
        if out.m_z:
            out.zrows[:, i] = gf.mul_arr(out.zrows[:, i], gf.inv(delta))
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
    rows, syn = _block(t, block)
    return t.gf.dot(w, linalg.solve(t.gf, rows, syn))


def measure_postselect(t: CssTableau, P: PauliWord, eta: int) -> CssTableau:
    """Tableau update for measuring P with a forced random-branch outcome.

    The first opposite-type row with non-zero dot against P's vector w is
    the pivot: dots[k] / dots[pivot] times it is added to every other
    opposite row (syndromes too), then it is dropped and (w, eta) joins the
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
    opp = np.column_stack(_block(t, "z" if block == "x" else "x"))  # [rows | syn]
    f = gf.mul_arr(dots[keep], gf.inv(int(dots[pivot])))
    opp = opp[keep] ^ gf.mul_arr(f[:, None], opp[pivot])
    rows, syn = _block(t, block)
    same_rows, same_syn = np.vstack([rows, w]), np.append(syn, eta)
    if block == "x":
        return CssTableau(gf, t.n, same_rows, opp[:, :-1], same_syn, opp[:, -1])
    return CssTableau(gf, t.n, opp[:, :-1], same_rows, opp[:, -1], same_syn)


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
