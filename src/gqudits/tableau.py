"""CSS stabiliser tableaux over F_q with field-valued syndromes.

A tableau lists independent X-type and Z-type generator rows plus one
syndrome component per row.  Row operations transform syndromes
covariantly (scale: sigma -> mu sigma; add: sigma_j -> sigma_j + sigma_i),
so the defined state is unchanged.  A "full" tableau (m_X + m_Z = n) pins a
unique state and supports pure-type Pauli measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    FullTableauRequired,
    InvalidScale,
    NotCommuting,
    NotCssPreserving,
    PureTypeRequired,
    RankDeficient,
    json_fields,
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
        modulus, xrows, zrows, xsyn, zsyn = json_fields(
            data, "modulus", "xrows", "zrows", "xsyn", "zsyn"
        )
        gf = make_field(modulus=modulus)
        n = max((len(r) for r in xrows + zrows), default=0)
        xrows = np.array(xrows, dtype=np.int64).reshape(len(xrows), n)
        zrows = np.array(zrows, dtype=np.int64).reshape(len(zrows), n)
        return new_tableau(gf, n, xrows, zrows, xsyn, zsyn)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def new_tableau(gf: GF, n: int, xrows, zrows, xsyn, zsyn) -> CssTableau:
    """Validated tableau: F_q syndromes, independent rows, orthogonal blocks."""
    t = CssTableau(gf, n, xrows, zrows, xsyn, zsyn)
    gf.check_codes(t.xsyn)
    gf.check_codes(t.zsyn)
    if linalg.rank(gf, t.xrows) != t.m_x or linalg.rank(gf, t.zrows) != t.m_z:
        raise RankDeficient("generator rows are linearly dependent")
    if t.m_x and t.m_z:
        prods = gf.matmul(t.xrows, t.zrows.T)
        if np.any(prods):
            raise NotCommuting("an X row has non-zero F_q dot with a Z row")
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


def tableaux_equal(a: CssTableau, b: CssTableau) -> bool:
    ca, cb = canonical_form(a), canonical_form(b)
    return (
        ca.gf == cb.gf
        and ca.n == cb.n
        and np.array_equal(ca.xrows, cb.xrows)
        and np.array_equal(ca.zrows, cb.zrows)
        and np.array_equal(ca.xsyn, cb.xsyn)
        and np.array_equal(ca.zsyn, cb.zsyn)
    )


# -- Clifford updates ---------------------------------------------------------


def apply_gate(t: CssTableau, kind: str, *sites, delta: int | None = None) -> CssTableau:
    """Conjugation update for cnot(i, j), hadamard(i), or mult(i, delta).

    Syndromes are unchanged: each row maps to a single rewritten row whose
    F_q power line carries the same eigenvalue pattern.
    """
    gf = t.gf
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
        if delta is None or delta == 0:
            raise InvalidScale("mult update needs a non-zero delta")
        if out.m_x:
            out.xrows[:, i] = gf.mul_arr(out.xrows[:, i], delta)
        if out.m_z:
            out.zrows[:, i] = gf.mul_arr(out.zrows[:, i], gf.inv(delta))
    elif kind == "hadamard":
        (i,) = sites
        for rows in (out.xrows, out.zrows):
            for r in range(rows.shape[0]):
                if rows[r, i] and np.any(np.delete(rows[r], i)):
                    raise NotCssPreserving(
                        f"hadamard on site {i} would mix types in a weight>1 row"
                    )
        xkeep = out.xrows[:, i] == 0
        zkeep = out.zrows[:, i] == 0
        new_x = np.vstack([out.xrows[xkeep], out.zrows[~zkeep]])
        new_xs = np.concatenate([out.xsyn[xkeep], out.zsyn[~zkeep]])
        new_z = np.vstack([out.zrows[zkeep], out.xrows[~xkeep]])
        new_zs = np.concatenate([out.zsyn[zkeep], out.xsyn[~xkeep]])
        return new_tableau(gf, t.n, new_x, new_z, new_xs, new_zs)
    else:
        raise ValueError(f"unsupported tableau gate {kind!r}")
    return out


# -- measurement -------------------------------------------------------------


def _measured_vector(t: CssTableau, P: PauliWord) -> tuple[str, np.ndarray]:
    if not P.is_pure() or P.sign != 1:
        raise PureTypeRequired("measurement needs an unsigned pure-type word")
    if P.gf != t.gf or P.n != t.n:
        raise DimensionMismatch("word and tableau live on different systems")
    if P.is_pure_x() and any(P.xvec):
        return "x", P.x_array
    if any(P.zvec):
        return "z", P.z_array
    return "x", P.x_array  # identity word: trivially in the row span


def deterministic_outcome(t: CssTableau, P: PauliWord) -> int | None:
    """Outcome sum_j c_j sigma_j when P's vector lies in its block's span."""
    if not t.is_full:
        raise FullTableauRequired("measurement is defined on full tableaux")
    block, w = _measured_vector(t, P)
    rows, syn = _block(t, block)
    coeffs = linalg.row_space_coefficients(t.gf, rows, w)
    if coeffs is None:
        return None
    return t.gf.dot(coeffs, syn)


def measure_postselect(t: CssTableau, P: PauliWord, eta: int) -> CssTableau:
    """Tableau update for measuring P with a forced random-branch outcome.

    The first opposite-type row with non-zero F_q dot against P is consumed:
    its overlap is eliminated from every other opposite row, then (P, eta)
    joins the same-type block.  Every outcome has probability 1/q, so any
    forced eta is legal.
    """
    gf = t.gf
    if deterministic_outcome(t, P) is not None:
        raise InvalidScale("outcome is deterministic; cannot postselect freely")
    block, w = _measured_vector(t, P)
    out = t.copy()
    opp = "z" if block == "x" else "x"
    orows, osyn = _block(out, opp)
    dots = gf.matvec(orows, w)
    pivot = int(np.nonzero(dots)[0][0])
    c = int(dots[pivot])
    for k in range(orows.shape[0]):
        if k != pivot and dots[k]:
            f = gf.div(int(dots[k]), c)
            orows[k] ^= gf.mul_arr(orows[pivot], f)
            osyn[k] ^= gf.mul(int(osyn[pivot]), f)
    keep = np.arange(orows.shape[0]) != pivot
    new_same_rows, new_same_syn = _block(out, block)
    new_same_rows = np.vstack([new_same_rows, w[None, :]])
    new_same_syn = np.concatenate([new_same_syn, [eta]])
    if block == "x":
        return new_tableau(gf, t.n, new_same_rows, orows[keep], new_same_syn, osyn[keep])
    return new_tableau(gf, t.n, orows[keep], new_same_rows, osyn[keep], new_same_syn)


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
