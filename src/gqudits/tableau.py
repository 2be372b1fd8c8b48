"""CSS stabiliser tableaux over F_q with field-valued syndromes.

A tableau lists independent X-type and Z-type generator rows, each with one
syndrome component, as (m, n + 1) blocks [rows | syndromes].  Row
operations transform syndromes covariantly (scale: sigma -> mu sigma; add:
sigma_j -> sigma_j + sigma_i), so they act on whole block rows and the
defined state is unchanged.  A "full" tableau (m_X + m_Z = n) pins a
unique state and supports pure-type Pauli measurement.

Each tableau carries one particular solution per block, t0 (row 0 for the
X block, row 1 for the Z block, rows . t0 = syndromes).  ``new_tableau``
reads it off the elimination its rank check runs anyway, with the
syndromes as the carried column; a ``CssTableau`` built by hand copies its
blocks, checks their codes and solves on first use.  Every update passes t0 on in O(n m), with no elimination:

- row operations and ``canonical_form`` keep it, as rows and syndromes move
  together;
- cnot and mult apply the inverse column operation to it;
- hadamard on site i sets each block's t0[i] from the single-site row the
  block gains there (no row left in the block touches site i);
- a random-branch measurement of w with outcome eta adds [w | eta] to the
  same block and recombines the other block against its pivot row r, whose
  t0 still holds; the same block's becomes t0 + lambda r with
  lambda = (eta - w . t0) / (w . r), as every same-type row is orthogonal
  to r.

The blocks and t0 are read-only once built, so writing into a block raises
and a carried solution cannot go stale.

On a full tableau span(X rows) = span(Z rows)^perp, so measuring a word w
eliminates nothing: it is deterministic iff w is orthogonal to every
opposite-type row, with outcome w . t0.  ``sample`` is the one draw rule:
any number of shots on one tableau is one uniform draw.

``measure``, ``measure_postselect``, ``deterministic_outcome`` and
``run_cat_gadget`` also take stacks: a list of full tableaux with one
(q, n, m_X), measured by one word with one set of array operations.  A
single tableau is the batch of one and returns what it always did.
``measure`` draws the random members' outcomes as one draw, in member
order; ``measure_postselect`` takes one outcome per member, and a single
tableau with a sequence of outcomes gives one tableau per outcome, all
sharing its one recombined opposite block.  ``new_tableau`` runs the checks
of a ``CssCode`` (``css.check_blocks``: row widths, ranks and
orthogonality) at the input boundaries (user calls, ``from_json``,
``cat_block_tableau``); the updates keep all three.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import linalg
from .css import check_blocks
from .errors import (
    DimensionMismatch,
    FullTableauRequired,
    InvalidArgument,
    InvalidScale,
    NotCssPreserving,
    RankDeficient,
    json_int_fields,
    json_matrix,
)
from .field import GF, _stack, check_int, field_from_json, values_equal
from .pauli import PauliWord


def _frozen(gf: GF, a) -> np.ndarray:
    """a as a read-only int64 array that nothing can write through: shared
    when it is one already (with a read-only owner), else a copy of
    gf.check_codes(a)."""
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.dtype == np.int64:
        if a.base is None or (isinstance(a.base, np.ndarray) and not a.base.flags.writeable):
            return a
    a = np.array(gf.check_codes(a))
    a.flags.writeable = False
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """A fresh array made read-only with its owner, so that _frozen shares
    its views."""
    if a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


def _solution(gf: GF, n: int, block: np.ndarray) -> np.ndarray:
    """One t0 with rows . t0 = syndromes; RankDeficient if there is none."""
    _, carried, pivots = linalg.rref_augmented(gf, block[:, :-1], block[:, -1:])
    t0 = linalg.particular(n, carried, pivots)
    if t0 is None:
        raise RankDeficient("dependent rows of a block carry inconsistent syndromes")
    return t0


@dataclass
class CssTableau:
    """Blocks x, z: read-only (m, n + 1) int64 [rows | syndromes], checked by
    new_tableau.  _t0 is the carried solution, None on a tableau built by
    hand until t0 is first read."""

    gf: GF
    n: int
    x: np.ndarray
    z: np.ndarray
    _t0: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.n = check_int(self.n, "n", error=DimensionMismatch)
        self.x, self.z = _frozen(self.gf, self.x), _frozen(self.gf, self.z)
        if self._t0 is not None:
            self._t0 = _frozen(self.gf, self._t0)

    __eq__ = values_equal  # not _t0 (compare=False), which follows from the blocks

    @property
    def t0(self) -> np.ndarray:
        """(2, n): xrows . t0[0] = xsyn and zrows . t0[1] = zsyn."""
        if self._t0 is None:
            self._t0 = _readonly(np.array([_solution(self.gf, self.n, b) for b in (self.x, self.z)]))
        return self._t0

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

    def block(self, name: str, *rows: int) -> np.ndarray:
        """The "x" or "z" block; InvalidArgument for any other name and
        DimensionMismatch unless each index in rows is one of its rows."""
        if name not in ("x", "z"):
            raise InvalidArgument(f"block must be 'x' or 'z', got {name!r}")
        out = self.x if name == "x" else self.z
        for i in rows:
            check_int(i, "row", 0, len(out) - 1, DimensionMismatch)
        return out

    def copy(self) -> "CssTableau":
        """A new tableau sharing the read-only blocks and solution."""
        return dataclasses.replace(self)

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
    """Validated tableau: integer F_q syndromes, independent integer rows of
    n entries, orthogonal blocks; t0 comes from the rank checks' eliminations."""
    xsyn, zsyn = gf.check_codes(xsyn).reshape(-1), gf.check_codes(zsyn).reshape(-1)
    xrows, zrows, reduced = check_blocks(gf, n, xrows, zrows, xsyn, zsyn)
    t0 = np.zeros((2, n), dtype=np.int64)
    for side, (carried, pivots) in enumerate(reduced):
        t0[side, pivots] = carried[:, 0]  # full rank: linalg.particular with every row a pivot row
    x, z = np.column_stack([xrows, xsyn]), np.column_stack([zrows, zsyn])
    return CssTableau(gf, n, _readonly(x), _readonly(z), _readonly(t0))


# -- row operations ----------------------------------------------------------


def scale_row(t: CssTableau, block: str, j: int, mu: int) -> CssTableau:
    """Multiply row j (and its syndrome) by a non-zero scalar."""
    if mu == 0:
        raise InvalidScale("row scaling must be by a non-zero field element")
    rows = t.block(block, j).copy()
    rows[j] = t.gf.mul_arr(rows[j], t.gf.check_code(mu))
    return dataclasses.replace(t, **{block: rows})


def add_row(t: CssTableau, block: str, i: int, j: int) -> CssTableau:
    """Add row i into row j (syndromes add too); i != j."""
    rows = t.block(block, i, j).copy()
    if i == j:
        raise InvalidScale("cannot add a row into itself")
    rows[j] ^= rows[i]
    return dataclasses.replace(t, **{block: rows})


def canonical_form(t: CssTableau) -> CssTableau:
    """Unique representative: RREF per block with syndromes carried along."""

    def reduce(block: np.ndarray) -> np.ndarray:
        rows, syn, _ = linalg.rref_augmented(t.gf, block[:, :-1], block[:, -1:])
        return np.hstack([rows, syn])

    return CssTableau(t.gf, t.n, reduce(t.x), reduce(t.z), t._t0)


# -- Clifford updates ---------------------------------------------------------


def apply_gate(t: CssTableau, kind: str, *sites, delta: int | None = None) -> CssTableau:
    """Conjugation update for cnot(i, j), hadamard(i), or mult(i, delta).

    Syndromes are unchanged: each row maps to a single rewritten row whose
    F_q power line carries the same eigenvalue pattern.  hadamard(i) moves
    the rows supported on site i alone to the other block and refuses a
    weight>1 row touching site i, which would no longer be pure-type.
    InvalidArgument for another kind, DimensionMismatch for a bad site or count.
    """
    gf = t.gf
    arity = {"hadamard": 1, "mult": 1, "cnot": 2}.get(kind)
    if arity is None:
        raise InvalidArgument(f"unsupported tableau gate {kind!r}")
    check_int(len(sites), f"number of {kind} sites", arity, arity, DimensionMismatch)
    sites = [check_int(i, "site", 0, t.n - 1, DimensionMismatch) for i in sites]
    if kind == "hadamard":
        (i,) = sites
        rows = np.vstack([t.xrows, t.zrows])
        if np.any((rows[:, i] != 0) & (np.count_nonzero(rows, axis=1) > 1)):
            raise NotCssPreserving(f"hadamard on site {i} would mix types in a weight>1 row")
        xmove = t.x[:, i] != 0
        zmove = t.z[:, i] != 0
        t0 = t.t0.copy()
        for side, gained in enumerate((t.z[zmove], t.x[xmove])):
            for row in gained:  # at most one: a block's rows are independent
                t0[side, i] = gf.mul(gf.inv(int(row[i])), int(row[-1]))
        x = np.vstack([t.x[~xmove], t.z[zmove]])
        z = np.vstack([t.z[~zmove], t.x[xmove]])
        return CssTableau(gf, t.n, x, z, t0)
    x, z, t0 = t.x.copy(), t.z.copy(), t.t0.copy()
    if kind == "cnot":
        i, j = sites
        if i == j:
            raise DimensionMismatch("cnot needs two distinct sites")
        x[:, j] ^= x[:, i]
        z[:, i] ^= z[:, j]
        t0[0, i] ^= t0[0, j]
        t0[1, j] ^= t0[1, i]
    else:
        (i,) = sites
        if delta is None or gf.check_code(delta) == 0:
            raise InvalidScale("mult update needs a non-zero delta")
        inv = gf.inv(delta)
        x[:, i] = gf.mul_arr(x[:, i], delta)
        z[:, i] = gf.mul_arr(z[:, i], inv)
        t0[:, i] = gf.mul_arr(t0[:, i], [inv, delta])
    return CssTableau(gf, t.n, x, z, t0)


# -- measurement -------------------------------------------------------------


@dataclass
class _Measured:
    """A word measured on a stack of k tableaux: side, the block it is
    measured in (0 for X, 1 for Z); its vector w; the stacked same-type and
    opposite-type blocks and (k, 2, n) solutions; dots, w's F_q dot with
    every opposite row (k, m); wt0, w . t0 of each member's same block (its
    outcome when deterministic); and random, the members with a non-zero dot."""

    ts: list
    single: bool
    side: int
    w: np.ndarray
    same: np.ndarray
    opp: np.ndarray
    t0: np.ndarray
    dots: np.ndarray
    wt0: np.ndarray
    random: np.ndarray


def _measured(t, P: PauliWord) -> _Measured:
    ts, single = _stack(t)
    u = ts[0]
    gf, n = u.gf, u.n
    for v in ts:
        if not v.is_full:
            raise FullTableauRequired("measurement is defined on full tableaux")
        if v.m_x != u.m_x:
            raise DimensionMismatch("the tableaux of a stack differ in m_X")
    P.require_pure()
    if P.gf != gf or P.n != n:
        raise DimensionMismatch("word and tableau live on different systems")
    side, w = (1, P.z_array) if any(P.zvec) else (0, P.x_array)  # the identity word is X
    if single:
        x, z, t0 = u.x[None], u.z[None], u.t0[None]
    else:
        x, z, t0 = (np.stack([getattr(v, a) for v in ts]) for a in ("x", "z", "t0"))
    same, opp = (x, z) if side == 0 else (z, x)
    # one product for the dots and w . t0: the codes were checked when the
    # blocks and the word were built
    rows = np.concatenate([opp[..., :-1], t0[:, side, None]], axis=1)
    prods = np.bitwise_xor.reduce(gf._prod(rows, w), axis=2)
    dots = prods[:, :-1]
    return _Measured(ts, single, side, w, same, opp, t0, dots, prods[:, -1], dots.any(axis=1))


def deterministic_outcome(t, P: PauliWord):
    """P's outcome when P's vector w has zero dot with every opposite row
    (so w = c . rows), else None; a list of them for a stack.  The outcome
    sum_j c_j sigma_j is w . t0, as rows . t0 = syn."""
    m = _measured(t, P)
    out = [None if r else int(v) for r, v in zip(m.random, m.wt0)]
    return out[0] if m.single else out


def _postselect(m: _Measured, idx, etas: np.ndarray) -> list[list[CssTableau]]:
    """For each member idx[i] (every member when idx is None), all on the
    random branch, its tableau after postselecting each outcome of the row
    etas[i].

    The first opposite row with a non-zero dot is the pivot r: dots[k] /
    dots[pivot] times it is added to every other opposite row (syndromes
    too), then it is dropped and [w | eta] joins the same-type block.  The
    recombined block is built once a member and shared by its outcomes; the
    same block's solution moves to t0 + lambda r (module docstring).
    """
    gf, side, w = m.ts[0].gf, m.side, m.w
    dots, same, opp, t0, wt0 = m.dots, m.same, m.opp, m.t0, m.wt0
    if idx is not None:
        dots, same, opp, t0, wt0 = dots[idx], same[idx], opp[idx], t0[idx], wt0[idx]
    k, mo, width = opp.shape
    e = etas.shape[1]
    rows = np.arange(k)
    pivot = np.argmax(dots != 0, axis=1)
    inv = gf._inv(dots[rows, pivot])
    r = opp[rows, pivot]
    f = gf._prod(dots, inv[:, None])  # 1 at the pivot, which clears its own row
    opp = opp ^ gf._prod(f[:, :, None], r[:, None, :])
    keep = np.ones((k, mo), dtype=bool)
    keep[rows, pivot] = False
    opp = _readonly(opp[keep].reshape(k, mo - 1, width))
    grown = np.empty((k, e, same.shape[1] + 1, width), dtype=np.int64)
    grown[:, :, :-1] = same[:, None]
    grown[:, :, -1, :-1] = w
    grown[:, :, -1, -1] = etas
    lam = gf._prod(etas ^ wt0[:, None], inv[:, None])
    moved = np.repeat(t0[:, None], e, axis=1)
    moved[:, :, side] ^= gf._prod(lam[:, :, None], r[:, None, :-1])
    grown, moved = _readonly(grown), _readonly(moved)

    def member(i: int, j: int) -> CssTableau:
        blocks = (grown[i, j], opp[i]) if side == 0 else (opp[i], grown[i, j])
        return CssTableau(gf, w.size, *blocks, moved[i, j])

    return [[member(i, j) for j in range(e)] for i in range(k)]


def measure_postselect(t, P: PauliWord, eta):
    """Tableau update for measuring P with forced random-branch outcomes.

    A single tableau and one outcome give one tableau, and a sequence of
    outcomes the list of their tableaux; a stack takes one outcome per
    member and gives the list of its members' tableaux.  Every outcome has
    probability 1/q, so any eta in F_q is legal; a member on the
    deterministic branch raises InvalidScale.  The results keep fullness,
    rank and orthogonality.
    """
    m = _measured(t, P)
    etas = m.ts[0].gf.check_codes(eta)
    if etas.ndim > 1 or (not m.single and etas.shape != (len(m.ts),)):
        raise DimensionMismatch(f"outcomes of shape {etas.shape} for {len(m.ts)} tableaux")
    if not m.random.all():
        raise InvalidScale("outcome is deterministic; cannot postselect freely")
    out = _postselect(m, None, etas.reshape(len(m.ts), -1))
    if not m.single:
        return [row[0] for row in out]
    return out[0][0] if etas.ndim == 0 else out[0]


def _draw(gf: GF, rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, gf.q, size=count, dtype=np.int64)


def sample(t: CssTableau, P: PauliWord, rng: np.random.Generator, shots: int) -> np.ndarray:
    """(shots,) int64 outcomes of measuring P on one tableau t, each shot on t.

    The deterministic outcome repeated, drawing nothing; otherwise one
    uniform draw of shots codes, which gives the same values and leaves the
    same generator state as shots single draws.  InvalidArgument for shots < 0.
    """
    shots = check_int(shots, "shots")
    m = _measured(t, P)
    if not m.single:
        raise DimensionMismatch("sample draws from one tableau")
    if not m.random[0]:
        return np.full(shots, m.wt0[0], dtype=np.int64)
    return _draw(t.gf, rng, shots)


def measure(t, P: PauliWord, rng: np.random.Generator):
    """Measure a pure-type word on a full tableau: (outcome, tableau).

    Deterministic when P's vector lies in the same-type row space, drawing
    nothing and returning t itself; otherwise the outcome is drawn by
    sample's rule and the tableau is updated.  A stack gives (outcomes,
    tableaux), its random members' outcomes drawn as one draw in member
    order.
    """
    m = _measured(t, P)
    outcomes = m.wt0.copy()
    out = list(m.ts)
    hits = np.flatnonzero(m.random)
    if hits.size:
        outcomes[hits] = _draw(m.ts[0].gf, rng, hits.size)
        posts = _postselect(m, None if hits.size == len(out) else hits, outcomes[hits, None])
        for i, (post,) in zip(hits, posts):
            out[i] = post
    outcomes = outcomes.tolist()
    return (outcomes[0], out[0]) if m.single else (outcomes, out)


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
    g1, g2, g3, g4 = gf.check_codes(gammas).tolist()
    if 0 in (g1, g2, g3, g4):
        raise InvalidScale("gadget coefficients must all be non-zero")
    z = [0, 0, 0, 0]
    xrows = [[g1, g2, g3, g4] + z, z + [g1, g2, g3, g4]]
    zpatterns = [[g2, g1, 0, 0], [0, g3, g2, 0], [0, 0, g4, g3]]
    zrows = [p + z for p in zpatterns] + [z + p for p in zpatterns]
    return new_tableau(gf, 8, xrows, zrows, [0, eta], [0] * 6)


def run_cat_gadget(gf: GF, gammas, eta, rng: np.random.Generator):
    """Measure pairwise XX on (j, j+4), then recover eta = sum gamma_j eta_j.

    A stack of gadgets, (k, 4) gammas and k etas, is built one member at a
    time and measured as one stack, one measure call a word: each word's
    random outcomes are one draw over the members.  The first three words
    are random and the fourth deterministic for every member, so the
    members keep one m_X throughout.
    """
    single = gf.check_codes(eta).ndim == 0
    gammas, etas = gf.check_codes([gammas] if single else gammas), [eta] if single else list(eta)
    if gammas.shape != (len(etas), 4):
        raise DimensionMismatch(f"gammas of shape {gammas.shape} for {len(etas)} gadgets")
    ts = [cat_block_tableau(gf, g, e) for g, e in zip(gammas, etas)]
    outcomes = []
    for j in range(4):
        codes = [0] * 8
        codes[j] = 1
        codes[j + 4] = 1
        outs, ts = measure(ts, PauliWord.x_word(gf, codes), rng)
        outcomes.append(outs)
    outcomes = np.array(outcomes, dtype=np.int64).T
    recovered = np.bitwise_xor.reduce(gf.mul_arr(gammas, outcomes), axis=1)
    results = [CatGadgetResult(o, int(r), u) for o, r, u in zip(outcomes.tolist(), recovered, ts)]
    return results[0] if single else results
