"""Brute-force dense statevector engine over (C^q)^(tensor n).

Ground truth for the tableau, gate, and code modules at tiny n.  Basis
kets are indexed by tuples in F_q^n, row-major with the leftmost qudit as
the most significant digit; since q = 2^s, vector addition over F_q^n is
plain XOR on packed indices.

Pauli powers act through one table, _power_actions: P^mu |u> =
phases[u] |targets[u]>.  DenseOperator.from_action scatters it to a matrix;
_apply_powers gathers it onto states, so every measurement reads q d
amplitudes (the sectors Pi_eta psi), never a (q, d, d) stack.

An operator is one of three node kinds: it carries its monomial action
(targets, phases), set by from_action; it carries the clifford marker, every
conjugate of a single-site X/Z generator being a Pauli (the Hadamard, see
gates.build_gate); or it is dense only, as every DenseOperator(gf, n, mat)
is.  Only the package's constructors set a form.  A formed operator's .mat is
read-only, and assigning a new .mat drops the form, so the two cannot drift
apart; a dense-only .mat stays writable.

stabiliser_state, syndrome_component, born_probabilities, collapse and
states_equal_up_to_phase also take stacks: a list or tuple of tableaux with
one (q, n, m_X), or of states on one system with one word or one state
each, checked and computed by one set of array operations.  A single
argument is the batch of one and returns what it always did, so a stack is
never a second implementation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import TYPE_CHECKING

import numpy as np

from . import bases as _bases
from .errors import DimensionMismatch, FullTableauRequired, TooLarge
from .field import GF, values_equal
from .pauli import PauliWord

if TYPE_CHECKING:
    from .tableau import CssTableau

ATOL = 1e-8
UNITARY_ATOL = 1e-10  # off the diagonal of U^dag U; gates._monomial reads zero under it
DIM_CAP = 1 << 14
SECTOR_CAP = 1 << 22  # entries of a sector stack or dense operator: 64 MiB of complex128


class NotEigenstate:
    """Sentinel result: the state has no syndrome component under the word."""

    def __repr__(self) -> str:
        return "NOT_EIGENSTATE"


NOT_EIGENSTATE = NotEigenstate()


@dataclass(eq=False)
class StateVector:
    gf: GF
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.gf.q**self.n,):
            raise DimensionMismatch(
                f"expected {self.gf.q ** self.n} amplitudes, got {self.amps.shape}"
            )

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalised(self) -> "StateVector":
        return StateVector(self.gf, self.n, self.amps / np.linalg.norm(self.amps))

    __eq__ = values_equal


@dataclass(eq=False)
class DenseOperator:
    gf: GF
    n: int
    mat: np.ndarray
    # the forms, set only by the package's constructors (see _formed)
    action: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    clifford: bool = dataclasses.field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.gf.q**self.n
        if self.mat.shape != (d, d):
            raise DimensionMismatch(f"expected {d} x {d} matrix, got {self.mat.shape}")

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name == "mat":  # a new matrix drops the form of the old one
            super().__setattr__("action", None)
            super().__setattr__("clifford", False)

    __eq__ = values_equal  # the forms are not compared

    @classmethod
    def from_action(cls, gf: GF, n: int, targets: np.ndarray, phases) -> "DenseOperator":
        """The monomial operator mapping |u> to phases[u] |targets[u]> (phases
        may be one scalar).  It carries (targets, phases) as its action when
        targets is a permutation and every |phases[u]| = 1 within
        UNITARY_ATOL / 4, as gates._monomial reads them; otherwise it is
        dense only."""
        d = targets.size
        _check_entries(d**2)
        mat = np.zeros((d, d), dtype=np.complex128)
        mat[targets, np.arange(d)] = phases
        action = (targets.astype(np.int64), np.broadcast_to(phases, (d,)).astype(np.complex128))
        if not (
            np.all(action[0] >= 0)
            and np.all(np.bincount(action[0], minlength=d) == 1)
            and np.all(np.abs(np.abs(action[1]) - 1.0) <= UNITARY_ATOL / 4)
        ):
            return cls(gf, n, mat)
        return cls._formed(gf, n, mat, action=action)

    @classmethod
    def _formed(cls, gf: GF, n: int, mat: np.ndarray, action=None, clifford=False) -> "DenseOperator":
        """The operator with matrix mat and its form: action, a (targets,
        phases) pair with mat|u> = phases[u] |targets[u]>, or clifford, set
        when mat maps every single-site X/Z generator to a Pauli by
        conjugation.  With a form, mat and the action arrays are made
        read-only."""
        op = cls(gf, n, mat)
        if action is not None or clifford:
            for array in (op.mat, *(action or ())):
                array.setflags(write=False)
            op.action, op.clifford = action, clifford
        return op

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_unitary(self) -> bool:
        d = self.dim
        return bool(np.allclose(self.mat.conj().T @ self.mat, np.eye(d), atol=UNITARY_ATOL))

    def apply(self, psi: StateVector) -> StateVector:
        if psi.gf != self.gf or psi.n != self.n:
            raise DimensionMismatch("operator and state live on different systems")
        return StateVector(self.gf, self.n, self.mat @ psi.amps)


# -- index bookkeeping ---------------------------------------------------------


def _shifts(gf: GF, n: int) -> np.ndarray:
    """Bit offset of each of n digits in a packed index, leftmost first."""
    return gf.s * np.arange(n - 1, -1, -1, dtype=np.int64)


def index_of(gf: GF, digits):
    """Packed index of every (..., n) digit row (leftmost digit most
    significant), by one shift and one OR-reduction; one (n,) row gives an
    int.  Inverse of all_digits."""
    digits = gf.check_codes(digits)
    idx = np.bitwise_or.reduce(digits << _shifts(gf, digits.shape[-1]), axis=-1)
    return int(idx) if digits.ndim == 1 else idx


def all_digits(gf: GF, n: int) -> np.ndarray:
    """(q^n, n) array of every digit vector in index order."""
    idx = np.arange(gf.q**n, dtype=np.int64)
    return (idx[:, None] >> _shifts(gf, n)) & (gf.q - 1)


@lru_cache(maxsize=None)
def _chi_matrix(gf: GF, n: int) -> np.ndarray:
    """CHI[b, j] = (-1)^tr(b . j) over packed indices b, j, as a read-only
    int8 array built once per (gf, n).  (-1)^tr(b . j) is the product of its
    one-site factors (-1)^tr(b_i j_i), and the packed index puts the leftmost
    digit first, so CHI is the n-fold Kronecker power of the one-site table,
    O(d^2) bytes where the F_q product over all digit rows holds n d^2 codes."""
    digits = all_digits(gf, 1)
    one = (1 - 2 * gf.trace_arr(gf.matmul(digits, digits.T))).astype(np.int8)
    chi = reduce(np.kron, [one] * n, np.ones((1, 1), dtype=np.int8))
    chi.setflags(write=False)
    return chi


def _check_cap(gf: GF, n: int) -> int:
    d = gf.q**n
    if d > DIM_CAP:
        raise TooLarge(f"q^n = {d} exceeds cap {DIM_CAP}")
    return d


def _stack(item) -> tuple[list, bool]:
    """(members, single): a list or tuple is a stack, whose members live on one
    system; anything else is the batch of one."""
    single = not isinstance(item, (list, tuple))
    members = [item] if single else list(item)
    if not members:
        raise DimensionMismatch("an empty stack")
    if any((m.gf, m.n) != (members[0].gf, members[0].n) for m in members):
        raise DimensionMismatch("the members of a stack live on different systems")
    return members, single


# -- Pauli actions, matrices and sectors ----------------------------------------------


def _power_actions(P, mus=None) -> tuple[np.ndarray, np.ndarray]:
    """(targets, phases), each (len(mus), q^n), with P^mu |u> = phases[i, u]
    |targets[i, u]> for mu = mus[i]: u + mu x and sign * (-1)^tr(mu (z . u)),
    the constant sign when no word has a Z part.  mu != 1 needs a pure-type
    word; mus None is mu = 1 alone (one row), with no F_q product.  A stack
    of k words gives (k, len(mus), q^n) each."""
    words, single = _stack(P)
    gf, n, k = words[0].gf, words[0].n, len(words)
    d = _check_cap(gf, n)
    if mus is not None:
        mus = np.asarray(mus)[:, None]
    xs = np.array([w.xvec for w in words], dtype=np.int64).reshape(k, 1, n)
    zs = np.array([w.zvec for w in words], dtype=np.int64).reshape(k, n)
    signs = np.array([w.sign for w in words], dtype=np.int64)[:, None, None]
    mx = xs if mus is None else gf.mul_arr(mus, xs)
    targets = np.arange(d, dtype=np.int64) ^ index_of(gf, mx)[..., None]
    if not zs.any():
        phases = np.broadcast_to(signs, targets.shape).copy()
    else:
        zu = gf.matmul(all_digits(gf, n), zs.T).T[:, None, :]
        phases = signs * (1 - 2 * gf.trace_arr(zu if mus is None else gf.mul_arr(mus, zu)))
    return (targets[0], phases[0]) if single else (targets, phases)


def pauli_matrix(P: PauliWord) -> DenseOperator:
    """Dense matrix of sign * X^x Z^z: maps |u> to sign*(-1)^tr(z.u) |u+x>."""
    (targets,), (phases,) = _power_actions(P)
    return DenseOperator.from_action(P.gf, P.n, targets, phases)


def _apply_powers(words: list, mus, amps: np.ndarray) -> np.ndarray:
    """(k, len(mus), d) stack of P^mu amps[i] over the k rows of amps, by one
    gather, with one word for every row or one word a row: P^mu is a
    translation u -> u ^ c, its own inverse, so (P^mu a)[v] = phases[t] a[t]
    at t = targets[v]."""
    targets, phases = _power_actions(words, mus)
    moved = phases * amps[:, None, :]
    rows = np.arange(moved.shape[0])[:, None, None]
    return moved[rows, np.arange(moved.shape[1])[:, None], targets]


def _check_entries(count: int) -> None:
    """TooLarge, before it is built, for an array of more than SECTOR_CAP entries."""
    if count > SECTOR_CAP:
        raise TooLarge(f"{count} entries exceed cap {SECTOR_CAP}")


def _sectors(words: list, amps: np.ndarray) -> np.ndarray:
    """(k, q, d) stack of Pi_eta amps[i] over the k rows of amps, Pi_eta =
    q^-1 sum_mu (-1)^tr(mu eta) P^mu, with words as in _apply_powers; the
    callers check that they are measurable.  TooLarge, before anything is
    built, for a stack of more than SECTOR_CAP entries."""
    gf = words[0].gf
    _check_entries(gf.q * amps.size)
    return np.matmul(_chi_matrix(gf, 1), _apply_powers(words, gf.elements(), amps)) / gf.q


def _require_measurable(P: PauliWord, psi: StateVector) -> None:
    P.require_pure()
    if P.n != psi.n or P.gf != psi.gf:
        raise DimensionMismatch("word and state live on different systems")


def _measurable(psi, P) -> tuple[list, list, bool]:
    """(states, words, single) of one state and word, or of a stack of states
    with one measurable word each."""
    states, single = _stack(psi)
    words = [P] if single else list(P)
    if len(words) != len(states):
        raise DimensionMismatch(f"{len(words)} words for {len(states)} states")
    for w, s in zip(words, states):
        _require_measurable(w, s)
    return states, words, single


def projectors(P: PauliWord) -> list[np.ndarray]:
    """The q syndrome projectors Pi_eta, the sectors of the identity's columns."""
    P.require_pure()
    d = _check_cap(P.gf, P.n)
    _check_entries(P.gf.q * d * d)  # before the identity is built
    return list(_sectors([P], np.eye(d, dtype=np.complex128)).transpose(1, 2, 0))


# -- stabiliser states --------------------------------------------------------------


def stabiliser_state(t: "CssTableau | list") -> StateVector | list[StateVector]:
    """The unique state fixed by every P^mu of a full tableau's rows.

    Built directly as the sum over c in F_q^m_X of (-1)^tr(c . xsyn)
    |x0 + c R_X>, x0 solving the Z-syndrome constraints: as R_X t0 = xsyn for
    any t0 solving the X ones, that is sum over u in L_X of (-1)^tr(u . t0)
    |x0 + u>.  The kets and their sign bits double once per X row r with
    syndrome sigma, to (ket ^ index(mu r), bit ^ tr(mu sigma)) for every mu,
    which keeps the all_digits order of c and never holds a (q^m_X, m_X, n)
    product.  The eigen-equations are then re-checked exactly, X block first.

    A stack of full tableaux with one (q, n, m_X) gives the list of their
    states: one linalg.solve per tableau, then one set of array operations.
    """
    from . import linalg

    ts, single = _stack(t)
    gf, n, k, m_x = ts[0].gf, ts[0].n, len(ts), ts[0].m_x
    for u in ts:
        if not u.is_full:
            raise FullTableauRequired(f"m_X + m_Z = {u.m_x + u.m_z} != n = {u.n}")
        if u.m_x != m_x:
            raise DimensionMismatch("the tableaux of a stack differ in m_X")
    d = _check_cap(gf, n)

    x0 = [linalg.solve(gf, u.zrows, u.zsyn) for u in ts]
    if any(x is None for x in x0):
        raise RuntimeError("inconsistent constraints in a validated tableau")

    kets = index_of(gf, np.array(x0, dtype=np.int64).reshape(k, n))[:, None]
    bits = np.zeros_like(kets)
    rows = gf.mul_arr(np.arange(gf.q)[:, None], np.array([u.x for u in ts])[:, :, None, :])
    row_kets, row_bits = index_of(gf, rows[..., :-1]), gf.trace_arr(rows[..., -1])
    for i in range(m_x):
        kets = (kets[:, :, None] ^ row_kets[:, i, None, :]).reshape(k, -1)
        bits = (bits[:, :, None] ^ row_bits[:, i, None, :]).reshape(k, -1)
    amps = np.zeros((k, d), dtype=np.int64)
    amps[np.arange(k)[:, None], kets] = 1 - 2 * bits

    _verify_eigen_equations(ts, amps)
    vec = amps.astype(np.complex128)
    states = [StateVector(gf, n, v) for v in vec / np.linalg.norm(vec, axis=1, keepdims=True)]
    return states[0] if single else states


def _verify_eigen_equations(t: "CssTableau | list", amps: np.ndarray) -> None:
    """Check that P^mu amps = (-1)^tr(mu syn) amps for each row word P with
    syndrome syn and every mu in F_q, one block at a time, X rows first.

    mu over the F_2-basis 2^i suffices, as P^mu is multiplicative in mu.  X
    block: (X^(mu row) amps)[u] = amps[u ^ index(mu row)], so one gather is
    compared with (1 - 2 tr(mu syn)) amps.  Z block: Z^(mu row) multiplies
    amps[u] by (-1)^tr(mu (row . u)), so every u in the support of amps must
    have row . u = syn, one F_q product.  Exact, as amps and every phase are
    integers.  A stack of tableaux with one (q, n, m_X) is checked against
    the rows of (k, d) amps by the same operations, and the RuntimeError
    names the block of the first member that fails, X before Z."""
    ts, _ = _stack(t)
    gf, n, k = ts[0].gf, ts[0].n, len(ts)
    amps = amps.reshape(k, -1)
    mus = 1 << np.arange(gf.s, dtype=np.int64)
    x = gf.mul_arr(mus[:, None, None, None], np.array([u.x for u in ts]))  # (s, k, m_X, n + 1)
    shifts = index_of(gf, x[..., :-1])[..., None]
    moved = amps[np.arange(k)[:, None, None], np.arange(amps.shape[1]) ^ shifts]
    signs = 1 - 2 * gf.trace_arr(x[..., -1])
    x_bad = np.any(moved != signs[..., None] * amps[:, None], axis=(0, 2, 3))
    del moved  # before the Z block's product
    z = np.array([u.z for u in ts])  # (k, m_Z, n + 1)
    support = np.flatnonzero(amps.any(axis=0))
    zu = gf.matmul(all_digits(gf, n)[support], z[..., :-1].reshape(-1, n).T)
    violated = (zu.reshape(support.size, k, -1) != z[..., -1]) & (amps[:, support].T != 0)[..., None]
    z_bad = np.any(violated, axis=(0, 2))
    bad = np.flatnonzero(x_bad | z_bad)
    if bad.size:
        block = "an X" if x_bad[bad[0]] else "a Z"
        raise RuntimeError(f"constructed state violates {block} eigen-equation")


# -- syndrome extraction -----------------------------------------------------------


def syndrome_component(psi: StateVector | list, P: PauliWord | list):
    """The eta with P^mu |psi> = (-1)^tr(mu eta) |psi> for all mu, if any.

    Returns NOT_EIGENSTATE when no field element fits within tolerance.
    Testing mu over an F_2-basis suffices: P^mu is multiplicative in mu for
    pure-type words, so the basis relations extend exactly.  A stack of
    states with one word each gives the list of their components.
    """
    states, words, single = _measurable(psi, P)
    gf = states[0].gf
    amps = np.array([s.amps for s in states])
    moved = _apply_powers(words, 1 << np.arange(gf.s), amps)
    plus = np.max(np.abs(moved - amps[:, None]), axis=2) <= ATOL
    minus = np.max(np.abs(moved + amps[:, None]), axis=2) <= ATOL
    bits = (~plus).astype(np.int64)  # within ATOL both ways reads as bit 0
    etas = _bases.polynomial_basis(gf).dual().recompose(bits)
    out = [int(e) if ok else NOT_EIGENSTATE for e, ok in zip(etas, np.all(plus | minus, axis=1))]
    return out[0] if single else out


def _born(states: list, words: list) -> tuple[np.ndarray, np.ndarray]:
    """The (k, q, d) sectors of a stack of states and the (k, q) probability
    of each, in code order."""
    sectors = _sectors(words, np.array([s.amps for s in states]))
    probs = np.sum(np.abs(sectors) ** 2, axis=2)
    total = probs.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("a zero-norm state has no Born probabilities")
    return sectors, probs / total


def _normalised_sectors(states: list, sectors: np.ndarray, etas) -> list[list[StateVector]]:
    """For each state, its sectors at its row of etas, each renormalised."""
    gf = states[0].gf
    etas = gf.check_codes(etas)
    if etas.ndim != 2 or len(etas) != len(states):
        raise DimensionMismatch(f"outcomes of shape {etas.shape} for {len(states)} states")
    vecs = sectors[np.arange(len(states))[:, None], etas]
    norms = np.linalg.norm(vecs, axis=2, keepdims=True)
    zero = norms[..., 0] < ATOL
    if zero.any():
        raise ValueError(f"outcome {etas[zero][0]} has zero probability")
    return [[StateVector(gf, s.n, v) for v in row] for s, row in zip(states, vecs / norms)]


def born_probabilities(psi: StateVector | list, P: PauliWord | list) -> np.ndarray:
    """Probability of each syndrome outcome eta in code order: (q,), or
    (k, q) for a stack of states with one word each."""
    states, words, single = _measurable(psi, P)
    probs = _born(states, words)[1]
    return probs[0] if single else probs


def collapse(psi: StateVector | list, P: PauliWord | list, eta):
    """Renormalised projection of psi onto the syndrome-eta sector.

    A stack of states with one word each takes a sequence of outcomes per
    state, and gives for each state the list of its collapses, all read from
    one sector stack."""
    states, words, single = _measurable(psi, P)
    sectors = _sectors(words, np.array([s.amps for s in states]))
    out = _normalised_sectors(states, sectors, [[eta]] if single else eta)
    return out[0][0] if single else out


def measure_projective(
    psi: StateVector, P: PauliWord, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample a syndrome component with Born probabilities and collapse."""
    _require_measurable(P, psi)
    sectors, (probs,) = _born([psi], [P])
    eta = int(rng.choice(psi.gf.q, p=probs))
    return eta, _normalised_sectors([psi], sectors, [[eta]])[0][0]


def states_equal_up_to_phase(a: StateVector | list, b: StateVector | list) -> bool | list[bool]:
    """Whether b = phase * a with |phase| = 1, within ATOL.  The phase is
    read at a's largest amplitude; where that or b's entry there is below
    ATOL, the states are compared as they are.  States of different shapes
    differ.  Two equal-length stacks, each on one system, give the list of
    their members' verdicts, by one set of array operations."""
    single = not isinstance(a, (list, tuple))
    if not single and len(a) != len(b):
        raise DimensionMismatch(f"stacks of {len(a)} and {len(b)} states")
    if not single and not a:
        return []
    (a, _), (b, _) = _stack(a), _stack(b)
    A, B = np.array([s.amps for s in a]), np.array([s.amps for s in b])
    if A.shape != B.shape:
        out = [False] * len(a)
    else:
        rows = np.arange(len(a))
        i = np.argmax(np.abs(A), axis=1)
        ai, bi = A[rows, i], B[rows, i]
        raw = (np.abs(ai) < ATOL) | (np.abs(bi) < ATOL)
        phase = np.where(raw, 1.0, bi / np.where(raw, 1.0, ai))
        unit = raw | (np.abs(np.abs(phase) - 1.0) <= ATOL)
        out = (unit & (np.max(np.abs(phase[:, None] * A - B), axis=1) <= ATOL)).tolist()
    return out[0] if single else out
