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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import TYPE_CHECKING

import numpy as np

from . import bases as _bases
from .errors import DimensionMismatch, FullTableauRequired, TooLarge
from .field import GF
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


@dataclass
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


@dataclass
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
    digits = np.asarray(digits, dtype=np.int64)
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


# -- Pauli actions, matrices and sectors ----------------------------------------------


def _power_actions(P: PauliWord, mus) -> tuple[np.ndarray, np.ndarray]:
    """(targets, phases), each (len(mus), q^n), with P^mu |u> = phases[i, u]
    |targets[i, u]> for mu = mus[i]: u + mu x and sign * (-1)^tr(mu (z . u)),
    the constant sign with no Z part.  mu != 1 needs a pure-type word."""
    gf = P.gf
    d = _check_cap(gf, P.n)
    mus = np.asarray(mus, dtype=np.int64)[:, None]
    targets = np.arange(d, dtype=np.int64) ^ index_of(gf, gf.mul_arr(mus, P.x_array))[:, None]
    if not any(P.zvec):
        return targets, np.full(targets.shape, P.sign, dtype=np.int64)
    zu = gf.matmul(all_digits(gf, P.n), P.z_array)
    return targets, P.sign * (1 - 2 * gf.trace_arr(gf.mul_arr(mus, zu)))


def pauli_matrix(P: PauliWord) -> DenseOperator:
    """Dense matrix of sign * X^x Z^z: maps |u> to sign*(-1)^tr(z.u) |u+x>."""
    (targets,), (phases,) = _power_actions(P, [1])
    return DenseOperator.from_action(P.gf, P.n, targets, phases)


def _apply_powers(P: PauliWord, mus, amps: np.ndarray) -> np.ndarray:
    """(len(mus), d, ...) stack of P^mu amps by one gather: P^mu is a translation
    u -> u ^ c, its own inverse, so (P^mu amps)[v] = phases[t] amps[t] at t = targets[v]."""
    targets, phases = _power_actions(P, mus)
    moved = phases.reshape(phases.shape + (1,) * (amps.ndim - 1)) * amps
    return moved[np.arange(len(targets))[:, None], targets]


def _check_entries(count: int) -> None:
    """TooLarge, before it is built, for an array of more than SECTOR_CAP entries."""
    if count > SECTOR_CAP:
        raise TooLarge(f"{count} entries exceed cap {SECTOR_CAP}")


def _sectors(P: PauliWord, amps: np.ndarray) -> np.ndarray:
    """(q, d, ...) stack of Pi_eta amps, Pi_eta = q^-1 sum_mu (-1)^tr(mu eta)
    P^mu; the callers check that P is measurable.  TooLarge, before anything
    is built, for a stack of more than SECTOR_CAP entries."""
    gf = P.gf
    _check_entries(gf.q * amps.size)
    return np.tensordot(_chi_matrix(gf, 1), _apply_powers(P, gf.elements(), amps), axes=1) / gf.q


def _require_measurable(P: PauliWord, psi: StateVector) -> None:
    P.require_pure()
    if P.n != psi.n or P.gf != psi.gf:
        raise DimensionMismatch("word and state live on different systems")


def projectors(P: PauliWord) -> list[np.ndarray]:
    """The q syndrome projectors Pi_eta, the sectors of the identity."""
    P.require_pure()
    d = _check_cap(P.gf, P.n)
    _check_entries(P.gf.q * d * d)  # before the identity is built
    return list(_sectors(P, np.eye(d, dtype=np.complex128)))


# -- stabiliser states --------------------------------------------------------------


def stabiliser_state(t: "CssTableau") -> StateVector:
    """The unique state fixed by every P^mu of a full tableau's rows.

    Built directly as the sum over c in F_q^m_X of (-1)^tr(c . xsyn)
    |x0 + c R_X>, x0 solving the Z-syndrome constraints: as R_X t0 = xsyn for
    any t0 solving the X ones, that is sum over u in L_X of (-1)^tr(u . t0)
    |x0 + u>.  The eigen-equations are then re-checked exactly, X block first.
    """
    from . import linalg

    gf = t.gf
    if not t.is_full:
        raise FullTableauRequired(f"m_X + m_Z = {t.m_x + t.m_z} != n = {t.n}")
    d = _check_cap(gf, t.n)

    x0 = linalg.solve(gf, t.zrows, t.zsyn)
    if x0 is None:
        raise RuntimeError("inconsistent constraints in a validated tableau")

    coeffs = all_digits(gf, t.m_x)
    kets = index_of(gf, gf.matmul(coeffs, t.xrows) ^ x0)
    amps = np.zeros(d, dtype=np.int64)
    amps[kets] = 1 - 2 * gf.trace_arr(gf.matmul(coeffs, t.xsyn))

    _verify_eigen_equations(t, amps)
    vec = amps.astype(np.complex128)
    return StateVector(gf, t.n, vec / np.linalg.norm(vec))


def _verify_eigen_equations(t: "CssTableau", amps: np.ndarray) -> None:
    """Check that P^mu amps = (-1)^tr(mu syn) amps for each row word P with
    syndrome syn and every mu in F_q, one block at a time, X rows first.

    mu over the F_2-basis 2^i suffices, as P^mu is multiplicative in mu.  X
    block: (X^(mu row) amps)[u] = amps[u ^ index(mu row)], so one (s, m_x, d)
    gather is compared with (1 - 2 tr(mu syn)) amps.  Z block: Z^(mu row)
    multiplies amps[u] by (-1)^tr(mu (row . u)), so every u in the support
    of amps must have row . u = syn, one F_q product.  Exact, as amps and
    every phase are integers."""
    gf = t.gf
    mus = 1 << np.arange(gf.s, dtype=np.int64)
    shifts = index_of(gf, gf.mul_arr(mus[:, None, None], t.xrows))
    signs = 1 - 2 * gf.trace_arr(gf.mul_arr(mus[:, None], t.xsyn))
    moved = amps[np.arange(amps.size) ^ shifts[..., None]]
    if np.any(moved != signs[..., None] * amps):
        raise RuntimeError("constructed state violates an X eigen-equation")
    support = all_digits(gf, t.n)[amps != 0]
    if np.any(gf.matmul(support, t.zrows.T) != t.zsyn):
        raise RuntimeError("constructed state violates a Z eigen-equation")


# -- syndrome extraction -----------------------------------------------------------


def syndrome_component(psi: StateVector, P: PauliWord):
    """The eta with P^mu |psi> = (-1)^tr(mu eta) |psi> for all mu, if any.

    Returns NOT_EIGENSTATE when no field element fits within tolerance.
    Testing mu over an F_2-basis suffices: P^mu is multiplicative in mu for
    pure-type words, so the basis relations extend exactly.
    """
    _require_measurable(P, psi)
    moved = _apply_powers(P, 1 << np.arange(psi.gf.s), psi.amps)
    plus = np.max(np.abs(moved - psi.amps), axis=1) <= ATOL
    minus = np.max(np.abs(moved + psi.amps), axis=1) <= ATOL
    if not np.all(plus | minus):
        return NOT_EIGENSTATE
    bits = (~plus).astype(np.int64)  # within ATOL both ways reads as bit 0
    return _bases.polynomial_basis(psi.gf).dual().recompose(bits)


def _born(psi: StateVector, P: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of psi and the probability of each, in code order."""
    _require_measurable(P, psi)
    sectors = _sectors(P, psi.amps)
    probs = np.sum(np.abs(sectors) ** 2, axis=1)
    if not probs.sum() > 0:
        raise ValueError("a zero-norm state has no Born probabilities")
    return sectors, probs / probs.sum()


def _normalised_sector(psi: StateVector, sectors: np.ndarray, eta: int) -> StateVector:
    vec = sectors[psi.gf.check_code(eta)]
    nrm = np.linalg.norm(vec)
    if nrm < ATOL:
        raise ValueError(f"outcome {eta} has zero probability")
    return StateVector(psi.gf, psi.n, vec / nrm)


def born_probabilities(psi: StateVector, P: PauliWord) -> np.ndarray:
    """Probability of each syndrome outcome eta in code order."""
    return _born(psi, P)[1]


def collapse(psi: StateVector, P: PauliWord, eta: int) -> StateVector:
    """Renormalised projection of psi onto the syndrome-eta sector."""
    _require_measurable(P, psi)
    return _normalised_sector(psi, _sectors(P, psi.amps), eta)


def measure_projective(
    psi: StateVector, P: PauliWord, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample a syndrome component with Born probabilities and collapse."""
    sectors, probs = _born(psi, P)
    eta = int(rng.choice(psi.gf.q, p=probs))
    return eta, _normalised_sector(psi, sectors, eta)


def states_equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    if a.amps.shape != b.amps.shape:
        return False
    i = int(np.argmax(np.abs(a.amps)))
    if abs(a.amps[i]) < ATOL or abs(b.amps[i]) < ATOL:
        return bool(np.max(np.abs(a.amps - b.amps)) <= ATOL)
    phase = b.amps[i] / a.amps[i]
    if abs(abs(phase) - 1.0) > ATOL:
        return False
    return bool(np.max(np.abs(phase * a.amps - b.amps)) <= ATOL)
