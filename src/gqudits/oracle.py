"""Brute-force dense statevector engine over (C^q)^(tensor n).

Ground truth for the tableau, gate, and code modules at tiny n.  Basis
kets are indexed by tuples in F_q^n, row-major with the leftmost qudit as
the most significant digit; since q = 2^s, vector addition over F_q^n is
plain XOR on packed indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import bases as _bases
from .errors import DimensionMismatch, FullTableauRequired, PureTypeRequired, TooLarge
from .field import GF
from .pauli import PauliWord

if TYPE_CHECKING:
    from .tableau import CssTableau

ATOL = 1e-8
DIM_CAP = 1 << 14


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

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.gf.q**self.n
        if self.mat.shape != (d, d):
            raise DimensionMismatch(f"expected {d} x {d} matrix, got {self.mat.shape}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_unitary(self) -> bool:
        d = self.dim
        return bool(np.allclose(self.mat.conj().T @ self.mat, np.eye(d), atol=1e-10))

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
    int8 array built once per (gf, n)."""
    digits = all_digits(gf, n)
    chi = (1 - 2 * gf.trace_arr(gf.matmul(digits, digits.T))).astype(np.int8)
    chi.setflags(write=False)
    return chi


def _check_cap(gf: GF, n: int) -> int:
    d = gf.q**n
    if d > DIM_CAP:
        raise TooLarge(f"q^n = {d} exceeds cap {DIM_CAP}")
    return d


def _trace_dot_with(gf: GF, codes: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """tr(codes . u) for every digit row u; values in {0, 1}."""
    return gf.trace_arr(gf.matvec(digits, codes))


# -- Pauli matrices and projectors ------------------------------------------------


def _pauli_action(P: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    """(targets, phases) with P |u> = phases[u] |targets[u]> for every ket u:
    targets = u + x and phases = sign * (-1)^tr(z . u), the constant sign
    for a word with no Z part."""
    gf = P.gf
    d = _check_cap(gf, P.n)
    targets = np.arange(d, dtype=np.int64) ^ index_of(gf, P.x_array)
    if not any(P.zvec):
        return targets, np.full(d, P.sign, dtype=np.int64)
    phases = P.sign * (1 - 2 * _trace_dot_with(gf, P.z_array, all_digits(gf, P.n)))
    return targets, phases


def pauli_matrix(P: PauliWord) -> DenseOperator:
    """Dense matrix of sign * X^x Z^z: maps |u> to sign*(-1)^tr(z.u) |u+x>."""
    targets, phases = _pauli_action(P)
    mat = np.zeros((targets.size, targets.size), dtype=np.complex128)
    mat[targets, np.arange(targets.size)] = phases
    return DenseOperator(P.gf, P.n, mat)


def _require_measurable(P: PauliWord) -> None:
    if not P.is_pure() or P.sign != 1:
        raise PureTypeRequired("measurement semantics need an unsigned pure-type word")


def power_matrices(P: PauliWord) -> list[np.ndarray]:
    """Matrices of P^mu for every mu in F_q."""
    _require_measurable(P)
    return [pauli_matrix(P.power(mu)).mat for mu in P.gf.elements()]


def projectors(P: PauliWord) -> list[np.ndarray]:
    """The q syndrome projectors Pi_eta = q^-1 sum_mu (-1)^tr(mu eta) P^mu."""
    mats = np.array(power_matrices(P))
    return list(np.tensordot(_chi_matrix(P.gf, 1), mats, axes=1) / P.gf.q)


# -- stabiliser states --------------------------------------------------------------


def stabiliser_state(t: "CssTableau") -> StateVector:
    """The unique state fixed by every P^mu of a full tableau's rows.

    Built directly as sum over u in L_X of (-1)^tr(u . t0) |x0 + u>, where
    x0 solves the Z-syndrome constraints and t0 the X-syndrome constraints;
    the defining eigen-equations are then re-checked exactly.
    """
    from . import linalg

    gf = t.gf
    if not t.is_full:
        raise FullTableauRequired(f"m_X + m_Z = {t.m_x + t.m_z} != n = {t.n}")
    d = _check_cap(gf, t.n)

    x0 = linalg.solve(gf, t.zrows, t.zsyn) if t.m_z else np.zeros(t.n, dtype=np.int64)
    t0 = linalg.solve(gf, t.xrows, t.xsyn) if t.m_x else np.zeros(t.n, dtype=np.int64)
    if x0 is None or t0 is None:
        raise RuntimeError("inconsistent constraints in a validated tableau")

    msgs = all_digits(gf, t.m_x) if t.m_x else np.zeros((1, 0), dtype=np.int64)
    words = gf.matmul(msgs, t.xrows) if t.m_x else np.zeros((1, t.n), dtype=np.int64)
    amps = np.zeros(d, dtype=np.int64)
    amps[index_of(gf, words ^ x0)] = 1 - 2 * _trace_dot_with(gf, t0, words)

    _verify_eigen_equations(t, amps)
    vec = amps.astype(np.complex128)
    return StateVector(gf, t.n, vec / np.linalg.norm(vec))


def _verify_eigen_equations(t: "CssTableau", amps: np.ndarray) -> None:
    """Exact +-1 check of every defining relation of the tableau.

    One pass over mu in F_q checks P^mu for all X rows and all Z rows at
    once; each temporary is (rows, q^n), never (q, q^n).  A Z row's phase
    times its syndrome sign is (-1)^tr(mu (row . u + syn)), as the trace is
    additive.
    """
    gf = t.gf
    mus = np.arange(gf.q, dtype=np.int64)[:, None]
    xsigns = 1 - 2 * gf.trace_arr(gf.mul_arr(mus, t.xsyn))  # (q, m_x)
    xshifts = index_of(gf, gf.mul_arr(mus[:, :, None], t.xrows))  # (q, m_x): mu * row
    zvals = gf.matmul(t.zrows, all_digits(gf, t.n).T) ^ t.zsyn[:, None]  # (m_z, q^n)
    kets = np.arange(amps.size, dtype=np.int64)
    x_ok = z_ok = True
    for mu in gf.elements():
        moved = amps[kets ^ xshifts[mu][:, None]] * xsigns[mu][:, None]
        x_ok = x_ok and bool(np.all(moved == amps))
        phases = 1 - 2 * gf.trace_arr(gf.mul_arr(mu, zvals))
        z_ok = z_ok and bool(np.all(phases * amps == amps))
    if not x_ok:
        raise RuntimeError("constructed state violates an X eigen-equation")
    if not z_ok:
        raise RuntimeError("constructed state violates a Z eigen-equation")


# -- syndrome extraction -----------------------------------------------------------


def syndrome_component(psi: StateVector, P: PauliWord):
    """The eta with P^mu |psi> = (-1)^tr(mu eta) |psi> for all mu, if any.

    Returns NOT_EIGENSTATE when no field element fits within tolerance.
    Testing mu over an F_2-basis suffices: P^mu is multiplicative in mu for
    pure-type words, so the basis relations extend exactly.
    """
    gf = psi.gf
    _require_measurable(P)
    if P.n != psi.n or P.gf != gf:
        raise DimensionMismatch("word and state live on different systems")
    bits = []
    for i in range(gf.s):
        targets, phases = _pauli_action(P.power(1 << i))
        moved = np.empty_like(psi.amps)
        moved[targets] = phases * psi.amps
        if np.max(np.abs(moved - psi.amps)) <= ATOL:
            bits.append(0)
        elif np.max(np.abs(moved + psi.amps)) <= ATOL:
            bits.append(1)
        else:
            return NOT_EIGENSTATE
    return _bases.polynomial_basis(gf).dual().recompose(bits)


def born_probabilities(psi: StateVector, P: PauliWord) -> np.ndarray:
    """Probability of each syndrome outcome eta in code order."""
    projs = projectors(P)
    probs = np.array([float(np.vdot(pr @ psi.amps, pr @ psi.amps).real) for pr in projs])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def collapse(psi: StateVector, P: PauliWord, eta: int) -> StateVector:
    """Renormalised projection of psi onto the syndrome-eta sector."""
    pr = projectors(P)[eta]
    vec = pr @ psi.amps
    nrm = np.linalg.norm(vec)
    if nrm < ATOL:
        raise ValueError(f"outcome {eta} has zero probability")
    return StateVector(psi.gf, psi.n, vec / nrm)


def measure_projective(
    psi: StateVector, P: PauliWord, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample a syndrome component with Born probabilities and collapse."""
    probs = born_probabilities(psi, P)
    eta = int(rng.choice(psi.gf.q, p=probs))
    return eta, collapse(psi, P, eta)


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
