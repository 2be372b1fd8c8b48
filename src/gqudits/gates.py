"""The qudit gate zoo, Clifford-hierarchy testing, and the qudit-to-qubit maps.

Gate matrices are dense and tiny.  Hierarchy levels come from one recursion:
a Pauli multiple is at level 1, and any other gate is one level above the
highest level among its conjugates of the single-site X/Z generators over a
fixed F_2-basis.  A node is one of three kinds (see oracle.DenseOperator):
- an action: X, Z, mult, CNOT, CCZ, multi_cz, U_n, S, T, every Pauli, their
  pi_map images and their embed_single embeddings carry their monomial
  (perm, phase) pair, and the level rule runs on it;
- clifford: the Hadamard, its embed_single embeddings and its pi_map images
  carry the marker that every generator conjugate is a Pauli
  (H X^a H^dag = Z^a, H Z^b H^dag = X^b), so they sit at level 2 unless
  they are Pauli multiples, with no conjugation at all;
- dense only: a user matrix.  Such a node is read as monomial when it has
  one unit-modulus non-zero per row and column (entries up to
  oracle.UNITARY_ATOL / 4 read as zero), and otherwise runs on its dense
  matrix and conjugates, each of which goes back through the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .bases import BasisAssignment, FieldBasis
from .errors import DimensionMismatch, InvalidGate, NonUnitary, TooLarge
from .field import GF, _integer, make_field
from .oracle import (
    UNITARY_ATOL, DenseOperator, StateVector, _check_cap, _check_entries, _chi_matrix,
    all_digits, index_of, pauli_matrix,
)
from .pauli import PauliWord

HIERARCHY_DIM_CAP = 1 << 9
_PAULI_ATOL = 1e-8


# -- gate construction ----------------------------------------------------------


def _take(params: dict, kind: str, name: str, integer: bool = False):
    if name not in params:
        raise InvalidGate(f"gate {kind!r} needs parameter {name!r}")
    value = params.pop(name)
    return _integer(value, InvalidGate, f"parameter {name!r}") if integer else value


def build_gate(gf: GF, kind: str, **params) -> DenseOperator:
    """Dense matrix for a named gate, with its form.

    Kinds: x(beta), z(gamma), hadamard, mult(delta), cnot, ccz(gamma),
    multi_cz(l, gamma), u_n(n, beta), s(gamma), t(gamma).  Every kind but
    hadamard is monomial, is scattered from its (perm, phase) action and
    carries it; the Hadamard carries the clifford marker.
    TooLarge for q^sites > oracle.DIM_CAP or a matrix of more than
    oracle.SECTOR_CAP entries, before the matrix is built.
    """
    if kind == "hadamard":
        _check_entries(_check_cap(gf, 1) ** 2)
        # H X^a H^dag = Z^a and H Z^b H^dag = X^b: every generator conjugate is a Pauli
        op = DenseOperator._formed(gf, 1, _chi_matrix(gf, 1) / np.sqrt(gf.q), clifford=True)
    else:
        op = DenseOperator.from_action(gf, *_monomial_action(gf, kind, params))
    if params:
        raise InvalidGate(f"unused parameters for {kind!r}: {sorted(params)}")
    return op


def _monomial_action(gf: GF, kind: str, params: dict) -> tuple[int, np.ndarray, np.ndarray | int]:
    """(sites, perm, phase) of a named monomial gate, which maps |j> to
    phase[j] |perm[j]> (a scalar phase for every j); params are consumed."""
    sites = {"cnot": 2, "ccz": 3}.get(kind, 1)
    if kind == "multi_cz" and (sites := _take(params, kind, "l", integer=True)) < 2:
        raise InvalidGate(f"multi_cz needs l >= 2 sites, got {sites}")
    codes = np.arange(_check_cap(gf, sites), dtype=np.int64)  # the kets, field codes at 1 site
    if kind == "x":
        return 1, codes ^ gf.check_code(_take(params, kind, "beta")), 1
    if kind in ("z", "s", "t"):
        # Z, S and T put root^tr(gamma j) on |j>, root = -1, i and e^(i pi/4)
        gamma = gf.check_code(_take(params, kind, "gamma"))
        root = {"z": -1, "s": 1j, "t": np.exp(1j * np.pi / 4)}[kind]
        return 1, codes, np.array([1, root])[gf.trace_arr(gf.mul_arr(gamma, codes))]
    if kind == "mult":
        delta = gf.check_code(_take(params, kind, "delta"))
        if delta == 0:
            raise NonUnitary("multiplication by 0 is not unitary")
        return 1, gf.mul_arr(delta, codes), 1
    if kind == "cnot":
        return 2, codes ^ (codes >> gf.s), 1  # e1 * q + e2 -> e1 * q + (e2 ^ e1)
    if kind in ("ccz", "multi_cz"):
        gamma = gf.check_code(_take(params, kind, "gamma"))
        prod = reduce(gf.mul_arr, all_digits(gf, sites).T)
        return sites, codes, 1 - 2 * gf.trace_arr(gf.mul_arr(gamma, prod))
    if kind == "u_n":
        npow = _take(params, kind, "n", integer=True)
        beta = gf.check_code(_take(params, kind, "beta"))
        if npow < 1:
            raise InvalidGate("u_n needs a power n >= 1")
        return 1, codes, 1 - 2 * gf.trace_arr(gf.mul_arr(beta, gf.pow(codes, npow)))
    raise InvalidGate(f"unknown gate kind {kind!r}")


def embed_single(gf: GF, n: int, site: int, U: DenseOperator) -> DenseOperator:
    """Tensor a single-qudit operator into an n-qudit identity background.
    The form of U carries over: an action acts on the digit at site, and a
    clifford U stays clifford, its generators elsewhere being fixed."""
    if U.n != 1:
        raise DimensionMismatch("embed_single takes a 1-qudit operator")
    if not 0 <= site < n:
        raise DimensionMismatch(f"site {site} outside [0, {n})")
    if U.dim != gf.q:
        raise DimensionMismatch(f"a {U.dim}-level operator on {gf.q}-level qudits")
    _check_entries(_check_cap(gf, n) ** 2)
    mat = np.kron(np.kron(np.eye(gf.q**site), U.mat), np.eye(gf.q ** (n - 1 - site)))
    action = None
    if U.action is not None:
        shift = gf.s * (n - 1 - site)
        kets = np.arange(gf.q**n, dtype=np.int64)
        digit = (kets >> shift) & (gf.q - 1)
        targets, phases = U.action
        action = (kets ^ ((digit ^ targets[digit]) << shift), phases[digit])
    return DenseOperator._formed(gf, n, mat, action=action, clifford=U.clifford)


# -- Pauli decomposition ----------------------------------------------------------


def pauli_coefficient_matrix(U: DenseOperator) -> np.ndarray:
    """C[a, b] with U = sum_{a,b} C[a, b] X^a Z^b over packed index vectors."""
    d = U.dim
    if d > HIERARCHY_DIM_CAP:
        raise TooLarge(f"dimension {d} exceeds cap {HIERARCHY_DIM_CAP}")
    cols = np.arange(d, dtype=np.int64)
    diagonals = U.mat[cols[:, None] ^ cols, cols[:, None]]  # column a holds U[j ^ a, j]
    # one real product on the float view reaches BLAS with the int8 table
    C = _chi_matrix(U.gf, U.n) @ diagonals.view(np.float64)
    C /= d
    return C.view(np.complex128).T


def pauli_decompose(U: DenseOperator) -> dict:
    """Map (x codes, z codes) -> coefficient, dropping entries up to 1e-12."""
    C = pauli_coefficient_matrix(U)
    digits = all_digits(U.gf, U.n)
    rows, cols = np.nonzero(np.abs(C) > 1e-12)  # row-major: keys in (x, z) index order
    return {(tuple(digits[a]), tuple(digits[b])): complex(C[a, b]) for a, b in zip(rows, cols)}


def is_pauli_multiple(U: DenseOperator) -> bool:
    """Single dominant Pauli coefficient; all others at most _PAULI_ATOL."""
    C = np.abs(pauli_coefficient_matrix(U))
    top = np.unravel_index(int(np.argmax(C)), C.shape)
    C[top] = 0.0
    return bool(np.max(C) <= _PAULI_ATOL)


# -- Clifford hierarchy -----------------------------------------------------------


@dataclass
class HierarchyReport:
    gate: str
    q: int
    max_level: int
    level: int | None  # None = above max_level
    witness: str | None  # generator whose conjugate fails one level down

    def to_json(self) -> dict:
        return {
            "gate": self.gate,
            "q": self.q,
            "max_level": self.max_level,
            "level": self.level if self.level is not None else "above max",
            "witness": self.witness,
        }


def _monomial(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(perm, phase) with mat|j> = phase[j] |perm[j]>, when every row and
    column of mat has exactly one non-zero and every |phase[j]| = 1 within
    tol = UNITARY_ATOL / 4; None otherwise.  An entry with |x| <= tol counts
    as zero, as float conjugates carry ~1e-17 where 1/sqrt(q) is inexact.
    The entries so dropped put at most 2 tol (1 + tol) + d tol^2, below
    UNITARY_ATOL for any d < 10^10, off the diagonal of mat^dag mat, so every
    matrix read here passes DenseOperator.is_unitary."""
    tol = UNITARY_ATOL / 4
    nonzero = np.abs(mat) > tol
    if not (np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)):
        return None
    perm = np.argmax(nonzero, axis=0)
    phase = mat[perm, np.arange(perm.size)]
    if np.max(np.abs(np.abs(phase) - 1.0)) > tol:
        return None
    return perm, phase


@lru_cache(maxsize=None)
def _generator_actions(gf: GF, n: int) -> tuple[tuple[PauliWord, ...], np.ndarray, np.ndarray]:
    """The 2*n*s single-site X/Z generators over the polynomial basis, in
    test order, with read-only (G, d) targets and phases read off the action
    each pauli_matrix carries: generator g maps |j> to phases[g, j]
    |targets[g, j]>.  Built once per (gf, n)."""
    words = []
    for site in range(n):
        for i in range(gf.s):
            codes = [0] * n
            codes[site] = 1 << i
            words += [PauliWord.x_word(gf, codes), PauliWord.z_word(gf, codes)]
    actions = [pauli_matrix(word).action for word in words]
    targets = np.array([perm for perm, _ in actions])
    phases = np.array([phase for _, phase in actions])
    targets.setflags(write=False)
    phases.setflags(write=False)
    return tuple(words), targets, phases


def _level(
    gens: tuple, memo: dict, U: DenseOperator, monomial: tuple | None, cap: int
) -> tuple[int, PauliWord | None]:
    """Level of node U, cap + 1 meaning above cap, with the first generator
    whose conjugate sits one level below it; monomial is the action of U or
    _monomial(U.mat).  A monomial node runs on (perm, phase); a clifford
    node, whose generator conjugates are Paulis, takes is_pauli_multiple for
    level 1 or 2; any other takes it and passes its dense conjugates back
    through _level.  One memo serves both."""
    if monomial is not None:
        if _monomial_paulis(monomial[0][None], monomial[1][None])[0]:
            return 1, None
        return _monomial_level(gens, memo, *monomial, cap)
    if U.clifford:
        return (1 if is_pauli_multiple(U) else 2), None
    key = (np.round(U.mat, 8).tobytes(), cap)  # tobytes is C order for any layout
    if key in memo:
        return memo[key], None
    level, witness = 1 if is_pauli_multiple(U) else 2, None
    if level == 2 and cap > 1:  # a non-Pauli node under a cap of 1 is above it
        adjoint = U.mat.conj().T
        for word, targets, phases in zip(*gens):
            conj = DenseOperator(U.gf, U.n, (U.mat[:, targets] * phases) @ adjoint)
            below = _level(gens, memo, conj, _monomial(conj.mat), cap - 1)[0]
            if below >= level:
                level, witness = below + 1, word
                if level > cap:
                    break
    memo[key] = level
    return level, witness


def _monomial_paulis(perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The level-1 rule on (m, d) monomial rows, in O(m*d): row i is a Pauli
    multiple when perms[i] is a translation j -> j ^ a and phases[i] /
    phases[i, 0] is within _PAULI_ATOL of the ±1 character with its signs at
    the kets j = 2^t.  Every other Pauli coefficient is then within _PAULI_ATOL,
    so this is at least as strict as is_pauli_multiple; they differ only on a
    ratio off by _PAULI_ATOL to d*_PAULI_ATOL, which can only raise a level."""
    d = perms.shape[1]
    translation = (perms == (np.arange(d) ^ perms[:, :1])).all(axis=1)
    ratio = phases.T / phases[:, 0]  # (d, m): ket j of every row
    char, w = np.copysign(1.0, ratio.real), 2  # the signs; char[0] = 1, so ket 1 is done
    while w < d:  # kets w..2w-1 are kets 0..w-1 with bit w set: times the sign at w
        char[w : 2 * w] = char[:w] * char[w]
        w *= 2
    return translation & (np.abs(ratio - char) <= _PAULI_ATOL).all(axis=0)


def _monomial_level(
    gens: tuple, memo: dict, perm: np.ndarray, phase: np.ndarray, cap: int
) -> tuple[int, PauliWord | None]:
    """The level rule on (perm, phase) pairs of non-Pauli monomial nodes.
    Each node conjugates by every generator at once, M g M^dag |perm[j]> =
    phase[t] g_phase[j] conj(phase[j]) |perm[t]> with t = g_target[j],
    tests them all for level 1 in one _monomial_paulis call and
    recurses into the rest; memo keys are perm bytes, rounded phases and cap."""
    if cap == 1:
        return 2, None
    key = (perm.tobytes(), np.round(phase, 8).tobytes(), cap)
    if key in memo:
        return memo[key], None
    words, targets, phases = gens
    perms = np.empty_like(targets)
    perms[:, perm] = perm[targets]
    conj = np.empty(phases.shape, dtype=np.complex128)
    conj[:, perm] = phase[targets] * phases * phase.conj()
    level, witness = 2, None
    for g in np.flatnonzero(~_monomial_paulis(perms, conj)):
        below = _monomial_level(gens, memo, perms[g], conj[g], cap - 1)[0]
        if below >= level:
            level, witness = below + 1, words[g]
            if level > cap:
                break
    memo[key] = level
    return level, witness


def hierarchy_level(
    U: DenseOperator, max_level: int = 4, gate_name: str = "gate"
) -> HierarchyReport:
    """Least hierarchy level of U up to max_level, with a failure witness.

    One pass: a Pauli multiple is at level 1, and any other U is one above
    its highest conjugate U g U^dag by the 2*n*s single-site X/Z generators,
    as the levels are nested.  The cap drops by one per step down and a node
    above its cap stops there; levels are memoised per cap.  The witness is
    the first generator, in a fixed order, whose conjugate sits one level
    below U (None at levels 1 and 2).  At every node, a monomial one runs on
    its (perm, phase) pair, so a conjugation and a level-1 test are O(d).  The
    root reads that pair off the action it carries, or else off its matrix by
    _monomial.  A clifford root (the Hadamard) makes one d^3 coefficient
    test and no conjugation; any other (a general unitary) takes the
    coefficient test and dense conjugation at each of its dense nodes.
    NonUnitary if U fails is_unitary, a d^3 product that a root with a form
    (unitary by construction) or one read as monomial skips.
    """
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    if U.dim > HIERARCHY_DIM_CAP:
        raise TooLarge(f"dimension {U.dim} exceeds cap {HIERARCHY_DIM_CAP}")
    monomial = U.action
    if monomial is None and not U.clifford:
        monomial = _monomial(U.mat)  # one that _monomial reads passes is_unitary
        if monomial is None and not U.is_unitary():
            raise NonUnitary(f"{gate_name} is not unitary: the hierarchy is defined on unitaries")
    level, witness = _level(_generator_actions(U.gf, U.n), {}, U, monomial, max_level)
    text = None if witness is None else witness.to_text()
    return HierarchyReport(gate_name, U.gf.q, max_level, None if level > max_level else level, text)


# -- qudit-to-qubit maps ----------------------------------------------------------


def _as_assignment(bases, gf: GF, n: int) -> BasisAssignment:
    """bases as an assignment of n qudits over gf; FieldMismatch if the
    bases are over another field, DimensionMismatch for another length."""
    if isinstance(bases, BasisAssignment):
        assignment = bases
    elif isinstance(bases, FieldBasis):
        assignment = BasisAssignment.uniform(bases, n)
    else:
        assignment = BasisAssignment(bases)
    gf.check_same(assignment.gf)
    if assignment.n != n:
        raise DimensionMismatch(f"assignment covers {assignment.n} qudits, state has {n}")
    return assignment


def qubit_permutation(assignment: BasisAssignment) -> np.ndarray:
    """perm[qudit index] = qubit index under the blockwise decomposition."""
    digits = all_digits(assignment.gf, assignment.n)
    bits = [basis.decompose_arr(digits[:, i]) for i, basis in enumerate(assignment.bases)]
    return index_of(make_field(1), np.concatenate(bits, axis=1))


def phi_map(bases, psi: StateVector) -> StateVector:
    """Relabel qudit basis kets as qubit kets: |eta> -> |D_B(eta)> blockwise."""
    assignment = _as_assignment(bases, psi.gf, psi.n)
    perm = qubit_permutation(assignment)
    out = np.zeros_like(psi.amps)
    out[perm] = psi.amps
    return StateVector(make_field(1), psi.n * psi.gf.s, out)


def phi_inverse(bases, Psi: StateVector, gf: GF) -> StateVector:
    """Inverse of phi_map: a state of n*s qubits back to n qudits over gf."""
    make_field(1).check_same(Psi.gf)
    n, extra = divmod(Psi.n, gf.s)
    if extra:
        raise DimensionMismatch(f"{Psi.n} qubits are not whole qudits of {gf.s} qubits")
    assignment = _as_assignment(bases, gf, n)
    perm = qubit_permutation(assignment)
    return StateVector(gf, n, Psi.amps[perm])


def pi_map(bases, U: DenseOperator) -> DenseOperator:
    """Conjugate by the basis relabelling: Pi(U) = phi U phi^-1.  An action
    is relabelled with it (U|j> = phases[j] |targets[j]> gives Pi(U)|b> =
    phases[inv[b]] |perm[targets[inv[b]]]>), and so is the clifford marker,
    as Pi maps Paulis to Paulis."""
    assignment = _as_assignment(bases, U.gf, U.n)
    perm = qubit_permutation(assignment)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    mat = U.mat[np.ix_(inv, inv)]
    action = None
    if U.action is not None:
        targets, phases = U.action
        action = (perm[targets[inv]], phases[inv])
    gf2 = make_field(1)
    return DenseOperator._formed(gf2, U.n * U.gf.s, mat, action=action, clifford=U.clifford)
