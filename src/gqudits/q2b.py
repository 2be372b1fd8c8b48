"""Qudit-to-qubit code conversion and the qubit-level decode pipeline.

Everything X-type travels through the per-qudit bases; everything Z-type
travels through their duals.  A qudit check measured as s qubit checks
reports s bits tr(b_i * component), which reconstruct the F_q syndrome
component; a classical GRS decoder then recovers the error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import BasisAssignment, FieldBasis, find_self_dual
from .css import CssCode, dual_space, new_css
from .errors import DimensionMismatch, InvalidFieldCode
from .field import GF, make_field
from .grs import QrsCode, decode


# -- blockwise decomposition maps ------------------------------------------------


def expand_vector(assignment: BasisAssignment, V) -> np.ndarray:
    """D_B(V): expand component i in basis B_i; bits concatenated."""
    V = np.asarray(V, dtype=np.int64).reshape(-1)
    if V.size != assignment.n:
        raise DimensionMismatch(f"vector has {V.size} sites, assignment {assignment.n}")
    return np.concatenate(
        [assignment[i].decompose(int(V[i])) for i in range(assignment.n)]
    )


def expand_dual(assignment: BasisAssignment, W) -> np.ndarray:
    """D_{B*}(W): like expand_vector but through the dual bases."""
    return expand_vector(assignment.duals(), W)


def lift_vector(assignment: BasisAssignment, bits) -> np.ndarray:
    """Inverse of expand_vector."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    s = assignment.gf.s
    if bits.size != assignment.n * s:
        raise DimensionMismatch(f"expected {assignment.n * s} bits, got {bits.size}")
    return np.array(
        [assignment[i].recompose(bits[i * s : (i + 1) * s]) for i in range(assignment.n)],
        dtype=np.int64,
    )


def lift_dual(assignment: BasisAssignment, bits) -> np.ndarray:
    return lift_vector(assignment.duals(), bits)


# -- code conversion ---------------------------------------------------------------


@dataclass
class QubitCssCode:
    ns: int
    hx: np.ndarray
    hz: np.ndarray
    source: CssCode
    assignment: BasisAssignment

    def __post_init__(self) -> None:
        self.hx = linalg.as_matrix(self.hx, self.ns)
        self.hz = linalg.as_matrix(self.hz, self.ns)
        if self.hx.size and self.hz.size and np.any((self.hx @ self.hz.T) % 2):
            raise DimensionMismatch("hx . hz^T != 0 over F_2")

    @property
    def k(self) -> int:
        gf2 = make_field(1)
        return self.ns - linalg.rank(gf2, self.hx) - linalg.rank(gf2, self.hz)

    def as_binary_css(self) -> CssCode:
        return new_css(make_field(1), self.ns, self.hx, self.hz)

    def params(self, distance_budget: int | None = None):
        """Brute-force [[ns, k, d]] of the converted code; the qubit-level
        distance carries no closed form here and is purely empirical."""
        from .css import DEFAULT_DISTANCE_BUDGET, params as css_params

        budget = DEFAULT_DISTANCE_BUDGET if distance_budget is None else distance_budget
        return css_params(self.as_binary_css(), budget)

    def to_json(self) -> dict:
        return {
            "qudit_code": self.source.to_json(),
            "basis_assignment": [list(b.elements) for b in self.assignment.bases],
            "hx": self.hx.tolist(),
            "hz": self.hz.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QubitCssCode":
        source = CssCode.from_json(data["qudit_code"])
        assignment = BasisAssignment(
            [FieldBasis(source.gf, els) for els in data["basis_assignment"]]
        )
        ns = source.n * source.gf.s
        hx = np.array(data["hx"], dtype=np.int64).reshape(len(data["hx"]), ns)
        hz = np.array(data["hz"], dtype=np.int64).reshape(len(data["hz"]), ns)
        return cls(ns, hx, hz, source, assignment)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def default_assignment(gf: GF, n: int) -> BasisAssignment:
    """The same self-dual basis on every qudit (collapses B* = B)."""
    return BasisAssignment.default_self_dual(gf, n)


def convert_code(
    code: CssCode,
    assignment: BasisAssignment | None = None,
    enum_basis: FieldBasis | None = None,
) -> QubitCssCode:
    """Map stabiliser spaces through the decomposition maps.

    Qubit generators are the expansions of b * row over the enumeration
    basis b; the result has ns physical and s*k logical qubits.
    """
    gf = code.gf
    if assignment is None:
        assignment = default_assignment(gf, code.n)
    if enum_basis is None:
        enum_basis = find_self_dual(gf)
    ns = code.n * gf.s

    def expanded(rows: np.ndarray, dualise: bool) -> np.ndarray:
        out = []
        for row in rows:
            for b in enum_basis.elements:
                scaled = gf.mul_arr(row, b)
                out.append(
                    expand_dual(assignment, scaled) if dualise else expand_vector(assignment, scaled)
                )
        return np.array(out, dtype=np.int64).reshape(len(out), ns)

    hx = expanded(code.gx, dualise=False)
    hz = expanded(code.gz, dualise=True)
    return QubitCssCode(ns, hx, hz, code, assignment)


def convert_logicals(
    code: CssCode, assignment: BasisAssignment | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Binary generators of the logical-operator-carrying spaces:
    D_{B*}(L_X^perp) for Z-type and D_B(L_Z^perp) for X-type."""
    gf = code.gf
    if assignment is None:
        assignment = default_assignment(gf, code.n)
    enum_basis = find_self_dual(gf)

    def span_image(rows: np.ndarray, dualise: bool) -> np.ndarray:
        out = []
        for row in rows:
            for b in enum_basis.elements:
                scaled = gf.mul_arr(row, b)
                out.append(
                    expand_dual(assignment, scaled) if dualise else expand_vector(assignment, scaled)
                )
        return np.array(out, dtype=np.int64).reshape(len(out), code.n * gf.s)

    z_space = span_image(dual_space(gf, code.gx), dualise=True)
    x_space = span_image(dual_space(gf, code.gz), dualise=False)
    return z_space, x_space


# -- measurement plans -----------------------------------------------------------


@dataclass
class MeasurementPlan:
    x_bases: list[FieldBasis]  # expansion basis per X check
    z_bases: list[FieldBasis]
    x_checks: list[np.ndarray]  # s binary check vectors per X check
    z_checks: list[np.ndarray]

    @property
    def total_checks(self) -> int:
        return sum(c.shape[0] for c in self.x_checks) + sum(c.shape[0] for c in self.z_checks)


def make_plan(
    code: CssCode,
    assignment: BasisAssignment | None = None,
    x_bases: list[FieldBasis] | None = None,
    z_bases: list[FieldBasis] | None = None,
) -> MeasurementPlan:
    """Expand every qudit check into s binary checks via its expansion basis."""
    gf = code.gf
    if assignment is None:
        assignment = default_assignment(gf, code.n)
    sd = find_self_dual(gf)
    if x_bases is None:
        x_bases = [sd] * code.m_x
    if z_bases is None:
        z_bases = [sd] * code.m_z
    if len(x_bases) != code.m_x or len(z_bases) != code.m_z:
        raise DimensionMismatch("one expansion basis per qudit check required")
    gf2 = make_field(1)

    def group(row, basis: FieldBasis, dualise: bool) -> np.ndarray:
        vecs = []
        for b in basis.elements:
            scaled = gf.mul_arr(row, b)
            vecs.append(
                expand_dual(assignment, scaled) if dualise else expand_vector(assignment, scaled)
            )
        arr = np.array(vecs, dtype=np.int64)
        if linalg.rank(gf2, arr) != gf.s:
            raise DimensionMismatch("expanded qubit checks are dependent")
        return arr

    x_checks = [group(code.gx[j], x_bases[j], False) for j in range(code.m_x)]
    z_checks = [group(code.gz[j], z_bases[j], True) for j in range(code.m_z)]
    return MeasurementPlan(list(x_bases), list(z_bases), x_checks, z_checks)


def reconstruct_syndrome(gf: GF, bits, basis: FieldBasis) -> int:
    """The unique eta with tr(b_i * eta) = bit_i: eta = sum bit_i b_i^*."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    if bits.size != gf.s:
        raise DimensionMismatch(f"need {gf.s} bits, got {bits.size}")
    dual = basis.dual()
    eta = 0
    for bit, el in zip(bits, dual.elements):
        if bit & 1:
            eta ^= el
    return eta


# -- end-to-end qubit decoding ------------------------------------------------------


def end_to_end_decode(
    qrs: QrsCode,
    assignment: BasisAssignment,
    plan: MeasurementPlan,
    error_bits,
    kind: str,
) -> np.ndarray:
    """Recover a qubit error from its qubit-level syndrome bits.

    kind "Z": a Z-type error D_{B*}(W) diagnosed by the X checks; the F_q
    syndrome (v_j . W) is decoded against GRS_{n-k1}(alpha, u).
    kind "X": an X-type error D_B(A) diagnosed by the Z checks; decoded
    against GRS_{k2}(alpha, v).
    """
    gf = qrs.gf
    error_bits = np.asarray(error_bits, dtype=np.int64).reshape(-1)
    if error_bits.size != qrs.n * gf.s:
        raise DimensionMismatch(f"expected {qrs.n * gf.s} error bits, got {error_bits.size}")
    if np.any((error_bits != 0) & (error_bits != 1)):
        raise InvalidFieldCode("error bits must be 0 or 1")
    sides = {"Z": (plan.x_checks, plan.x_bases), "X": (plan.z_checks, plan.z_bases)}
    if kind not in sides:
        raise ValueError(f"kind must be 'Z' or 'X', got {kind!r}")
    syndrome = np.array(
        [reconstruct_syndrome(gf, g @ error_bits % 2, b) for g, b in zip(*sides[kind])],
        dtype=np.int64,
    )
    lift, shift_code = qrs.syndrome_lift[kind]
    _, err = decode(shift_code, gf.matvec(lift, syndrome))
    if kind == "Z":
        return expand_dual(assignment, err)
    return expand_vector(assignment, err)


# -- exports ----------------------------------------------------------------------


def export_alist(M) -> str:
    """MacKay alist text for a binary matrix: header 'N M', degree lists,
    then 1-based per-column and per-row index lists (zero padded)."""
    M = linalg.as_matrix(M)
    m, n = M.shape
    col_deg = M.sum(axis=0).astype(int) if m else np.zeros(n, dtype=int)
    row_deg = M.sum(axis=1).astype(int) if n else np.zeros(m, dtype=int)
    max_col = int(col_deg.max()) if n else 0
    max_row = int(row_deg.max()) if m else 0
    lines = [f"{n} {m}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(int(d)) for d in col_deg))
    lines.append(" ".join(str(int(d)) for d in row_deg))
    for c in range(n):
        idx = [str(int(r) + 1) for r in np.nonzero(M[:, c])[0]]
        idx += ["0"] * (max_col - len(idx))
        lines.append(" ".join(idx) if idx else "0")
    for r in range(m):
        idx = [str(int(c) + 1) for c in np.nonzero(M[r])[0]]
        idx += ["0"] * (max_row - len(idx))
        lines.append(" ".join(idx) if idx else "0")
    return "\n".join(lines) + "\n"


def import_alist(text: str) -> np.ndarray:
    rows = [[int(t) for t in line.split()] for line in text.strip().splitlines()]
    n, m = rows[0]
    M = np.zeros((m, n), dtype=np.int64)
    for c in range(n):
        for r in rows[4 + c]:
            if r:
                M[r - 1, c] = 1
    return M


def export_dense(M) -> str:
    M = linalg.as_matrix(M)
    return "\n".join("".join(str(int(b)) for b in row) for row in M) + "\n"
