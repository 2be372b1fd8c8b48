"""Qudit-to-qubit code conversion and the qubit-level decode pipeline.

Everything X-type travels through the per-qudit bases; everything Z-type
travels through their duals.  A qudit check measured as s qubit checks
reports s bits tr(b_i * component), which reconstruct the F_q syndrome
component; that is the GRS decoder's syndrome (the QRS check rows are the
decoders' parity checks), from which it recovers the error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import BasisAssignment, FieldBasis, find_self_dual
from .css import CssCode, dual_space, new_css
from .errors import (
    DimensionMismatch,
    InvalidAlist,
    InvalidDocument,
    json_fields,
    json_int_fields,
    json_matrix,
)
from .field import GF, make_field
from .grs import QrsCode, decode


# -- blockwise decomposition maps ------------------------------------------------


def expand_vector(assignment: BasisAssignment, V) -> np.ndarray:
    """D_B(V): expand component i in basis B_i; bits concatenated.

    V is an F_q vector (n,) or matrix (m, n); the result is (n*s,) or
    (m, n*s).  The qudits of each distinct basis are decomposed in one call.
    """
    V = np.asarray(V, dtype=np.int64)
    if V.ndim > 2 or V.shape[-1:] != (assignment.n,):
        raise DimensionMismatch(f"sites of shape {V.shape}, assignment has {assignment.n}")
    out = np.empty(V.shape + (assignment.gf.s,), dtype=np.int64)
    for basis, idx in assignment.groups:
        out[..., idx, :] = basis.decompose(V[..., idx])
    return out.reshape(V.shape[:-1] + (assignment.n * assignment.gf.s,))


def expand_dual(assignment: BasisAssignment, W) -> np.ndarray:
    """D_{B*}(W): like expand_vector but through the dual bases."""
    return expand_vector(assignment.duals(), W)


def _expand_rows(assignment: BasisAssignment, rows, scales, dualise: bool) -> np.ndarray:
    """(m*s, n*s) bits: D(scales[j, t] * rows[j]) for t = 0..s-1, row by row.

    scales is (m, s), one expansion basis per row, or a shared (s,); Z-type
    rows (dualise) expand through the dual bases.
    """
    gf = assignment.gf
    rows = linalg.as_matrix(rows, assignment.n)
    scales = np.broadcast_to(np.asarray(scales, dtype=np.int64), (rows.shape[0], gf.s))
    scaled = gf.mul_arr(rows[:, None, :], scales[:, :, None]).reshape(-1, rows.shape[1])
    return expand_dual(assignment, scaled) if dualise else expand_vector(assignment, scaled)


def lift_vector(assignment: BasisAssignment, bits) -> np.ndarray:
    """Inverse of expand_vector: (n*s,) bits give (n,) codes and (m, n*s)
    bits give (m, n).  The qudits of each distinct basis are recomposed in
    one call."""
    bits = np.asarray(bits, dtype=np.int64)
    n, s = assignment.n, assignment.gf.s
    if bits.ndim > 2 or bits.shape[-1:] != (n * s,):
        raise DimensionMismatch(f"bits of shape {bits.shape}, assignment needs {n * s} per row")
    blocks = bits.reshape(bits.shape[:-1] + (n, s))
    out = np.empty(blocks.shape[:-1], dtype=np.int64)
    for basis, idx in assignment.groups:
        out[..., idx] = basis.recompose(blocks[..., idx, :])
    return out


# -- code conversion ---------------------------------------------------------------


@dataclass
class QubitCssCode:
    ns: int
    hx: np.ndarray
    hz: np.ndarray
    source: CssCode
    assignment: BasisAssignment

    def __post_init__(self) -> None:
        gf2 = make_field(1)
        self.hx = gf2.check_codes(linalg.as_matrix(self.hx, self.ns))
        self.hz = gf2.check_codes(linalg.as_matrix(self.hz, self.ns))
        if self.hx.shape[1] != self.ns or self.hz.shape[1] != self.ns:
            raise DimensionMismatch(f"check matrices need {self.ns} columns")
        # a float64 (BLAS) product is exact: its entries are at most ns < 2^53
        overlap = self.hx.astype(np.float64) @ self.hz.T.astype(np.float64)
        if np.any(overlap % 2):
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
        (qudit_code,) = json_fields(data, "qudit_code")
        bases, hx, hz = json_int_fields(data, basis_assignment=2, hx=2, hz=2)
        source = CssCode.from_json(qudit_code)
        if len(bases) != source.n:
            raise InvalidDocument(f"key 'basis_assignment': {len(bases)} bases, {source.n} qudits")
        bases = json_matrix("basis_assignment", bases, source.gf.s)
        assignment = BasisAssignment([FieldBasis(source.gf, els) for els in bases])
        ns = source.n * source.gf.s
        return cls(ns, json_matrix("hx", hx, ns), json_matrix("hz", hz, ns), source, assignment)


def default_assignment(gf: GF, n: int) -> BasisAssignment:
    """The same self-dual basis on every qudit (collapses B* = B)."""
    return BasisAssignment.default_self_dual(gf, n)


def _assignment_for(code: CssCode, assignment: BasisAssignment | None) -> BasisAssignment:
    """assignment, or the default one when None; FieldMismatch if it is over
    another field than code."""
    if assignment is None:
        return default_assignment(code.gf, code.n)
    code.gf.check_same(assignment.gf)
    return assignment


def convert_code(code: CssCode, assignment: BasisAssignment | None = None) -> QubitCssCode:
    """Map stabiliser spaces through the decomposition maps.

    Qubit generators are the expansions of b * row over the self-dual basis
    b (any F_2-basis spans the same space); the result has ns physical and
    s*k logical qubits.
    """
    gf = code.gf
    assignment = _assignment_for(code, assignment)
    enum = find_self_dual(gf).elements
    hx = _expand_rows(assignment, code.gx, enum, dualise=False)
    hz = _expand_rows(assignment, code.gz, enum, dualise=True)
    return QubitCssCode(code.n * gf.s, hx, hz, code, assignment)


def convert_logicals(
    code: CssCode, assignment: BasisAssignment | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Binary generators of the logical-operator-carrying spaces:
    D_{B*}(L_X^perp) for Z-type and D_B(L_Z^perp) for X-type."""
    gf = code.gf
    assignment = _assignment_for(code, assignment)
    enum = find_self_dual(gf).elements
    z_space = _expand_rows(assignment, dual_space(gf, code.gx), enum, dualise=True)
    x_space = _expand_rows(assignment, dual_space(gf, code.gz), enum, dualise=False)
    return z_space, x_space


# -- measurement plans -----------------------------------------------------------


@dataclass
class MeasurementPlan:
    x_duals: np.ndarray  # (m_x, s): dual of the expansion basis per X check
    z_duals: np.ndarray
    x_checks: np.ndarray  # (m_x, s, n*s): s binary check vectors per X check
    z_checks: np.ndarray

    @property
    def total_checks(self) -> int:
        return (len(self.x_checks) + len(self.z_checks)) * self.x_checks.shape[1]


def make_plan(
    code: CssCode,
    assignment: BasisAssignment | None = None,
    x_bases: list[FieldBasis] | None = None,
    z_bases: list[FieldBasis] | None = None,
) -> MeasurementPlan:
    """Expand every qudit check into s binary checks via its expansion basis."""
    gf = code.gf
    assignment = _assignment_for(code, assignment)
    sd = find_self_dual(gf)
    if x_bases is None:
        x_bases = [sd] * code.m_x
    if z_bases is None:
        z_bases = [sd] * code.m_z
    if len(x_bases) != code.m_x or len(z_bases) != code.m_z:
        raise DimensionMismatch("one expansion basis per qudit check required")
    for basis in (*x_bases, *z_bases):
        gf.check_same(basis.gf)
    gf2 = make_field(1)

    def checks(rows: np.ndarray, bases: list[FieldBasis], dualise: bool) -> np.ndarray:
        scales = np.array([b.elements for b in bases], dtype=np.int64).reshape(-1, gf.s)
        bits = _expand_rows(assignment, rows, scales, dualise)
        groups = bits.reshape(len(bases), gf.s, code.n * gf.s)
        if any(linalg.rank(gf2, g) != gf.s for g in groups):
            raise DimensionMismatch("expanded qubit checks are dependent")
        return groups

    def duals(bases: list[FieldBasis]) -> np.ndarray:
        return np.array([b.dual().elements for b in bases], dtype=np.int64).reshape(-1, gf.s)

    x_checks = checks(code.gx, x_bases, False)
    z_checks = checks(code.gz, z_bases, True)
    return MeasurementPlan(duals(x_bases), duals(z_bases), x_checks, z_checks)


def reconstruct_syndrome(gf: GF, bits, duals) -> np.ndarray:
    """The syndrome components of m checks from their (m, s) measured bits
    and the (m, s) dual elements of their expansion bases: eta_j, the unique
    element with tr(b_ji * eta_j) = bits[j, i], is sum_i bits[j, i] b*_ji."""
    bits = make_field(1).check_codes(np.asarray(bits, dtype=np.int64))
    duals = gf.check_codes(np.asarray(duals, dtype=np.int64))
    if bits.shape != duals.shape:
        raise DimensionMismatch(f"bits of shape {bits.shape}, duals of shape {duals.shape}")
    return np.bitwise_xor.reduce(bits * duals, axis=-1)


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
    against GRS_{k2}(alpha, v).  Each decoder's parity check is its checks' rows.
    """
    gf = qrs.gf
    gf.check_same(assignment.gf)
    error_bits = np.asarray(error_bits, dtype=np.int64).reshape(-1)
    if error_bits.size != qrs.n * gf.s:
        raise DimensionMismatch(f"expected {qrs.n * gf.s} error bits, got {error_bits.size}")
    make_field(1).check_codes(error_bits)
    sides = {"Z": (plan.x_checks, plan.x_duals), "X": (plan.z_checks, plan.z_duals)}
    if kind not in sides:
        raise ValueError(f"kind must be 'Z' or 'X', got {kind!r}")
    checks, duals = sides[kind]
    syndrome = reconstruct_syndrome(gf, checks @ error_bits % 2, duals)
    err = decode(qrs.decoders[kind], syndrome)
    if kind == "Z":
        return expand_dual(assignment, err)
    return expand_vector(assignment, err)


# -- exports ----------------------------------------------------------------------


def _index_lines(M: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Row degrees of a 0/1 matrix and each row's 1-based column indices,
    zero padded to the largest degree (a lone '0' if that is 0)."""
    r, c = np.nonzero(M)
    deg = np.bincount(r, minlength=M.shape[0])
    tokens, zeros = table[c + 1].tolist(), ["0"] * max(int(deg.max(initial=0)), 1)
    ends = np.cumsum(deg).tolist()
    return deg, [" ".join(tokens[e - d : e] + zeros[d:]) for d, e in zip(deg.tolist(), ends)]


def export_alist(M) -> str:
    """MacKay alist text for a binary matrix: header 'N M', degree lists,
    then 1-based per-column and per-row index lists (zero padded)."""
    M = make_field(1).check_codes(linalg.as_matrix(M)).astype(bool)
    table = np.array([str(i) for i in range(max(M.shape) + 1)], dtype=object)
    col_deg, col_lines = _index_lines(M.T, table)
    row_deg, row_lines = _index_lines(M, table)
    head = [f"{M.shape[1]} {M.shape[0]}", f"{col_deg.max(initial=0)} {row_deg.max(initial=0)}"]
    degrees = [" ".join(table[col_deg]), " ".join(table[row_deg])]
    return "\n".join(head + degrees + col_lines + row_lines) + "\n"


def import_alist(text: str) -> np.ndarray:
    """Binary matrix of alist text.  InvalidAlist for a bad header, line
    count or index, or degree lists that disagree with the index lists."""
    try:
        rows = [[int(t) for t in line.split()] for line in text.splitlines()]
    except ValueError as exc:
        raise InvalidAlist(f"non-integer token: {exc}") from None
    if len(rows) < 2 or [len(rows[0]), len(rows[1])] != [2, 2] or min(rows[0] + rows[1]) < 0:
        raise InvalidAlist("header must be 'N M' and 'max_col max_row', all non-negative")
    n, m = rows[0]
    rows, rest = rows[: 4 + n + m], rows[4 + n + m :]
    if len(rows) != 4 + n + m or any(rest):
        raise InvalidAlist(f"expected {4 + n + m} lines for N={n} M={m}")
    cols, M = _incidence(rows[4 : 4 + n], m, "column"), _incidence(rows[4 + n :], n, "row")
    if not np.array_equal(cols.T, M):
        raise InvalidAlist("row lists disagree with column lists")
    col_deg, row_deg = cols.sum(axis=1).tolist(), M.sum(axis=1).tolist()
    if rows[1:4] != [[max(col_deg, default=0), max(row_deg, default=0)], col_deg, row_deg]:
        raise InvalidAlist("degree lists disagree with the index lists")
    return M


def _incidence(lists: list[list[int]], size: int, what: str) -> np.ndarray:
    """0/1 rows of alist index lists; zero entries are padding."""
    out = np.zeros((len(lists), size), dtype=np.int64)
    for i, line in enumerate(lists):
        idx = [j - 1 for j in line if j]
        if not all(0 <= j < size for j in idx) or len(set(idx)) != len(idx):
            raise InvalidAlist(f"{what} {i + 1}: an index outside 1..{size} or repeated")
        out[i, idx] = 1
    return out


def export_dense(M) -> str:
    M = linalg.as_matrix(M)
    return "\n".join("".join(str(int(b)) for b in row) for row in M) + "\n"
