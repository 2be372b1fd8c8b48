"""Qudit-to-qubit code conversion and the qubit-level decode pipeline.

A qubit code is derived once from its qudit code and basis assignment, and
that object is also the measurement plan: one expansion, one binding of a
qubit code to its qudit code, and a bundle document must be that expansion.
A CssCode is checked when it is built, and nothing here checks it again:
D_B(a) . D_{B*}(b) = tr(a b) makes hx . hz^T = 0, and D is F_2-linear and
injective, so m independent qudit rows expand to m*s independent checks.
Everything X-type travels through the per-qudit bases; everything Z-type
through their duals.  Every qudit check is read in the self-dual basis b:
its s qubit checks report tr(b_i * component), which reconstruct_syndrome
turns into the F_q syndrome that the GRS decoder takes (the QRS check rows
are its parity checks).  Both steps are F_2-linear, so a plan holds their
composite as one map per error kind: a shot is one product and one pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .bases import BasisAssignment, FieldBasis, coordinates, find_self_dual, unpack_bits
from .css import CssCode, dual_space, new_css
from .errors import (
    DimensionMismatch,
    InvalidAlist,
    InvalidArgument,
    InvalidDocument,
    PlanMismatch,
    json_fields,
    json_int_fields,
    json_matrix,
)
from .field import GF, MAX_DEGREE, make_field
from .grs import QrsCode, decode


# -- blockwise decomposition maps ------------------------------------------------


def expand_vector(assignment: BasisAssignment, V) -> np.ndarray:
    """D_B(V): expand component i in basis B_i; bits concatenated.

    V is an F_q vector (n,) or matrix (m, n); the result is (n*s,) or
    (m, n*s) uint8 bits: one gather a byte from each qudit's tables
    (assignment.tables).  uint8 is the dtype of every bit array q2b returns
    or holds: sum and count_nonzero promote, so a row weight is exact, but
    a product (@) of two bit arrays stays uint8 and wraps mod 256, which
    keeps its parity but not its count.
    """
    V = assignment.gf.check_codes(V)
    if V.ndim > 2 or V.shape[-1:] != (assignment.n,):
        raise DimensionMismatch(f"sites of shape {V.shape}, assignment has {assignment.n}")
    out = coordinates(*assignment.tables, V, assignment.gf.s)
    return out.reshape(V.shape[:-1] + (assignment.n * assignment.gf.s,))


def expand_dual(assignment: BasisAssignment, W) -> np.ndarray:
    """D_{B*}(W): like expand_vector but through the dual bases."""
    return expand_vector(assignment.duals(), W)


def _expand_rows(assignment: BasisAssignment, rows, dualise: bool) -> np.ndarray:
    """(m*s, n*s) uint8 bits: D(b_t * rows[j]) for t = 0..s-1 over the
    self-dual basis b, row by row; Z-type rows (dualise) expand through the
    dual bases.  D(b_t * eta) is F_2-linear in D(eta), so the rows are
    expanded once, scaled by one batched product with the assignment's
    scalings and put in order by one copy of s-byte items, not of bits.  A
    row weight by sum is exact, a product (@) of two is exact mod 2 only."""
    (m, n), s = rows.shape, assignment.gf.s
    if dualise:
        assignment = assignment.duals()
    bits = expand_vector(assignment, rows).reshape(m, n, s).transpose(1, 0, 2).astype(np.float32)
    # each sum is at most s <= 31, exact in float32 and in uint8, where the
    # parity is taken; the (n, m, t) items of s bits are copied as (m, t, n)
    out = (bits @ assignment.scalings).astype(np.uint8)
    out &= 1
    items = out.view(np.dtype((np.void, s))).transpose(1, 2, 0)
    return np.ascontiguousarray(items).view(np.uint8).reshape(m * s, n * s)


# -- code conversion ---------------------------------------------------------------


@dataclass(eq=False)
class QubitCssCode:
    """The image of a qudit CSS code under the blockwise maps: hx is D_B and
    hz is D_{B*} of b_t * row over the self-dual basis b, derived once from
    source and assignment, so a qubit code cannot disagree with its qudit
    code.  It is also the measurement plan: x_checks and z_checks view hx
    and hz as (m, s, n*s), s qubit checks per qudit check."""

    source: CssCode
    assignment: BasisAssignment

    def __post_init__(self) -> None:
        gf = self.source.gf
        gf.check_same(self.assignment.gf)
        if self.assignment.n != self.source.n:
            raise DimensionMismatch(f"{self.assignment.n} bases for {self.source.n} qudits")
        self.hx = _expand_rows(self.assignment, self.source.gx, False)
        self.hz = _expand_rows(self.assignment, self.source.gz, True)
        self.basis = find_self_dual(gf)  # every check is read in it (its own dual)
        self.x_checks = self.hx.reshape(self.source.m_x, gf.s, self.ns)
        self.z_checks = self.hz.reshape(self.source.m_z, gf.s, self.ns)

    def __eq__(self, other: object) -> bool:
        """Equal as binary CSS codes: same length and check matrices."""
        if not isinstance(other, QubitCssCode):
            return NotImplemented
        return self is other or (
            self.ns == other.ns
            and np.array_equal(self.hx, other.hx)
            and np.array_equal(self.hz, other.hz)
        )

    @property
    def ns(self) -> int:
        return self.source.n * self.source.gf.s

    @cached_property
    def _syndrome_maps(self) -> dict[str, np.ndarray]:
        """Per error kind, the (n*s, m*s) F_2 map from a shot's bits to the
        polynomial-basis bits of its F_q syndrome under the checks that
        diagnose it (x_checks for "Z", z_checks for "X"), by one
        reconstruct_syndrome over the check columns.  Built on the first
        decode, in float32 when that is exact (every count is at most n*s < 2^24)."""
        dtype = np.float32 if self.ns < 1 << 24 else np.float64
        s, maps = self.source.gf.s, {}
        for kind, checks in (("Z", self.x_checks), ("X", self.z_checks)):
            codes = reconstruct_syndrome(checks.transpose(2, 0, 1), self.basis)
            bits = unpack_bits(codes.astype(self.basis.tables.dtype), s)
            maps[kind] = bits.reshape(self.ns, -1).astype(dtype)
        return maps

    @property
    def k(self) -> int:
        """s times the qudit code's k: D is F_2-linear and injective, so the
        rows D(b_t * row) of the independent qudit rows are independent."""
        return self.source.gf.s * self.source.k

    @property
    def total_checks(self) -> int:
        return len(self.hx) + len(self.hz)

    def as_binary_css(self) -> CssCode:
        return new_css(_F2, self.ns, self.hx, self.hz)

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
        """The code of qudit_code and basis_assignment; InvalidDocument names
        hx or hz if the document's matrix is not that code's expansion."""
        (qudit_code,) = json_fields(data, "qudit_code")
        bases, hx, hz = json_int_fields(data, basis_assignment=2, hx=2, hz=2)
        source = CssCode.from_json(qudit_code)
        if len(bases) != source.n:
            raise InvalidDocument(f"key 'basis_assignment': {len(bases)} bases, {source.n} qudits")
        bases = json_matrix("basis_assignment", bases, source.gf.s)
        code = cls(source, BasisAssignment([FieldBasis(source.gf, els) for els in bases]))
        for key, rows, derived in (("hx", hx, code.hx), ("hz", hz, code.hz)):
            if not np.array_equal(_F2.check_codes(json_matrix(key, rows, code.ns)), derived):
                raise InvalidDocument(f"key {key!r} is not the expansion of the qudit code")
        return code


def default_assignment(gf: GF, n: int) -> BasisAssignment:
    """The same self-dual basis on every qudit (collapses B* = B)."""
    return BasisAssignment.uniform(find_self_dual(gf), n)


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
    return QubitCssCode(code, _assignment_for(code, assignment))


def convert_logicals(
    code: CssCode, assignment: BasisAssignment | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Binary generators of the logical-operator-carrying spaces:
    D_{B*}(L_X^perp) for Z-type and D_B(L_Z^perp) for X-type."""
    gf = code.gf
    assignment = _assignment_for(code, assignment)
    z_space = _expand_rows(assignment, dual_space(gf, code.gx), dualise=True)
    x_space = _expand_rows(assignment, dual_space(gf, code.gz), dualise=False)
    return z_space, x_space


# -- measurement plans -----------------------------------------------------------


def make_plan(code: CssCode, assignment: BasisAssignment | None = None) -> QubitCssCode:
    """The converted code, whose x_checks and z_checks group its hx and hz
    rows by qudit check, s independent qubit checks each (CssCode refuses
    the zero row, whose s checks would be dependent)."""
    return QubitCssCode(code, _assignment_for(code, assignment))


def reconstruct_syndrome(bits, basis: FieldBasis) -> int | np.ndarray:
    """The syndrome components of checks read in basis from their (..., s)
    measured bits: eta, the unique element with tr(b_i * eta) = bits[i], is
    sum_i bits[i] b*_i."""
    return basis.dual().recompose(bits)


# -- end-to-end qubit decoding ------------------------------------------------------

_POWERS = 1 << np.arange(MAX_DEGREE)  # packs polynomial-basis bits into codes
_F2 = make_field(1)  # the bit field, built once: a decode shot makes no make_field call


def end_to_end_decode(
    qrs: QrsCode,
    assignment: BasisAssignment,
    plan: QubitCssCode,
    error_bits,
    kind: str,
) -> np.ndarray:
    """Recover qubit errors from their qubit-level syndrome bits.

    kind "Z": a Z-type error D_{B*}(W) diagnosed by the X checks; the F_q
    syndrome (v_j . W) is decoded against GRS_{n-k1}(alpha, u).
    kind "X": an X-type error D_B(A) diagnosed by the Z checks; decoded
    against GRS_{k2}(alpha, v).  Each decoder's parity check is its checks' rows.
    error_bits is one shot of n*s bits, or a (shots, n*s) stack, which is
    checked once and takes one product with the plan's syndrome map, one pack,
    one decode call and one expansion; a refused shot raises its DecodeFailure,
    whose shot is that row.  PlanMismatch unless plan was made for qrs.css and assignment.
    """
    gf = qrs.gf
    gf.check_same(assignment.gf)
    if plan.source != qrs.css:
        raise PlanMismatch("the plan was made for other check rows")
    if plan.assignment is not assignment and plan.assignment.bases != assignment.bases:
        raise PlanMismatch("the plan was made for another assignment")
    error_bits = _F2.check_codes(error_bits)
    if error_bits.ndim not in (1, 2) or error_bits.shape[-1] != plan.ns:
        raise DimensionMismatch(f"expected {plan.ns} bits a shot, got shape {error_bits.shape}")
    if kind not in ("Z", "X"):
        raise InvalidArgument(f"kind must be 'Z' or 'X', got {kind!r}")
    syndrome_map = plan._syndrome_maps[kind]
    # the parity of each syndrome bit on the shot's support, exact in the map's dtype
    counts = error_bits.astype(syndrome_map.dtype) @ syndrome_map
    m = syndrome_map.shape[1] // gf.s
    bits = (counts.astype(np.int64) & 1).reshape(error_bits.shape[:-1] + (m, gf.s))
    err = decode(qrs.decoders[kind], bits @ _POWERS[: gf.s])
    if kind == "Z":
        return expand_dual(assignment, err)
    return expand_vector(assignment, err)


# -- exports ----------------------------------------------------------------------


_POPCOUNT = np.array([bin(v).count("1") for v in range(256)])


@lru_cache(maxsize=2)
def _fragments(width: int) -> np.ndarray:
    """Entry 256*g + v: the tokens 'c ' of the 1-based columns 8g+1 .. 8g+8
    whose bit is set in the byte v (most significant bit first), built from
    the column tokens by three doubling steps.  Read-only, and 32 strings a
    column (2.3 MiB at width 1024), so only the last two widths are cached:
    enough for hx and hz of one code, which share their width."""
    groups = -(-width // 8)
    tokens = np.full(8 * groups, "", dtype=object)
    tokens[:width] = [f"{c} " for c in range(1, width + 1)]
    # per column, its strings for bit 0 and 1; each step joins neighbouring
    # runs of 1, 2, 4 columns, whose values (v, v') read as the digits vv'
    table = np.stack([np.full_like(tokens, ""), tokens], axis=-1).reshape(groups, 8, 2)
    for runs, values in ((4, 4), (2, 16), (1, 256)):
        table = (table[:, 0::2, :, None] + table[:, 1::2, None, :]).reshape(groups, runs, values)
    out = table.reshape(-1)
    out.setflags(write=False)
    return out


def _index_lines(M: np.ndarray, fragments: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Row degrees of a bool matrix and each row's 1-based column indices,
    zero padded to the largest degree (a lone '0' if that is 0): one
    fragment a byte of the packed row."""
    packed = np.packbits(M, axis=1)  # a byte's first column is its high bit
    deg = _POPCOUNT[packed].sum(axis=1)
    top = max(int(deg.max(initial=0)), 1)
    lines = fragments[packed + 256 * np.arange(packed.shape[1])].tolist()
    return deg, [("".join(f) + "0 " * (top - d))[:-1] for f, d in zip(lines, deg.tolist())]


def export_alist(M) -> str:
    """MacKay alist text for a binary matrix: header 'N M', degree lists,
    then 1-based per-column and per-row index lists (zero padded).

    Each index line is joined from one precomputed fragment per packed byte
    (eight columns), so the cost is O(rows * cols / 8 + rows + cols)
    whatever the density: at the ~50% density of converted codes that is
    about four indices a fragment, but very sparse input pays for the bytes
    it skips.  The fragment table of a width is built once and cached (the
    last two widths), so hx and hz of one code share it."""
    M = linalg.as_matrix(_F2.check_codes(M)).astype(bool)
    fragments = _fragments(max(M.shape))
    col_deg, col_lines = _index_lines(np.ascontiguousarray(M.T), fragments)  # packbits is slow strided
    row_deg, row_lines = _index_lines(M, fragments)
    head = [f"{M.shape[1]} {M.shape[0]}", f"{col_deg.max(initial=0)} {row_deg.max(initial=0)}"]
    degrees = [" ".join(map(str, col_deg.tolist())), " ".join(map(str, row_deg.tolist()))]
    return "\n".join(head + degrees + col_lines + row_lines) + "\n"


def import_alist(text: str) -> np.ndarray:
    """Binary uint8 matrix of alist text.  InvalidAlist for a bad header, line
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
    """0/1 uint8 rows of alist index lists; zero entries are padding."""
    out = np.zeros((len(lists), size), dtype=np.uint8)
    for i, line in enumerate(lists):
        idx = [j - 1 for j in line if j]
        if not all(0 <= j < size for j in idx) or len(set(idx)) != len(idx):
            raise InvalidAlist(f"{what} {i + 1}: an index outside 1..{size} or repeated")
        out[i, idx] = 1
    return out


def export_dense(M) -> str:
    """One line of '0'/'1' characters per row."""
    M = linalg.as_matrix(_F2.check_codes(M))
    text = np.full((M.shape[0], M.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = M + ord("0")
    return text.tobytes().decode() if M.shape[0] else "\n"
