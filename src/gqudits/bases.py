"""F_2-bases of F_q: decomposition maps, dual bases, and self-dual bases.

A basis B = (eta_0, ..., eta_{s-1}) turns F_q into the bit-vector space
F_2^s via the decomposition map; the dual basis B* satisfies
tr(eta_i * mu_j) = delta_ij, which is what makes X-type data travel through
B and Z-type data through B* in the qudit-to-qubit mappings.
D_B is F_2-linear, so it is held as ceil(s/8) byte-sliced tables (the
eight-bits-at-a-time tables of Arlazarov et al. 1970, as in M4RI): table j
maps a byte v to D_B(v << 8j) packed in the smallest unsigned dtype of s bits.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, FieldMismatch, SelfDualRequired
from .field import GF, make_field


def unpack_bits(codes: np.ndarray, s: int) -> np.ndarray:
    """(..., s) uint8: bit i of every code, of a little-endian unsigned dtype."""
    return np.unpackbits(codes[..., None].view(np.uint8), axis=-1, bitorder="little")[..., :s]


def coordinates(tables: np.ndarray, index, codes: np.ndarray, s: int) -> np.ndarray:
    """(..., s) uint8 coordinates of checked codes: their bytes' entries in
    the flat byte tables from index on (one per code, or broadcast), XORed."""
    packed = tables[index + (codes & 255)]
    for j in range(1, -(-s // 8)):
        packed ^= tables[index + 256 * j + ((codes >> 8 * j) & 255)]
    return unpack_bits(packed, s)


class FieldBasis:
    """An ordered F_2-basis of F_q and its read-only byte tables of D_B:
    tables[j, v] is D_B(v << 8j) packed, bit i the coefficient of eta_i."""

    def __init__(self, gf: GF, elements):
        codes = np.array(gf.check_codes(elements))
        if codes.shape != (gf.s,):
            raise DimensionMismatch(f"basis needs {gf.s} elements, got shape {codes.shape}")
        # columns are the polynomial-basis bits of each basis element
        cols = (codes >> np.arange(gf.s)[:, None]) & 1
        _, inv, pivots = linalg.rref_augmented(make_field(1), cols, np.eye(gf.s, dtype=np.int64))
        if len(pivots) != gf.s:
            raise DimensionMismatch(f"elements {tuple(codes.tolist())} are F_2-dependent")
        self._build(gf, codes, inv)

    def _build(self, gf: GF, codes: np.ndarray, inv: np.ndarray) -> None:
        """Set up the basis of checked, independent codes from its inverse."""
        self.gf = gf
        self._codes = codes
        self.elements = tuple(codes.tolist())
        # inv takes a column of polynomial-basis bits to its coordinates, so its
        # column i packed is D_B(x^i); table j doubles in one bit of v << 8j at a time
        dtype = np.min_scalar_type(gf.q - 1).newbyteorder("<")
        self.tables = np.zeros((-(-gf.s // 8), 256), dtype=dtype)
        for i, x_i in enumerate(((1 << np.arange(gf.s)) @ inv).tolist()):
            j, b = divmod(i, 8)
            self.tables[j, 1 << b : 2 << b] = self.tables[j, : 1 << b] ^ x_i
        self.tables.setflags(write=False)
        self._dual: FieldBasis | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldBasis)
            and other.gf == self.gf
            and other.elements == self.elements
        )

    def __hash__(self) -> int:
        return hash((self.gf, self.elements))

    def __repr__(self) -> str:
        return f"FieldBasis(q={self.gf.q}, elements={list(self.elements)})"

    # -- decomposition -----------------------------------------------------

    def decompose(self, codes) -> np.ndarray:
        """Coefficients c with eta = sum_i c_i eta_i, for every code at once.

        Takes one code or an array of them and returns shape (..., s): an
        int gives one (s,) bit row, an (m, n) matrix gives (m, n, s).  One
        gather a byte from the tables, XORed, then one unpack.
        """
        codes = self.gf.check_codes(codes)
        return coordinates(self.tables.reshape(-1), 0, codes, self.gf.s).astype(np.int64)

    decompose_arr = decompose

    def recompose(self, bits) -> int | np.ndarray:
        """Inverse of decompose: the code sum_i c_i eta_i of every (..., s)
        row of bits c, by one XOR-reduction; one (s,) row gives an int."""
        bits = make_field(1).check_codes(bits)
        if bits.shape[-1:] != (self.gf.s,):
            raise DimensionMismatch(f"expected rows of {self.gf.s} bits, got shape {bits.shape}")
        codes = np.bitwise_xor.reduce(bits * self._codes, axis=-1)
        return int(codes) if bits.ndim == 1 else codes

    # -- duality -----------------------------------------------------------

    def gram(self) -> np.ndarray:
        """Matrix of tr(eta_i * eta_j)."""
        return self.gf.trace_arr(self.gf.mul_arr(self._codes[:, None], self._codes))

    def is_self_dual(self) -> bool:
        return bool(np.array_equal(self.gram(), np.eye(self.gf.s, dtype=np.int64)))

    def dual(self) -> "FieldBasis":
        if self._dual is None:
            self._dual = dual_basis(self)
        return self._dual

    def component_by_trace(self, eta: int, i: int) -> int:
        """i-th coefficient of eta, valid only for a self-dual basis."""
        if not self.is_self_dual():
            raise SelfDualRequired(f"{self!r} is not self-dual")
        return self.gf.trace(self.gf.mul(eta, self.elements[i]))


@lru_cache(maxsize=None)
def polynomial_basis(gf: GF) -> FieldBasis:
    """(1, alpha, alpha^2, ...): the packing basis of the element codes, one
    cached instance per field (its dual is cached on it)."""
    return FieldBasis(gf, [1 << i for i in range(gf.s)])


def dual_basis(basis: FieldBasis) -> FieldBasis:
    """The unique basis (mu_j) with tr(eta_i * mu_j) = delta_ij."""
    gf = basis.gf
    s = gf.s
    # tr(eta_i * mu) is F_2-linear in the polynomial-basis bits of mu
    T = gf.trace_arr(gf.mul_arr(basis._codes[:, None], 1 << np.arange(s)))
    gf2 = make_field(1)
    R, X, pivots = linalg.rref_augmented(gf2, T, np.eye(s, dtype=np.int64))
    if len(pivots) != s:
        raise RuntimeError("trace form degenerate; should be impossible for F_{2^s}")
    # column j of X solves T x = e_j: the polynomial-basis bits of mu_j; and
    # D_{B*}(x)_i = tr(eta_i * x) = (T . bits(x))_i, so T is the dual's inverse
    out = FieldBasis.__new__(FieldBasis)
    out._build(gf, (1 << np.arange(s, dtype=np.int64)) @ X, T)
    out._dual = basis
    return out


@lru_cache(maxsize=None)
def find_self_dual(gf: GF) -> FieldBasis:
    """First basis, in lexicographic element order, whose Gram matrix is I;
    one cached instance per field (its own dual).

    A depth-first search over elements with tr(eta^2) = 1, pruning on the
    pairwise trace constraints; existence is a classical fact for every
    F_{2^s} over F_2.
    """
    chosen: list[int] = []

    def extend(start: int) -> bool:
        if len(chosen) == gf.s:
            return True
        for a in range(start, gf.q):
            if gf.trace(gf.mul(a, a)) and not any(gf.trace(gf.mul(a, b)) for b in chosen):
                chosen.append(a)
                if extend(a + 1):
                    return True
                chosen.pop()
        return False

    if not extend(1):
        raise RuntimeError(f"no self-dual basis found for q={gf.q}; should be impossible")
    basis = FieldBasis(gf, chosen)
    basis._dual = basis
    return basis


class BasisAssignment:
    """One basis per qudit, defining the block decomposition maps."""

    def __init__(self, bases):
        bases = tuple(bases)
        if not bases:
            raise DimensionMismatch("assignment needs at least one basis")
        gf = bases[0].gf
        for b in bases:
            if b.gf != gf:
                raise FieldMismatch("assignment mixes different fields")
        self.gf = gf
        self.bases = bases
        self.n = len(bases)
        self._duals: BasisAssignment | None = None

    @classmethod
    def uniform(cls, basis: FieldBasis, n: int) -> "BasisAssignment":
        return cls([basis] * n)

    def duals(self) -> "BasisAssignment":
        if self._duals is None:
            self._duals = BasisAssignment([b.dual() for b in self.bases])
            self._duals._duals = self
        return self._duals

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(tables, index): the byte tables of the distinct bases, flat in
        order of first use, and per qudit the start of its basis's tables."""
        distinct = {B: i for i, B in enumerate(dict.fromkeys(self.bases))}
        flat = np.concatenate([B.tables.reshape(-1) for B in distinct])
        return flat, np.array([distinct[B] for B in self.bases]) * self.bases[0].tables.size

    @cached_property
    def scalings(self) -> np.ndarray:
        """float32 (n, s, s*s): row i of map j is D_{B_j}(eta_{j,i} * b_t) for
        t = 0..s-1 over the self-dual basis b, so the B_j bits of an element
        times map j are the B_j bits of b_t times it, for every t."""
        gf, b = self.gf, find_self_dual(self.gf)._codes
        distinct = dict.fromkeys(self.bases)  # in order of first use
        built = {B: B.decompose(gf.mul_arr(B._codes[:, None], b)) for B in distinct}
        return np.stack([built[B].reshape(gf.s, -1) for B in self.bases], dtype=np.float32)

    def __getitem__(self, i: int) -> FieldBasis:
        return self.bases[i]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BasisAssignment(n={self.n}, q={self.gf.q})"
