"""Arithmetic in binary extension fields F_{2^s}.

Field elements are packed into integers: bit i of the code is the
coefficient of alpha^i, where alpha is the adjoined root of the irreducible
modulus polynomial.  Polynomials over F_2 use the same packing (least
significant bit = constant term), so a modulus is itself just an integer,
e.g. 0b1011 = x^3 + x + 1 for F_8.

Addition is XOR.  Multiplication is one carry-less kernel, ``GF._mul``, the
same code for ints and int64 arrays; powers, inverses and the trace are built
on it.  For s <= 16 its exp/log and trace tables are cached as lookups; zero
has a log too (see _build_tables), so every product is one lookup.  Every
public operation checks its codes; the kernels ``GF._prod`` and ``GF._inv``
behind ``mul_arr`` and ``inv_arr`` take codes already checked, for callers
that check once at their boundary (``grs.decode``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidDocument,
    InvalidFieldCode,
    InvalidPolynomial,
    IrreducibleRequired,
    UnsupportedDegree,
    json_int_fields,
)

MAX_DEGREE = 31
_TABLE_CAP = 16  # exp/log and trace tables only cached up to q = 2^16


def poly_degree(p: int) -> int:
    """Degree of a packed F_2[x] polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of a packed polynomial modulo m."""
    if m == 0:
        raise InvalidPolynomial("division by the zero polynomial")
    dm = poly_degree(m)
    da = poly_degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = poly_degree(a)
    return a


def poly_str(p: int) -> str:
    """Human-readable form, e.g. 0b1011 -> 'x^3 + x + 1'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)


def is_irreducible(p: int) -> bool:
    """Whether p has no non-trivial factorisation over F_2.

    Trial division by every candidate divisor of degree <= deg(p)/2; cheap
    at the desk scales this package works at.
    """
    if p == 0:
        raise InvalidPolynomial("the zero polynomial cannot be tested")
    d = poly_degree(p)
    if d < 1:
        raise InvalidPolynomial("irreducibility needs degree >= 1")
    if d == 1:
        return True
    if p & 1 == 0:
        return False  # divisible by x
    for div in range(3, 1 << (d // 2 + 1), 2):
        if poly_mod(p, div) == 0:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(s: int) -> int:
    """Irreducible degree-s polynomial with the smallest integer encoding.

    s = 1 uses x + 1 so that alpha reduces to 1 and F_2 behaves as the
    ordinary bit field.
    """
    if s < 1 or s > MAX_DEGREE:
        raise UnsupportedDegree(f"degree {s} outside 1..{MAX_DEGREE}")
    if s == 1:
        return 0b11
    p = (1 << s) + 1
    while not is_irreducible(p):
        p += 2
    return p


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class GF:
    """The binary extension field F_{2^s} defined by an irreducible modulus.

    Scalar operations act on integer element codes in [0, q); vectorised
    variants (``mul_arr`` etc.) act on numpy integer arrays.  Both run the
    kernel ``_mul``, or for s <= 16 the tables built from it.
    """

    def __init__(self, modulus: int):
        if modulus <= 0:
            raise InvalidPolynomial("modulus must be a non-zero polynomial")
        s = poly_degree(modulus)
        if s < 1 or s > MAX_DEGREE:
            raise UnsupportedDegree(f"degree {s} outside 1..{MAX_DEGREE}")
        if not is_irreducible(modulus):
            raise IrreducibleRequired(f"0b{modulus:b} = {poly_str(modulus)} factors over F_2")
        self.modulus = modulus
        self.s = s
        self.q = 1 << s
        self.primitive = self._find_primitive()
        self._exp = self._log = self._tr = None  # the kernel's tables, s <= 16
        if s <= _TABLE_CAP:
            self._build_tables()

    # -- the kernel and its table cache -----------------------------------------

    def _mul(self, a, b):
        """a*b for ints or int64 arrays: s branch-free shift/xor steps with the
        reduction interleaved, so every value stays below 2^(s+1)."""
        s, m = self.s, self.modulus
        out = 0
        for i in range(s):
            out = out ^ a * ((b >> i) & 1)
            a = a << 1
            a = a ^ m * ((a >> s) & 1)
        return out

    def _trace(self, a):
        """a + a^2 + a^4 + ... + a^(2^(s-1)), for ints or int64 arrays."""
        t = a
        for _ in range(self.s - 1):
            a = self._mul(a, a)
            t = t ^ a
        return t

    def _find_primitive(self) -> int:
        if self.q == 2:
            return 1
        order = self.q - 1
        checks = [order // f for f in _prime_factors(order)]
        for cand in range(2, self.q):
            if all(self.pow(cand, c) != 1 for c in checks):
                return cand
        raise RuntimeError("no primitive element found; multiplicative group not cyclic?")

    def _build_tables(self) -> None:
        """exp[:2 order + 1] holds g^k; log[0] = 2 order + 1 lies past every
        sum of two non-zero logs, so a product with a zero reads the zero tail."""
        order = self.q - 1
        exp = np.zeros(4 * order + 3, dtype=np.int64)
        exp[: 2 * order + 1] = 1
        k = 1
        while k < order:  # doubling: exp[k:2k] = exp[:k] * g^k
            n = min(k, order - k)
            exp[k : k + n] = self._mul(exp[:n], self._mul(int(exp[k - 1]), self.primitive))
            k += n
        exp[order : 2 * order] = exp[:order]
        self._exp, self._log = exp, np.full(self.q, 2 * order + 1, dtype=np.int64)
        self._log[exp[:order]] = np.arange(order)
        self._tr = self._trace(np.arange(self.q, dtype=np.int64))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("GF", self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.s}, modulus=0b{self.modulus:b})"

    def check_same(self, other: "GF") -> None:
        if self != other:
            raise FieldMismatch(f"{self!r} vs {other!r}")

    def check_code(self, code: int) -> int:
        if not 0 <= code < self.q:
            raise InvalidFieldCode(f"code {code} outside [0, {self.q})")
        return code

    def check_codes(self, codes: np.ndarray) -> np.ndarray:
        """check_code for a whole integer array at once: one OR-reduction,
        which has a bit at or above s (or is negative) iff some code does."""
        if np.bitwise_or.reduce(codes, axis=None) >> self.s:
            bad = codes[(codes < 0) | (codes >= self.q)].flat[0]
            raise InvalidFieldCode(f"code {bad} outside [0, {self.q})")
        return codes

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        if (a | b) >> self.s:  # a or b is negative or >= q
            self.check_code(a)
            self.check_code(b)
        if self._exp is not None:
            return int(self._exp[self._log[a] + self._log[b]])
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        if a >> self.s:
            self.check_code(a)
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self._exp is not None:
            return int(self._exp[(self.q - 1) - self._log[a]])
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a^e for a code or an int64 array of codes, by square and multiply
        on the kernel; a negative e raises a^(q-2) = a^-1 to -e."""
        self.check_codes(np.asarray(a, dtype=np.int64))
        if e < 0:
            if np.any(a == 0):
                raise DivisionByZero("0 has no multiplicative inverse")
            e = -e * (self.q - 2)
        out = 0 * a + 1  # one, shaped like a
        while e:
            if e & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            e >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.mul(a, a)

    def trace(self, a: int) -> int:
        if a >> self.s:
            self.check_code(a)
        if self._tr is not None:
            return int(self._tr[a])
        return self._trace(a)

    # -- element iteration ---------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- vectorised arithmetic -------------------------------------------------

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product, broadcast.  Any code outside [0, q) raises
        InvalidFieldCode; then the unchecked kernel _prod."""
        a = self.check_codes(np.asarray(a, dtype=np.int64))
        b = self.check_codes(np.asarray(b, dtype=np.int64))
        return self._prod(a, b)

    def inv_arr(self, a) -> np.ndarray:
        return self._inv(self.check_codes(np.asarray(a, dtype=np.int64)))

    def _prod(self, a, b) -> np.ndarray:
        """mul_arr of int64 codes already checked: one kernel call, or for
        s <= 16 one lookup (zero included, see _build_tables)."""
        if self._exp is None:
            return self._mul(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def _inv(self, a) -> np.ndarray:
        """inv_arr of int64 codes already checked.  The zero test stays: the
        lookup of a 0 would read the zero tail of exp, a silent wrong answer."""
        if np.any(a == 0):
            raise DivisionByZero("0 has no multiplicative inverse")
        if self._exp is None:
            return self.pow(a, self.q - 2)
        return self._exp[(self.q - 1) - self._log[a]]

    def trace_arr(self, a) -> np.ndarray:
        a = self.check_codes(np.asarray(a, dtype=np.int64))
        if self._tr is None:
            return self._trace(a)
        return self._tr[a]

    def dot(self, u, v) -> int:
        """F_q inner product of two equal-length code vectors."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise DimensionMismatch(f"dot of shapes {u.shape} and {v.shape}")
        return int(np.bitwise_xor.reduce(self.mul_arr(u, v)))

    def matvec(self, M, v) -> np.ndarray:
        M = np.asarray(M, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if M.ndim != 2 or M.shape[1:] != v.shape:
            raise DimensionMismatch(f"matvec of shapes {M.shape} and {v.shape}")
        return np.bitwise_xor.reduce(self.mul_arr(M, v[None, :]), axis=1)

    def matmul(self, A, B) -> np.ndarray:
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise DimensionMismatch(f"matmul of shapes {A.shape} and {B.shape}")
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(A.shape[1]):
            out ^= self.mul_arr(A[:, k : k + 1], B[k : k + 1, :])
        return out


@lru_cache(maxsize=None)
def _field_for_modulus(modulus: int) -> GF:
    return GF(modulus)


def make_field(s: int | None = None, modulus: int | None = None) -> GF:
    """Construct (and cache) F_{2^s}.

    Either give the extension degree s, which selects the canonical modulus,
    or an explicit irreducible modulus polynomial (packed integer).
    """
    if modulus is None:
        if s is None:
            raise ValueError("need s or modulus")
        modulus = canonical_modulus(s)
    elif s is not None and poly_degree(modulus) != s:
        raise ValueError(f"modulus 0b{modulus:b} has degree {poly_degree(modulus)}, not {s}")
    return _field_for_modulus(modulus)


def field_from_json(data) -> GF:
    """The field of a JSON document, from its 'modulus'; InvalidDocument
    names 'q' when the document also gives a q other than 2^deg(modulus)."""
    (modulus,) = json_int_fields(data, modulus=0)
    gf = make_field(modulus=modulus)
    if "q" in data and json_int_fields(data, q=0)[0] != gf.q:
        raise InvalidDocument(f"key 'q' is {data['q']}, but modulus {modulus} gives q = {gf.q}")
    return gf
