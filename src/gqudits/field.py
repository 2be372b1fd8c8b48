"""Arithmetic in binary extension fields F_{2^s}.

Field elements are packed into integers: bit i of the code is the
coefficient of alpha^i, where alpha is the adjoined root of the irreducible
modulus polynomial.  Polynomials over F_2 use the same packing (least
significant bit = constant term), so a modulus is itself just an integer,
e.g. 0b1011 = x^3 + x + 1 for F_8.

Addition is XOR.  Multiplication is one carry-less kernel, ``GF._mul``, the
same code for ints and int64 arrays; powers, inverses and the trace are built
on it.  For s <= 16 its exp/log and trace tables are cached as lookups; zero
has a log too (see _build_tables), so every product is one lookup.  The
scalar operations read Python-list copies of those tables, so a scalar
product costs three list reads, not numpy scalar reads; at s = 16 the lists
add ~9 MiB (the field holds ~12 MiB in all), at s <= 8 next to nothing.
``GF.matmul`` is the one F_q contraction (inner products, matrix-vector
and matrix-matrix products alike): numpy's @ shapes (m,k)@(k,n), (m,k)@(k,),
(k,)@(k,n) and (k,)@(k,), as one broadcast ``mul_arr`` and one XOR over k.

Every public operation checks its codes, the scalar ones before any list
read (a negative index would wrap silently); the kernels ``GF._prod`` and
``GF._inv`` behind ``mul_arr`` and ``inv_arr``, and the scalar ``GF._kernels``,
take codes already checked, for callers that check once at their boundary
(``grs.decode``).  A code is an integer: ``check_code`` refuses anything
else (a bool counts as an integer, 3.0 and an array do not), and
``check_codes``, the one cast of code and bit input at every array boundary,
refuses float, complex, string, object and ragged input before numpy would
truncate or parse it.  Every other integer argument goes through ``check_int``:
any integer ``operator.index`` reads, in its range, but not a bool (still a
code); each site names its error, ``InvalidArgument`` where none is narrower.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
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
    p = check_int(p, "polynomial", 2, error=InvalidPolynomial)  # degree >= 1
    d = poly_degree(p)
    if d == 1:
        return True
    if p & 1 == 0:
        return False  # divisible by x
    for div in range(3, 1 << (d // 2 + 1), 2):
        if poly_mod(p, div) == 0:
            return False
    return True


def check_int(x, what: str, lo: int = 0, hi: int | None = None, error=InvalidArgument) -> int:
    """x as a Python int if operator.index reads it and it lies in lo..hi (no
    bound when hi is None); a bool or np.bool_ is refused by its type, whatever
    numpy's version.  Anything else raises error, naming what."""
    if isinstance(x, (bool, np.bool_)):
        raise error(f"{what} {x!r} is not an integer")
    try:
        x = operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None
    if x < lo or (hi is not None and x > hi):
        raise error(f"{what} = {x} below {lo}" if hi is None else f"{what} = {x} outside {lo}..{hi}")
    return x


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


def canonical_modulus(s: int) -> int:
    """Irreducible degree-s polynomial with the smallest integer encoding.

    s = 1 uses x + 1 so that alpha reduces to 1 and F_2 behaves as the
    ordinary bit field.
    """
    return _canonical_modulus(check_int(s, "degree", 1, MAX_DEGREE, UnsupportedDegree))


@lru_cache(maxsize=None)
def _canonical_modulus(s: int) -> int:
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
        modulus = check_int(modulus, "modulus", 1, error=InvalidPolynomial)
        s = check_int(poly_degree(modulus), "degree", 1, MAX_DEGREE, UnsupportedDegree)
        if not is_irreducible(modulus):
            raise IrreducibleRequired(f"0b{modulus:b} = {poly_str(modulus)} factors over F_2")
        self.modulus = modulus
        self.s = s
        self.q = 1 << s
        self.primitive = self._find_primitive()
        self._exp = self._log = self._tr = None  # the kernel's tables, s <= 16
        self._exp_list = self._log_list = self._tr_list = None  # their list copies
        if s <= _TABLE_CAP:
            self._build_tables()
        self._kernels = self._scalar_kernels()

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
        self._exp_list, self._log_list = exp.tolist(), self._log.tolist()
        self._tr_list = self._tr.tolist()

    def _scalar_kernels(self):
        """(mul, inv) on codes already checked, for callers that check once at
        their boundary (grs.decode): closures over the list tables for s <= 16,
        else the shift kernel.  inv keeps its zero test: the lookup of a 0
        would read the zero tail of exp, a silent wrong answer."""
        exp, log, order = self._exp_list, self._log_list, self.q - 1

        def inv(a: int) -> int:
            if a == 0:
                raise DivisionByZero("0 has no multiplicative inverse")
            return self.pow(a, order - 1) if exp is None else exp[order - log[a]]

        return (self._mul if exp is None else lambda a, b: exp[log[a] + log[b]]), inv

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("GF", self.modulus))

    def __reduce__(self):  # the kernels are closures: pickle the modulus
        return make_field, (None, self.modulus)

    def __repr__(self) -> str:
        return f"GF(2^{self.s}, modulus=0b{self.modulus:b})"

    def check_same(self, other: "GF") -> None:
        if self != other:
            raise FieldMismatch(f"{self!r} vs {other!r}")

    def check_code(self, code: int) -> int:
        """code, if it is an integer (a bool counts) in [0, q)."""
        if not isinstance(code, (int, np.integer, np.bool_)):
            raise InvalidFieldCode(f"code {code!r} is not an integer")
        if not 0 <= code < self.q:
            raise InvalidFieldCode(f"code {code} outside [0, {self.q})")
        return code

    def check_codes(self, codes) -> np.ndarray:
        """codes as an int64 array (int64 input is not copied), if each is an
        integer (a bool counts) in [0, q): the one rule for code and bit input.
        Float, complex, string and object input, ints outside int64 included,
        raises InvalidFieldCode before the cast, unless it is empty.  The range
        is one OR-reduction, which has a bit at or above s iff some code has."""
        try:
            a = np.asarray(codes)
        except ValueError:  # ragged nesting
            raise InvalidFieldCode("codes must form an array, got ragged input") from None
        if a.dtype.kind not in "biu" and a.size:
            raise InvalidFieldCode(f"codes must be integers, got {a.dtype} input")
        codes = a.astype(np.int64, copy=False)
        if np.bitwise_or.reduce(codes, axis=None) >> self.s:
            bad = a[(codes < 0) | (codes >= self.q)].flat[0]
            raise InvalidFieldCode(f"code {bad} outside [0, {self.q})")
        return codes

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        # one shift finds a negative code or one >= q; anything but an int,
        # a numpy integer or an array say, goes to check_code too
        if type(a) is not int or type(b) is not int or (a | b) >> self.s:
            self.check_code(a)
            self.check_code(b)
        if self._exp_list is not None:
            log = self._log_list
            return self._exp_list[log[a] + log[b]]
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        if type(a) is not int or a >> self.s:
            self.check_code(a)
        return self._kernels[1](a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a^e for a code or an int64 array of codes, by square and multiply
        on the kernel; a negative e raises a^(q-2) = a^-1 to -e."""
        self.check_codes(a)
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
        if type(a) is not int or a >> self.s:
            self.check_code(a)
        if self._tr_list is not None:
            return self._tr_list[a]
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
        return self._prod(self.check_codes(a), self.check_codes(b))

    def inv_arr(self, a) -> np.ndarray:
        return self._inv(self.check_codes(a))

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
        a = self.check_codes(a)
        if self._tr is None:
            return self._trace(a)
        return self._tr[a]

    def matmul(self, A, B) -> np.ndarray:
        """A @ B over F_q for 1-D or 2-D code arrays in the shapes of numpy's @;
        (k,)@(k,) gives a numpy integer.  Any other shape raises
        DimensionMismatch.  One checked broadcast mul_arr, then one XOR over k,
        so k = 0 gives zeros."""
        A, B = self.check_codes(A), self.check_codes(B)
        if A.ndim not in (1, 2) or B.ndim not in (1, 2) or A.shape[-1] != B.shape[0]:
            raise DimensionMismatch(f"matmul of shapes {A.shape} and {B.shape}")
        if B.ndim == 2:
            A = A[..., None]  # k on the second-to-last axis, next to B's columns
        return np.bitwise_xor.reduce(self.mul_arr(A, B), axis=-B.ndim)


def values_equal(a, b) -> bool:
    """a == b for a dataclass that holds arrays (CssCode, GrsCode, QrsCode,
    CssTableau, StateVector, DenseOperator): the same class and every field
    with compare=True equal, arrays by np.array_equal; the same object at once."""
    if type(b) is not type(a):
        return NotImplemented
    if a is b:
        return True
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.compare and not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


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
            raise InvalidArgument("need s or modulus")
        return _field_for_modulus(canonical_modulus(s))
    modulus = check_int(modulus, "modulus", 1, error=InvalidPolynomial)
    if s is not None and poly_degree(modulus) != check_int(s, "degree", 1, MAX_DEGREE, UnsupportedDegree):
        raise InvalidArgument(f"modulus 0b{modulus:b} has degree {poly_degree(modulus)}, not {s}")
    return _field_for_modulus(modulus)


def field_from_json(data) -> GF:
    """The field of a JSON document, from its 'modulus'; InvalidDocument
    names 'q' when the document also gives a q other than 2^deg(modulus)."""
    (modulus,) = json_int_fields(data, modulus=0)
    gf = make_field(modulus=modulus)
    if "q" in data and json_int_fields(data, q=0)[0] != gf.q:
        raise InvalidDocument(f"key 'q' is {data['q']}, but modulus {modulus} gives q = {gf.q}")
    return gf
