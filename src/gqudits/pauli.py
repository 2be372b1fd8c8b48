"""Symbolic n-qudit Galois Pauli words with sign tracking.

A word is sign * X^x Z^z in the canonical X-part-first order, where x and z
are vectors of element codes.  In characteristic 2 the group generated by
X and Z operators closes over signs {+1, -1}; no imaginary phases arise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, PureTypeRequired
from .field import GF, check_int


@dataclass(frozen=True)
class PauliWord:
    gf: GF
    xvec: tuple[int, ...]
    zvec: tuple[int, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        for name in ("xvec", "zvec"):  # kept as tuples of Python ints
            codes = self.gf.check_codes(getattr(self, name))
            if codes.ndim != 1:
                raise DimensionMismatch(f"a word's codes form one vector, got shape {codes.shape}")
            object.__setattr__(self, name, tuple(codes.tolist()))
        if len(self.xvec) != len(self.zvec):
            raise DimensionMismatch(f"x has {len(self.xvec)} sites, z has {len(self.zvec)}")
        sign = check_int(self.sign, "sign", -1, 1)
        if sign == 0:
            raise InvalidArgument("sign must be +1 or -1, got 0")
        object.__setattr__(self, "sign", sign)

    @property
    def n(self) -> int:
        return len(self.xvec)

    @property
    def x_array(self) -> np.ndarray:
        return np.array(self.xvec, dtype=np.int64)

    @property
    def z_array(self) -> np.ndarray:
        return np.array(self.zvec, dtype=np.int64)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, gf: GF, n: int) -> "PauliWord":
        n = check_int(n, "n")
        return cls(gf, (0,) * n, (0,) * n)

    @classmethod
    def x_word(cls, gf: GF, codes, sign: int = 1) -> "PauliWord":
        return cls(gf, codes, (0,) * gf.check_codes(codes).size, sign)

    @classmethod
    def z_word(cls, gf: GF, codes, sign: int = 1) -> "PauliWord":
        return cls(gf, (0,) * gf.check_codes(codes).size, codes, sign)

    @classmethod
    def from_vectors(cls, gf: GF, xvec, zvec, sign: int = 1) -> "PauliWord":
        return cls(gf, xvec, zvec, sign)

    # -- structure -------------------------------------------------------------

    def is_pure_x(self) -> bool:
        return not any(self.zvec)

    def is_pure_z(self) -> bool:
        return not any(self.xvec)

    def is_pure(self) -> bool:
        return self.is_pure_x() or self.is_pure_z()

    def require_pure(self) -> None:
        """PureTypeRequired unless the word is unsigned and pure-type, the
        words that field powers and measurement are defined on."""
        if not self.is_pure() or self.sign != 1:
            raise PureTypeRequired(f"need an unsigned pure-type word, got {self.to_text()}")

    def weight(self) -> int:
        return sum(1 for x, z in zip(self.xvec, self.zvec) if x or z)

    def _check_shape(self, other: "PauliWord") -> None:
        self.gf.check_same(other.gf)
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} sites vs {other.n} sites")

    # -- group operations ---------------------------------------------------------

    def multiply(self, other: "PauliWord") -> "PauliWord":
        """Canonical-form product; moving Z^z past X^x costs (-1)^tr(z . x)."""
        self._check_shape(other)
        gf = self.gf
        reorder = gf.trace(int(gf.matmul(self.z_array, other.x_array)))
        sign = self.sign * other.sign * (-1 if reorder else 1)
        xvec = tuple(a ^ b for a, b in zip(self.xvec, other.xvec))
        zvec = tuple(a ^ b for a, b in zip(self.zvec, other.zvec))
        return PauliWord(gf, xvec, zvec, sign)

    __mul__ = multiply

    def commutes(self, other: "PauliWord") -> bool:
        self._check_shape(other)
        gf = self.gf
        form = gf.matmul(self.x_array, other.z_array) ^ gf.matmul(other.x_array, self.z_array)
        return gf.trace(int(form)) == 0  # tr is F_2-linear: tr(x.z') + tr(x'.z)

    def power(self, mu: int) -> "PauliWord":
        """Every exponent scaled by mu; defined for unsigned pure-type words."""
        self.require_pure()
        gf = self.gf
        gf.check_code(mu)
        if self.is_pure_x() and any(self.xvec):
            return PauliWord.x_word(gf, [gf.mul(mu, c) for c in self.xvec])
        return PauliWord.z_word(gf, [gf.mul(mu, c) for c in self.zvec])

    # -- text form -----------------------------------------------------------------

    def to_text(self) -> str:
        sign = "+" if self.sign > 0 else "-"
        xs = ",".join(str(c) for c in self.xvec)
        zs = ",".join(str(c) for c in self.zvec)
        return f"{sign}|x:[{xs}]|z:[{zs}]"

    @classmethod
    def from_text(cls, gf: GF, text: str) -> "PauliWord":
        m = re.fullmatch(r"([+-])\|x:\[([\d,\s]*)\]\|z:\[([\d,\s]*)\]", text.strip())
        if m is None:
            raise InvalidArgument(f"cannot parse Pauli text {text!r}")
        sign = 1 if m.group(1) == "+" else -1
        parse = lambda g: tuple(int(t) for t in g.split(",") if t.strip())
        return cls(gf, parse(m.group(2)), parse(m.group(3)), sign)

    def __repr__(self) -> str:
        return f"PauliWord({self.to_text()}, q={self.gf.q})"
