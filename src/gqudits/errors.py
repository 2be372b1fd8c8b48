"""Exception types shared across the package."""

import numpy as np


class GquditError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPolynomial(GquditError):
    """A polynomial argument is malformed (e.g. the zero polynomial)."""


class IrreducibleRequired(GquditError):
    """A field modulus must be irreducible over F_2."""


class InvalidFieldCode(GquditError, ValueError):
    """An element code lies outside [0, q) for its field."""


class InvalidAlist(GquditError, ValueError):
    """Alist text is malformed or describes an inconsistent matrix."""


class InvalidArgument(GquditError, ValueError):
    """An integer argument is not an integer of its range, or a name not one of its names."""


class InvalidDocument(GquditError, ValueError):
    """A JSON document is not an object, lacks a required key, or holds a
    value of the wrong type."""


def json_fields(data, *keys):
    """The values of keys in a JSON object, in order; InvalidDocument names
    the first missing key."""
    if not isinstance(data, dict):
        raise InvalidDocument(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise InvalidDocument(f"missing key {key!r}")
    return [data[key] for key in keys]


def json_int_fields(data, **depths):
    """json_fields for integer values: key=0 asks for an int, key=d for lists
    of ints nested d deep, and key=2 for a matrix, whose rows must all have
    the same length.  InvalidDocument names the first key whose value has a
    non-int leaf (bool and float included), the wrong nesting, an int outside
    int64, or (with the row index) a row of another length than row 0."""

    def ints(value, depth):
        if depth == 0:
            return type(value) is int and -(1 << 63) <= value < 1 << 63
        return type(value) is list and all(ints(v, depth - 1) for v in value)

    values = json_fields(data, *depths)
    for (key, depth), value in zip(depths.items(), values):
        if not ints(value, depth):
            shape = "a list of " + "lists of " * (depth - 1) + "integers" if depth else "an integer"
            raise InvalidDocument(f"key {key!r} must be {shape}")
        if depth == 2:
            for i, row in enumerate(value):
                if len(row) != len(value[0]):
                    raise InvalidDocument(
                        f"key {key!r}: row {i} has {len(row)} entries, row 0 has {len(value[0])}"
                    )
    return values


def json_matrix(key, rows, ncols: int) -> np.ndarray:
    """A matrix value of json_int_fields as an int64 array of ncols columns;
    InvalidDocument names the key if its rows have another length."""
    if rows and len(rows[0]) != ncols:
        raise InvalidDocument(f"key {key!r}: rows have {len(rows[0])} entries, expected {ncols}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


class UnsupportedDegree(GquditError):
    """Extension degree outside the supported range 1..31."""


class FieldMismatch(GquditError):
    """Operands belong to different field constructions."""


class DivisionByZero(GquditError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(GquditError):
    """Vector or matrix shapes are inconsistent."""


class SelfDualRequired(GquditError):
    """Operation is only defined for a self-dual basis."""


class PureTypeRequired(GquditError):
    """Operation needs a pure-X or pure-Z Pauli word with positive sign."""


class TooLarge(GquditError):
    """Dense computation exceeds the configured dimension cap."""


class FullTableauRequired(GquditError):
    """Tableau must have m_X + m_Z = n rows."""


class RankDeficient(GquditError):
    """Rows of a generator block are linearly dependent."""


class NotCommuting(GquditError):
    """X-type and Z-type generator blocks are not orthogonal."""


class InvalidScale(GquditError):
    """Row scaling or gadget coefficients must be non-zero."""


class NotCssPreserving(GquditError):
    """Gate update would leave the CSS (pure-type rows) form."""


class InvalidGate(GquditError):
    """Unknown gate kind or invalid gate parameters."""


class NonUnitary(GquditError):
    """Requested gate is not unitary (e.g. multiplication by zero)."""


class WeightBelowDistance(GquditError):
    """Weight enumerator queried below the minimum distance."""


class InvalidSupport(GquditError):
    """Requested codeword roots are not evaluation points."""


class InvalidNesting(GquditError):
    """Quantum Reed-Solomon construction needs k1 <= k2."""


class PlanMismatch(GquditError):
    """A measurement plan is used with another code or assignment than its own."""


class DecodeFailure(GquditError):
    """Decoding refused at stage "radius" (error locator longer than the
    radius), "split" (locator does not split over the evaluation points) or
    "syndrome" (the error found fails the final syndrome check).  shot is
    the row of a stacked call that was refused, 0 for a single shot."""

    def __init__(self, message: str, stage: str, weight: int, radius: int, shot: int = 0):
        super().__init__(message, stage, weight, radius, shot)  # all in args, so it pickles
        self.stage, self.weight, self.radius, self.shot = stage, weight, radius, shot

    def __str__(self) -> str:
        return self.args[0]
