"""Field construction, arithmetic laws, trace, and linear maps."""

import pickle
import re

import numpy as np
import pytest

from gqudits.errors import (
    DimensionMismatch,
    DivisionByZero,
    GquditError,
    InvalidArgument,
    InvalidFieldCode,
    InvalidPolynomial,
    IrreducibleRequired,
    UnsupportedDegree,
)
from gqudits.field import (
    GF,
    canonical_modulus,
    check_int,
    is_irreducible,
    make_field,
    poly_degree,
    poly_mod,
    poly_str,
)

# Primitive elements of the canonical fields, pinned: `field info` reports them.
PRIMITIVES = {
    1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3, 9: 7, 10: 2,
    11: 2, 12: 3, 13: 2, 14: 7, 15: 2, 16: 3, 17: 2, 18: 10, 19: 2, 20: 2,
}
TABLE_FREE = [17, 20, 31]


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two packed polynomials over F_2."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


class TestConstruction:
    def test_f8_from_modulus(self):
        gf = make_field(modulus=0b1011)  # x^3 + x + 1
        assert gf.s == 3 and gf.q == 8

    def test_reducible_modulus_rejected(self):
        with pytest.raises(IrreducibleRequired):
            make_field(modulus=0b101)  # x^2 + 1 = (x+1)^2

    def test_prime_field(self):
        gf = make_field(1)
        assert gf.q == 2 and gf.modulus == 0b11 and gf.primitive == 1

    def test_degree_bounds(self):
        with pytest.raises(UnsupportedDegree):
            make_field(0)
        with pytest.raises(UnsupportedDegree):
            make_field(32)

    def test_canonical_moduli_are_smallest(self):
        for s in range(2, 9):
            m = canonical_modulus(s)
            assert poly_degree(m) == s and is_irreducible(m)
            for cand in range((1 << s) + 1, m, 2):
                assert not is_irreducible(cand)

    def test_primitive_element_has_full_order(self):
        for s in (2, 3, 4):
            gf = make_field(s)
            mu = gf.primitive
            seen = set()
            x = 1
            for _ in range(gf.q - 1):
                x = gf.mul(x, mu)
                seen.add(x)
            assert len(seen) == gf.q - 1

    def test_field_cache_returns_same_object(self):
        assert make_field(3) is make_field(modulus=0b1011)

    def test_serialises_as_modulus_integer(self):
        assert make_field(3).modulus == 11

    def test_primitive_elements_pinned(self):
        assert {s: make_field(s).primitive for s in PRIMITIVES} == PRIMITIVES


class TestIrreducibility:
    @pytest.mark.parametrize(
        "poly,expected",
        [(0b111, True), (0b1101, True), (0b101, False), (0b11, True)],
    )
    def test_examples(self, poly, expected):
        assert is_irreducible(poly) is expected

    def test_zero_polynomial(self):
        with pytest.raises(InvalidPolynomial):
            is_irreducible(0)

    def test_poly_helpers(self):
        assert poly_mod(0b101, 0b11) == 0  # (x+1)^2 divisible by x+1
        assert poly_str(0b1011) == "x^3 + x + 1"


class TestArithmetic:
    def test_char_two_addition(self):
        gf = make_field(3)
        assert gf.add(6, 6) == 0
        for a in gf.elements():
            assert gf.add(a, 0) == a

    def test_alpha_plus_one(self):
        gf = make_field(modulus=0b1011)
        assert gf.add(0b010, 0b001) == 0b011  # alpha + 1

    def test_f8_worked_product(self):
        gf = make_field(modulus=0b1011)
        assert gf.mul(0b110, 0b111) == 0b100  # (a+a^2)(1+a+a^2) = a^2

    def test_f4_multiplication_table(self):
        gf = make_field(modulus=0b111)
        # exhaustive table pins the (2,3) product used by inv below
        table = [[gf.mul(a, b) for b in range(4)] for a in range(4)]
        assert table[2][3] == 1
        for a in range(1, 4):
            assert sorted(table[a][1:]) == [1, 2, 3]  # rows permute F_4^*

    def test_inverses(self):
        assert make_field(2).inv(2) == 3
        for s in (1, 2, 3, 4):
            gf = make_field(s)
            assert gf.inv(1) == 1
            for a in gf.nonzero_elements():
                assert gf.mul(a, gf.inv(a)) == 1
        with pytest.raises(DivisionByZero):
            make_field(2).inv(0)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_power_laws(self, s):
        gf = make_field(s)
        for a in gf.elements():
            assert gf.pow(a, gf.q) == a
            assert gf.pow(a, gf.q - 1) == (1 if a else 0)
            assert gf.frobenius(a) == gf.pow(a, 2)

    def test_axioms_exhaustive_small(self):
        for s in (1, 2, 3):
            gf = make_field(s)
            for a in gf.elements():
                for b in gf.elements():
                    assert gf.mul(a, b) == gf.mul(b, a)
                    for c in gf.elements():
                        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
                        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))

    def test_axioms_random_q256(self):
        gf = make_field(8)
        rng = np.random.default_rng(1)
        trips = rng.integers(0, 256, size=(10_000, 3))
        for a, b, c in trips:
            a, b, c = int(a), int(b), int(c)
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))

    def test_square_distribution(self):
        rng = np.random.default_rng(2)
        for s in (1, 2, 3, 4):
            gf = make_field(s)
            for _ in range(200):
                tup = rng.integers(0, gf.q, size=int(rng.integers(1, 9)))
                total, squares = 0, 0
                for e in tup:
                    total ^= int(e)
                    squares ^= gf.mul(int(e), int(e))
                assert gf.mul(total, total) == squares

    def test_vectorised_matches_scalar(self):
        gf = make_field(3)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 8, size=50)
        b = rng.integers(0, 8, size=50)
        assert all(gf.mul_arr(a, b)[i] == gf.mul(int(a[i]), int(b[i])) for i in range(50))
        nz = rng.integers(1, 8, size=20)
        assert all(gf.inv_arr(nz)[i] == gf.inv(int(nz[i])) for i in range(20))


class TestTrace:
    def test_prime_field_identity(self):
        gf = make_field(1)
        for a in (0, 1):
            assert gf.trace(a) == a

    def test_f4_values(self):
        gf = make_field(2)
        # direct evaluation of eta + eta^2
        direct = [gf.add(a, gf.mul(a, a)) for a in range(4)]
        assert direct == [0, 0, 1, 1]
        assert [gf.trace(a) for a in range(4)] == direct

    def test_f8_trace_of_one(self):
        assert make_field(3).trace(1) == 1

    @pytest.mark.parametrize("s", list(range(1, 9)))
    def test_trace_laws_exhaustive(self, s):
        gf = make_field(s)
        for a in gf.elements():
            assert gf.trace(a) in (0, 1)
            assert gf.trace(gf.frobenius(a)) == gf.trace(a)
        for a in gf.elements():
            for b in gf.elements():
                if s <= 6:
                    assert gf.trace(gf.add(a, b)) == gf.trace(a) ^ gf.trace(b)

    def test_trace_onto(self):
        for s in (1, 2, 3, 4):
            gf = make_field(s)
            assert {gf.trace(a) for a in gf.elements()} == {0, 1}


class TestLinearMaps:
    """The gamma-indexed F_2-linear maps eta -> tr(gamma * eta)."""

    def test_zero_map(self):
        gf = make_field(2)
        assert all(gf.trace(gf.mul(0, eta)) == 0 for eta in gf.elements())

    def test_maps_pairwise_distinct(self):
        for s in (1, 2):
            gf = make_field(s)
            cols = {tuple(gf.trace(gf.mul(g, e)) for e in gf.elements()) for g in gf.elements()}
            assert len(cols) == gf.q

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_additivity(self, s):
        gf = make_field(s)
        for g in gf.elements():
            for e1 in gf.elements():
                for e2 in gf.elements():
                    lhs = gf.trace(gf.mul(g, e1 ^ e2))
                    assert lhs == gf.trace(gf.mul(g, e1)) ^ gf.trace(gf.mul(g, e2))

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_character_orthogonality(self, s):
        gf = make_field(s)
        for eta in gf.elements():
            total = sum(1 - 2 * gf.trace(gf.mul(mu, eta)) for mu in gf.elements())
            assert total == (gf.q if eta == 0 else 0)


class TestScalarCodeValidation:
    @pytest.mark.parametrize("s", [2, 17])  # a table field and a table-free one
    def test_mul_rejects_out_of_range(self, s):
        gf = make_field(s)
        for a, b in [(-1, 3), (3, -1), (gf.q + 1, 1), (1, gf.q), (-1, 0), (0, -(1 << 40))]:
            with pytest.raises(InvalidFieldCode):
                gf.mul(a, b)

    @pytest.mark.parametrize("s", [2, 17])
    @pytest.mark.parametrize("a", [-1, -(1 << 40), 1 << 17])
    def test_inv_and_trace_reject_out_of_range(self, s, a):
        gf = make_field(s)
        with pytest.raises(InvalidFieldCode):
            gf.inv(a)
        with pytest.raises(InvalidFieldCode):
            gf.trace(a)

    def test_derived_operations_checked(self):
        gf = make_field(2)
        for call in (lambda: gf.div(1, 4), lambda: gf.pow(-1, 3), lambda: gf.frobenius(4)):
            with pytest.raises(InvalidFieldCode):
                call()

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError, match="code -1 outside"):
            make_field(2).mul(-1, 3)

    def test_numpy_integer_codes(self):
        gf = make_field(3)
        assert gf.mul(np.int64(6), np.int64(7)) == gf.mul(6, 7)
        with pytest.raises(InvalidFieldCode):
            gf.trace(np.int64(8))


class TestIntegerCodes:
    """check_code and check_codes take integers only; a bool counts as one,
    and an integral float such as 3.0 does not."""

    @pytest.mark.parametrize("code", [2.5, 3.0, "3", None, 1 + 0j, np.float64(3.0), [3]])
    def test_check_code_refuses_non_integers(self, code):
        with pytest.raises(InvalidFieldCode, match="not an integer"):
            make_field(3).check_code(code)

    def test_check_code_accepts_integer_types(self):
        gf = make_field(3)
        for code in (3, True, np.int64(3), np.uint8(3), np.True_):
            assert gf.check_code(code) == code

    @pytest.mark.parametrize("codes", [[1.5, 2.0], [1 + 0j], ["3"], [1, 1 << 70], np.array([0.0])])
    def test_int_array_refuses_non_integers(self, codes):
        with pytest.raises(InvalidFieldCode, match="must be integers"):
            make_field(3).check_codes(codes)

    def test_int_array_casts_integers(self):
        for codes, want in (([True, False], [1, 0]), (np.array([3], dtype=np.uint8), [3]), ([], []),
                            (np.zeros((0, 2)), np.zeros((0, 2)))):
            got = make_field(3).check_codes(codes)
            assert got.dtype == np.int64 and np.array_equal(got, want) and got.shape == np.shape(want)

    def test_check_codes_shares_int64_input(self):
        codes = np.array([1, 2, 7])
        assert make_field(3).check_codes(codes) is codes

    @pytest.mark.parametrize("codes", [[8], [-1], np.array([1 << 63], dtype=np.uint64)])
    def test_check_codes_names_the_code_outside_the_field(self, codes):
        with pytest.raises(InvalidFieldCode, match=f"code {np.asarray(codes)[0]} outside"):
            make_field(3).check_codes(codes)

    @pytest.mark.parametrize("bad", [1.5, 2.9, "3", 1 + 0j, 2**70, np.float64(2.0)])
    def test_scalar_ops_refuse_non_integers(self, bad):
        gf = make_field(3)
        calls = [gf.mul, gf.div, lambda a, b: gf.mul(b, a), lambda a, b: gf.div(b, a), gf.pow]
        for call in calls:
            with pytest.raises(InvalidFieldCode):
                call(bad, 3)
        for call in (gf.inv, gf.trace, gf.frobenius):
            with pytest.raises(InvalidFieldCode):
                call(bad)

    @pytest.mark.parametrize("s", [3, 17])  # a table field and a table-free one
    @pytest.mark.parametrize(
        "bad", [np.array([1]), np.array([1, 2]), np.array(1), np.array(1, dtype=object)], ids=repr
    )
    def test_scalar_ops_refuse_arrays(self, s, bad):
        """An array, even of one valid code, is no scalar code: the one-shift
        guard sends it to check_code, not into a list read."""
        gf = make_field(s)
        calls = [gf.mul, gf.div, lambda a, b: gf.mul(b, a), lambda a, b: gf.div(b, a)]
        for call in calls:
            with pytest.raises(InvalidFieldCode):
                call(bad, 3)
        for call in (gf.inv, gf.trace, gf.frobenius):
            with pytest.raises(InvalidFieldCode):
                call(bad)

    @pytest.mark.parametrize("codes", [[[1, 2], [3]], [1, [2, 3]], [[1], [[2]]]])
    def test_check_codes_refuses_ragged_input(self, codes):
        gf = make_field(3)
        for call in (gf.check_codes, lambda c: gf.mul_arr(c, 1), lambda c: gf.matmul(c, [1, 1])):
            with pytest.raises(InvalidFieldCode, match="ragged"):
                call(codes)


class TestScalarKernels:
    """GF._kernels, the unchecked scalar (mul, inv) that grs.decode runs
    after one check at its boundary: list-table closures up to s = 16, the
    shift kernel above, equal to the checked gf.mul and gf.inv on seeded
    codes, and inv(0) raises DivisionByZero in both regimes."""

    @pytest.mark.parametrize("s", [1, 2, 6, 16, 17, 20, 31])
    def test_match_the_checked_ops(self, s):
        gf = make_field(s)
        mul, inv = gf._kernels
        rng = np.random.default_rng(3100 + s)
        a, b = rng.integers(0, gf.q, (2, 40)).tolist()
        assert [mul(x, y) for x, y in zip(a, b)] == [gf.mul(x, y) for x, y in zip(a, b)]
        units = [x for x in a if x][:10] + [1, gf.q - 1]
        assert [inv(x) for x in units] == [gf.inv(x) for x in units]
        assert all(gf.mul(x, inv(x)) == 1 for x in units)
        with pytest.raises(DivisionByZero):
            inv(0)

    def test_built_once_per_field(self):
        gf = make_field(6)
        assert gf._kernels is make_field(6)._kernels and len(gf._kernels) == 2

    @pytest.mark.parametrize("s", [3, 17])
    def test_field_pickles_as_the_cached_field(self, s):
        gf = make_field(s)
        assert pickle.loads(pickle.dumps(gf)) is gf


class TestCheckInt:
    """check_int, the one rule for an integer argument that is not a code."""

    @pytest.mark.parametrize("x", [3, np.int64(3), np.int32(3), np.uint8(3), np.int8(3)], ids=repr)
    def test_any_integer_is_a_python_int(self, x):
        out = check_int(x, "n")
        assert out == 3 and type(out) is int

    def test_big_ints_and_negative_bounds(self):
        assert check_int(2**70, "n") == 2**70
        assert check_int(-1, "sign", -1, 1) == -1

    @pytest.mark.parametrize(
        "x", [True, False, np.bool_(True), 3.0, np.float64(3.0), 2.5, "3", None, [3], 3 + 0j, np.array(3.0)],
        ids=repr,
    )
    def test_refuses_what_is_not_an_integer(self, x):
        """A bool is refused by its type, not by numpy's version; an integral
        float is refused rather than truncated."""
        with pytest.raises(InvalidArgument, match=r"^n .* is not an integer$"):
            check_int(x, "n")
        with pytest.raises(UnsupportedDegree):
            check_int(x, "degree", error=UnsupportedDegree)

    def test_range_is_inclusive(self):
        assert check_int(1, "k", 1, 4) == 1 and check_int(4, "k", 1, 4) == 4
        with pytest.raises(InvalidArgument, match=r"^k = 5 outside 1\.\.4$"):
            check_int(5, "k", 1, 4)
        with pytest.raises(InvalidArgument, match=r"^k = 0 outside 1\.\.4$"):
            check_int(0, "k", 1, 4)
        with pytest.raises(InvalidArgument, match=r"^shots = -1 below 0$"):
            check_int(-1, "shots")
        with pytest.raises(DimensionMismatch, match="row = 0 outside 0..-1"):
            check_int(0, "row", 0, -1, DimensionMismatch)  # an empty range

    def test_invalid_argument_is_a_value_error(self):
        assert issubclass(InvalidArgument, GquditError) and issubclass(InvalidArgument, ValueError)

    def test_is_irreducible_takes_a_polynomial_of_degree_one_or_more(self):
        """A negative p used to be read by its bit length and answered."""
        for p in (0, 1, -11, 11.0, True):
            with pytest.raises(InvalidPolynomial):
                is_irreducible(p)


class TestIntegerDegrees:
    """make_field, GF and canonical_modulus take any integer s or modulus;
    a numpy integer gives the field of the Python int, anything else raises."""

    def test_numpy_integers(self):
        assert make_field(np.int64(3)) is make_field(3)
        assert make_field(modulus=np.int64(11)) is make_field(modulus=11)
        assert make_field(np.uint8(3), np.int32(11)) is make_field(3)
        assert GF(np.int64(11)) == make_field(3) and type(GF(np.int64(11)).modulus) is int
        assert canonical_modulus(np.int64(4)) == canonical_modulus(4) == 0b10011

    @pytest.mark.parametrize("s", [3.0, "3", None, [3], 3 + 0j])
    def test_non_integer_degrees(self, s):
        with pytest.raises(UnsupportedDegree):
            canonical_modulus(s)
        if s is not None:  # make_field(None) asks for s or a modulus
            with pytest.raises(UnsupportedDegree):
                make_field(s)
            with pytest.raises(UnsupportedDegree):
                make_field(s, modulus=11)

    @pytest.mark.parametrize("modulus", [11.0, "11", [11], np.float64(11)])
    def test_non_integer_moduli(self, modulus):
        with pytest.raises(InvalidPolynomial):
            make_field(modulus=modulus)
        with pytest.raises(InvalidPolynomial):
            GF(modulus)


class TestListBackedScalars:
    """mul, inv and trace read Python-list copies of the tables (s <= 16).
    A list wraps a negative index silently, so the code guard must come first."""

    @pytest.mark.parametrize("s", [1, 2, 8, 16, 17])  # table fields and a table-free one
    def test_no_silent_wrap(self, s):
        gf = make_field(s)
        for bad in (-1, -gf.q, gf.q, 1 << 40):
            calls = [
                lambda: gf.mul(bad, 1),
                lambda: gf.mul(1, bad),
                lambda: gf.div(bad, 1),
                lambda: gf.div(1, bad),
                lambda: gf.inv(bad),
                lambda: gf.trace(bad),
                lambda: gf.frobenius(bad),
            ]
            for call in calls:
                with pytest.raises(InvalidFieldCode):
                    call()
        with pytest.raises(DivisionByZero):
            gf.inv(0)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_match_the_kernel_on_every_pair(self, s):
        gf = make_field(s)
        codes = np.arange(gf.q, dtype=np.int64)
        products = gf._mul(codes[:, None], codes[None, :]).tolist()
        got = [[gf.mul(a, b) for b in range(gf.q)] for a in range(gf.q)]
        assert got == products
        assert all(type(x) is int for row in got for x in row)
        inverses = [gf.inv(a) for a in range(1, gf.q)]
        assert inverses == gf.pow(codes[1:], gf.q - 2).tolist()
        traces = [gf.trace(a) for a in range(gf.q)]
        assert traces == gf._trace(codes).tolist()
        assert all(type(x) is int for x in inverses + traces)

    def test_match_the_kernel_sampled_at_s16(self):
        gf = make_field(16)
        rng = np.random.default_rng(67)
        a, b = rng.integers(0, gf.q, size=(2, 10_000))
        got = [gf.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert got == gf._mul(a, b).tolist()
        nz = a[a != 0]
        inverses = [gf.inv(x) for x in nz.tolist()]
        assert inverses == gf.pow(nz, gf.q - 2).tolist()
        traces = [gf.trace(x) for x in a.tolist()]
        assert traces == gf._trace(a).tolist()
        assert all(type(x) is int for x in got + inverses + traces)


class TestVectorisedCodeValidation:
    @pytest.mark.parametrize("s", [2, 17])  # a table field and a table-free one
    def test_mul_arr_rejects_codes_at_or_above_q(self, s):
        gf = make_field(s)
        for a, b in [([1, gf.q], 1), (1, [3, gf.q + 5]), ([[0], [1 << 40]], [1, 2])]:
            with pytest.raises(InvalidFieldCode):
                gf.mul_arr(a, b)

    @pytest.mark.parametrize("s", [1, 2, 8, 16, 17])  # table fields and a table-free one
    def test_mul_arr_rejects_negative_codes(self, s):
        gf = make_field(s)
        for bad in (-1, -gf.q, -(1 << 40)):
            for a, b in [([1, bad], 1), (1, [0, bad]), ([[0], [bad]], [1, 0])]:
                with pytest.raises(InvalidFieldCode):
                    gf.mul_arr(a, b)
            for call in (
                lambda: gf.matmul([1, bad], [1, 1]),
                lambda: gf.matmul([[1, 0], [0, 1]], [bad, 1]),
                lambda: gf.matmul([[1, bad]], [[1], [0]]),
            ):
                with pytest.raises(InvalidFieldCode):
                    call()

    @pytest.mark.parametrize("s", [2, 17])
    @pytest.mark.parametrize("bad", [-1, -(1 << 40), 1 << 17])
    def test_inv_trace_and_pow_arr_reject(self, s, bad):
        gf = make_field(s)
        codes = np.array([1, bad])
        for call in (gf.inv_arr, gf.trace_arr, lambda a: gf.pow(a, 3)):
            with pytest.raises(InvalidFieldCode):
                call(codes)


class TestKernel:
    """GF._mul, the one carry-less multiply, and everything built on it."""

    @pytest.mark.parametrize("s", [1, 3, 16, 17])  # table fields and a table-free one
    def test_unchecked_inverse_refuses_zero(self, s):
        """_inv takes checked codes but keeps its zero test: the lookup of a
        0 would read the zero tail of exp, a silent wrong answer."""
        gf = make_field(s)
        for codes in ([0], [1, 0], [[gf.q - 1], [0]]):
            with pytest.raises(DivisionByZero):
                gf._inv(np.array(codes, dtype=np.int64))

    @pytest.mark.parametrize("s", list(range(1, 9)) + [12, 16, 17, 20, 31])
    def test_mul_matches_polynomial_product(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(50 + s)
        a = rng.integers(0, gf.q, size=200)
        b = rng.integers(0, gf.q, size=200)
        want = [poly_mod(poly_mul(int(x), int(y)), gf.modulus) for x, y in zip(a, b)]
        assert [gf._mul(int(x), int(y)) for x, y in zip(a, b)] == want
        got = gf._mul(a, b)
        assert got.dtype == np.int64 and got.tolist() == want
        assert gf.mul_arr(a, b).tolist() == want

    @pytest.mark.parametrize("s", list(range(1, 11)))
    def test_tables_are_a_cache_of_the_kernel(self, s):
        gf = make_field(s)
        order, codes = gf.q - 1, np.arange(gf.q)
        exp = gf._exp
        assert exp[0] == 1 and exp[2 * order] == 1
        assert np.array_equal(exp[1:order], gf._mul(exp[: order - 1], gf.primitive))
        assert np.array_equal(exp[order : 2 * order], exp[:order])
        assert np.array_equal(exp[gf._log[1:]], codes[1:])
        assert np.array_equal(gf._tr, gf._trace(codes))
        table = gf.mul_arr(codes[:, None], codes[None, :])
        assert np.array_equal(table, gf._mul(codes[:, None], codes[None, :]))
        assert np.array_equal(gf.inv_arr(codes[1:]), gf.pow(codes[1:], gf.q - 2))

    @pytest.mark.parametrize("s", [1, 2, 8, 16])
    def test_scalar_mul_by_zero_matches_kernel(self, s):
        gf = make_field(s)
        for x in (0, 1, gf.primitive, gf.q - 1):
            assert gf.mul(0, x) == gf.mul(x, 0) == gf._mul(0, x) == gf._mul(x, 0) == 0

    @pytest.mark.parametrize("s", [2, 17])
    def test_products_of_empty_inputs(self, s):
        gf = make_field(s)
        assert gf.matmul([], []) == 0
        assert np.array_equal(gf.matmul(np.zeros((3, 0), dtype=np.int64), []), np.zeros(3))
        assert gf.matmul(np.zeros((0, 4), dtype=np.int64), [1, 2, 3, 0]).shape == (0,)
        assert gf.matmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 5))).shape == (2, 5)

    @pytest.mark.parametrize("s", [2, 17])
    @pytest.mark.parametrize(
        "op, a, b",
        [
            ("matmul", (2, 2), (3, 2)),  # the broadcast alone raises a bare ValueError
            ("matvec", (2, 3), (1,)),  # the broadcast alone repeats the one entry
            ("matmul", (2, 3), (2, 2)),
            ("dot", (2,), (1,)),  # the broadcast alone repeats the one entry
            ("vecmat", (1,), (3, 2)),  # the broadcast alone repeats the one entry
            ("vecmat", (3,), (2, 4)),
            ("matmul", (2, 1), (3, 2)),  # the broadcast alone repeats the one column
            ("scalar", (), (2,)),
            ("scalar", (2,), ()),
            ("tensor", (2, 2, 2), (2, 2)),  # numpy's @ stacks these; F_q products stop at 2-D
            ("tensor", (2, 2), (2, 2, 2)),
        ],
    )
    def test_products_refuse_mismatched_shapes(self, s, op, a, b):
        """op names the shape pair as numpy's own products do (matvec is matrix
        @ vector, vecmat vector @ matrix, dot vector @ vector); every case runs
        gf.matmul, the one F_q contraction."""
        gf = make_field(s)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{a} and {b}")):
            gf.matmul(np.ones(a, dtype=np.int64), np.ones(b, dtype=np.int64))

    @pytest.mark.parametrize("s", [2, 17])
    @pytest.mark.parametrize("a, b", [((2, 3), (3, 2)), ((2, 3), (3,)), ((3,), (3, 2)), ((3,), (3,))])
    def test_products_refuse_bad_codes(self, s, a, b):
        """A code outside [0, q) in either operand raises, in every shape pair."""
        gf = make_field(s)
        for bad in (-1, gf.q, -(1 << 40)):
            for side in (0, 1):
                operands = [np.ones(a, dtype=np.int64), np.ones(b, dtype=np.int64)]
                operands[side].flat[-1] = bad
                with pytest.raises(InvalidFieldCode):
                    gf.matmul(*operands)

    def test_tables_sampled_at_s16(self):
        gf = make_field(16)
        rng = np.random.default_rng(66)
        a = rng.integers(0, gf.q, size=20_000)
        b = rng.integers(0, gf.q, size=20_000)
        assert np.array_equal(gf.mul_arr(a, b), gf._mul(a, b))
        assert np.array_equal(gf._exp[1 : gf.q - 1], gf._mul(gf._exp[: gf.q - 2], gf.primitive))
        assert np.array_equal(gf.trace_arr(a), gf._trace(a))
        nz = a[a != 0]
        assert np.array_equal(gf.inv_arr(nz), gf.pow(nz, gf.q - 2))

    @pytest.mark.parametrize("s", TABLE_FREE)
    def test_field_axioms_table_free(self, s):
        gf = make_field(s)
        assert gf._exp is None and gf._tr is None
        rng = np.random.default_rng(70 + s)
        a, b, c = rng.integers(0, gf.q, size=(3, 500))
        assert np.array_equal(gf.mul_arr(a, b), gf.mul_arr(b, a))
        assert np.array_equal(gf.mul_arr(gf.mul_arr(a, b), c), gf.mul_arr(a, gf.mul_arr(b, c)))
        assert np.array_equal(gf.mul_arr(a, b ^ c), gf.mul_arr(a, b) ^ gf.mul_arr(a, c))
        assert np.array_equal(gf.mul_arr(a, 1), a) and not gf.mul_arr(a, 0).any()
        nz = a[a != 0]
        assert (gf.mul_arr(nz, gf.inv_arr(nz)) == 1).all()
        tr = gf.trace_arr(a)
        assert set(tr.tolist()) == {0, 1}
        assert np.array_equal(gf.trace_arr(a ^ b), tr ^ gf.trace_arr(b))
        assert np.array_equal(gf.trace_arr(gf.mul_arr(a, a)), tr)

    @pytest.mark.parametrize("s", TABLE_FREE)
    def test_vectorised_matches_scalar_table_free(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(80 + s)
        a, b = rng.integers(1, gf.q, size=(2, 60))
        assert gf.mul_arr(a, b).tolist() == [gf.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert gf.inv_arr(a).tolist() == [gf.inv(int(x)) for x in a]
        assert gf.trace_arr(a).tolist() == [gf.trace(int(x)) for x in a]

    @pytest.mark.parametrize("s", [1, 3, 8, 17])
    def test_array_pow_matches_scalar(self, s):
        gf = make_field(s)
        rng = np.random.default_rng(90 + s)
        a = rng.integers(0, gf.q, size=40)
        nz = a[a != 0]
        for e in (0, 1, 2, 5, gf.q - 2, gf.q, gf.q + 3):
            got = gf.pow(a, e)
            assert got.shape == a.shape and got.tolist() == [gf.pow(int(x), e) for x in a]
        for e in (-1, -4):
            assert gf.pow(nz, e).tolist() == [gf.pow(int(x), e) for x in nz]
            assert np.array_equal(gf.pow(nz, e), gf.pow(gf.inv_arr(nz), -e))
        with pytest.raises(DivisionByZero):
            gf.pow(np.array([1, 0]), -1)


def loop_matmul(gf, A, B):
    """A @ B by the triple loop over the scalar gf.mul, a 1-D operand read as
    numpy's @ reads it: a row on the left, a column on the right."""
    rows = A if A.ndim == 2 else A[None, :]
    cols = B if B.ndim == 2 else B[:, None]
    out = np.zeros((rows.shape[0], cols.shape[1]), dtype=np.int64)
    for i in range(rows.shape[0]):
        for j in range(cols.shape[1]):
            for l in range(rows.shape[1]):
                out[i, j] ^= gf.mul(int(rows[i, l]), int(cols[l, j]))
    return out.reshape(A.shape[:-1] + B.shape[1:])


class TestMatmul:
    """GF.matmul, the one F_q contraction, against the scalar triple loop."""

    @pytest.mark.parametrize("s", [1, 3, 8, 17])  # table fields and a table-free one
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_matches_scalar_triple_loop(self, s, k):
        gf = make_field(s)
        rng = np.random.default_rng(100 * s + k)
        u, v = rng.integers(0, gf.q, size=(2, k))
        for m, n in ((4, 3), (1, 6), (0, 2), (3, 0)):
            A = rng.integers(0, gf.q, size=(m, k))
            B = rng.integers(0, gf.q, size=(k, n))
            for left, right in ((A, B), (A, v), (u, B), (u, v)):
                got = np.asarray(gf.matmul(left, right))
                want = loop_matmul(gf, left, right)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want)
