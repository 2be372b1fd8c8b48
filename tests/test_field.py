"""Field construction, arithmetic laws, trace, and linear maps."""

import re

import numpy as np
import pytest

from gqudits.errors import (
    DimensionMismatch,
    DivisionByZero,
    InvalidFieldCode,
    InvalidPolynomial,
    IrreducibleRequired,
    UnsupportedDegree,
)
from gqudits.field import (
    canonical_modulus,
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
                lambda: gf.dot([1, bad], [1, 1]),
                lambda: gf.matvec([[1, 0], [0, 1]], [bad, 1]),
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
        assert gf.dot([], []) == 0
        assert np.array_equal(gf.matvec(np.zeros((3, 0), dtype=np.int64), []), np.zeros(3))
        assert gf.matvec(np.zeros((0, 4), dtype=np.int64), [1, 2, 3, 0]).shape == (0,)
        assert gf.matmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 5))).shape == (2, 5)

    @pytest.mark.parametrize("s", [2, 17])
    @pytest.mark.parametrize(
        "op, a, b",
        [
            ("matmul", (2, 2), (3, 2)),  # numpy alone ignores B's third row
            ("matvec", (2, 3), (1,)),  # numpy alone broadcasts the one entry
            ("matmul", (2, 3), (2, 2)),  # numpy alone raises a bare ValueError
            ("dot", (2,), (1,)),
        ],
    )
    def test_products_refuse_mismatched_shapes(self, s, op, a, b):
        gf = make_field(s)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{a} and {b}")):
            getattr(gf, op)(np.ones(a, dtype=np.int64), np.ones(b, dtype=np.int64))

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
