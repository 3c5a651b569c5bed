"""Exact scalar operations: encoding, bit extraction, dyadic rounding."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitnets.rationals import (
    BitBudgetError,
    bit_extract,
    bit_length,
    check_bits,
    format_rational,
    parse_rational,
    round_to_dyadic,
)


class TestTextEncoding:
    def test_integer_and_fraction_forms(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert format_rational(Fraction(7)) == "7"
        assert format_rational(Fraction(-3, 4)) == "-3/4"

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("bad", ["2/4", "1/0", "3/-2", "1.5", "", "x", "1/2/3"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_unicode_minus_accepted(self):
        assert parse_rational("−1/3") == Fraction(-1, 3)


class TestBitExtract:
    def test_eleven(self):
        # floor(11/2) = 5 is odd; floor(11/4) = 2 is even
        assert bit_extract(Fraction(11), 1) == 1
        assert bit_extract(Fraction(11), 2) == 0

    def test_seven_halves(self):
        assert bit_extract(Fraction(7, 2), 0) == 1  # floor(7/2) = 3

    def test_matches_binary_expansion_of_integers(self):
        rng = random.Random(1)
        for _ in range(200):
            u = rng.randint(0, 1 << 64)
            j = rng.randint(0, 70)
            assert bit_extract(Fraction(u), j) == (u >> j) & 1

    def test_matches_floor_quotient_expansion(self):
        # nested-floor identity: bit j of u/v is bit j of floor(u/v)
        rng = random.Random(2)
        for _ in range(200):
            u = rng.randint(0, 1 << 40)
            v = rng.randint(1, 1 << 20)
            j = rng.randint(0, 45)
            assert bit_extract(Fraction(u, v), j) == ((u // v) >> j) & 1

    def test_uses_absolute_numerator(self):
        assert bit_extract(Fraction(-11), 1) == bit_extract(Fraction(11), 1)

    def test_negative_index_reads_fraction_bits(self):
        # 5/2 = 10.1 in binary
        assert bit_extract(Fraction(5, 2), -1) == 1
        assert bit_extract(Fraction(5, 2), -2) == 0
        assert bit_extract(Fraction(5, 2), 0) == 0
        assert bit_extract(Fraction(5, 2), 1) == 1


class TestDyadicRounding:
    def test_examples(self):
        assert round_to_dyadic(Fraction(13, 10), 2) == Fraction(5, 4)
        assert round_to_dyadic(Fraction(3, 4), 2) == Fraction(3, 4)
        assert round_to_dyadic(Fraction(-1, 3), 1) == Fraction(-1, 2)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(300):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            k = rng.randint(1, 40)
            once = round_to_dyadic(q, k)
            assert round_to_dyadic(once, k) == once
            assert (1 << k) % once.denominator == 0

    def test_floor_toward_minus_infinity(self):
        assert round_to_dyadic(Fraction(-13, 10), 2) == Fraction(-3, 2)
        assert round_to_dyadic(Fraction(-1, 1000), 4) == Fraction(-1, 16)

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            round_to_dyadic(Fraction(1), 0)


class TestBitLength:
    def test_examples(self):
        assert bit_length(Fraction(12, 5)) == 7
        assert bit_length(Fraction(1)) == 2
        assert bit_length(Fraction(0)) == 1

    def test_sign_excluded(self):
        assert bit_length(Fraction(-12, 5)) == bit_length(Fraction(12, 5))

    def test_reduction_idempotence(self):
        # constructing from (2a, 2b) equals constructing from (a, b)
        rng = random.Random(4)
        for _ in range(100):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(1, 10**6)
            assert Fraction(2 * a, 2 * b) == Fraction(a, b)

    @given(st.integers(-(1 << 200), 1 << 200))
    def test_int_measures_like_its_fraction(self, n):
        assert bit_length(n) == bit_length(Fraction(n)) == abs(n).bit_length() + 1
        assert check_bits(n, 1 << 20) == bit_length(n)

    @given(st.fractions())
    def test_fraction_measures_like_its_copy(self, q):
        assert bit_length(q) == bit_length(Fraction(q))

    def test_budget_enforcement(self):
        check_bits(Fraction(1000), 20)
        with pytest.raises(BitBudgetError):
            check_bits(Fraction(1 << 30), 20)
