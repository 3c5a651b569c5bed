"""Exact scalar operations: encoding, bit extraction, dyadic rounding."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitnets.rationals import (
    BitBudgetError,
    bit_extract,
    bit_length,
    check_bits,
    format_length,
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


def near_powers_of_ten(max_k):
    """10**k - 1, 10**k and 10**k + 1, where the digit count changes."""
    return st.integers(1, max_k).flatmap(
        lambda k: st.sampled_from((10**k - 1, 10**k, 10**k + 1))
    )


rationals = st.one_of(
    st.fractions(),
    st.builds(Fraction, near_powers_of_ten(700), st.integers(1, 1 << 64)),
    st.builds(Fraction, st.integers(-(1 << 3000), 1 << 3000), near_powers_of_ten(700)),
).map(lambda q: q * (-1) ** int(q.numerator % 3 == 0))


class TestTextLength:
    """``format_length`` counts digits from bit lengths instead of printing."""

    @given(rationals)
    def test_equals_rendered_length(self, q):
        assert format_length(q) == len(format_rational(q))

    def test_every_digit_boundary(self):
        for k in range(1, 1300):
            for n in (10**k - 1, 10**k, 10**k + 1, (1 << k) - 1, 1 << k, (1 << k) + 1):
                assert format_length(Fraction(n)) == len(format_rational(Fraction(n)))
                assert format_length(Fraction(-n, 7)) == len(format_rational(Fraction(-n, 7)))


@pytest.fixture
def digit_limit_640():
    """CPython's smallest int<->str limit, restored after the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestLongText:
    """Values beyond the interpreter's int<->str limit convert in pieces."""

    def test_round_trip_under_smallest_limit(self, digit_limit_640):
        rng = random.Random(5)
        num = -rng.randrange(10**19_999, 10**20_000)
        den = rng.randrange(10**19_999, 10**20_000) | 1
        while Fraction(num, den).denominator != den:
            den += 2
        q = Fraction(num, den)
        with pytest.raises(ValueError):
            str(num)  # the limit is in force
        text = format_rational(q)
        assert len(text) == format_length(q) == 20_000 + 1 + 20_000 + 1
        assert parse_rational(text) == q
        assert format_rational(parse_rational(text)) == text

    def test_pieces_keep_inner_zeros(self, digit_limit_640):
        values = (10**640, 10**641 - 1, 7 * 10**1280 + 3, 10**5000, 10**5000 + 1)
        texts = [format_rational(Fraction(n)) for n in values]
        for n, text in zip(values, texts):
            assert parse_rational(text) == n
            assert parse_rational("-000" + text) == -n
        sys.set_int_max_str_digits(0)
        assert texts == [str(n) for n in values]

    @given(st.integers(1, 30_000).map(lambda k: 10**k + 7 * k))
    def test_round_trip_at_default_limit(self, n):
        text = format_rational(Fraction(-n, 3))
        assert parse_rational(text) == Fraction(-n, 3)
        assert len(text) == format_length(Fraction(-n, 3))


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

    @given(st.fractions(), st.integers(-100, 100))
    def test_matches_binary_digits(self, q, j):
        whole, rest = divmod(abs(q.numerator), q.denominator)
        if j >= 0:
            digits = format(whole, "b")[::-1]
            expected = int(digits[j]) if j < len(digits) else 0
        else:
            for _ in range(-j):  # long division: next fractional digit
                expected, rest = divmod(2 * rest, q.denominator)
        assert bit_extract(q, j) == expected


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
