"""Exact scalar operations: encoding, bit extraction, dyadic rounding,
and the reduction of a (numerator, denominator) pair."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitnets.rationals import (
    BitBudgetError,
    _digit_count,
    _int_to_text,
    add_reduced,
    bit_extract,
    bit_length,
    check_bits,
    format_length,
    format_rational,
    mul_reduced,
    parse_rational,
    reduce_pair,
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

    @pytest.mark.parametrize("bad", ["2/4", "1/0", "3/-2", "1.5", "", "x", "1/2/3", "0/5"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_long_dyadic_literals_are_checked_reduced(self):
        den = 1 << 900
        assert parse_rational(f"-3/{den}") == Fraction(-3, den)
        assert parse_rational(f"{3 * 7 ** 40}/{7 ** 41 + 4}") == Fraction(3 * 7 ** 40, 7 ** 41 + 4)
        for bad in (f"{3 << 500}/{den}", f"{7 ** 40}/{7 ** 41 << 300}"):
            with pytest.raises(ValueError, match="not reduced"):
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


class TestDigitCount:
    """``_digit_count`` reads floor(log10 n) + 1 off ``math.log10`` and compares
    with a power of ten only inside the float's error bound: seeded integers
    against their rendered length, on both sides of every power of ten up to
    3000 digits, and past 2**22 bits next to one power of ten."""

    def test_random_integers_up_to_a_hundred_thousand_bits(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.getrandbits(rng.randint(1, 100_000)) * rng.choice((1, -1))
            text = _int_to_text(n)
            assert _digit_count(n) == len(text.lstrip("-"))
            q = Fraction(n, rng.randint(1, 1 << rng.randint(1, 3000)))
            assert format_length(q) == len(format_rational(q))

    def test_next_to_every_power_of_ten_up_to_3000_digits(self):
        for k in range(1, 3001):
            for n in (10**k - 1, 10**k, 10**k + 1):
                assert _digit_count(n) == _digit_count(-n) == len(str(n)), n
        for k in range(1, 3001, 7):
            q = Fraction(-(10**k - 1), 10**k + 1)
            assert format_length(q) == len(format_rational(q))

    def test_past_two_to_the_22_bits(self):
        k = 1_300_000  # 10**k has 4318507 bits
        power = 10**k
        assert (_digit_count(power - 1), _digit_count(power), _digit_count(power + 1)) == (
            k, k + 1, k + 1)
        # log10 of n rounds to k, so its count comes from the comparison
        n = power - random.Random(22).getrandbits(power.bit_length() // 2)
        assert _digit_count(n) == k


class TestReducedArithmetic:
    """``add_reduced`` (Henrici's rule) and ``mul_reduced`` (crosswise
    cancelling) against the stdlib on reduced pairs that share factors, are
    zero or negative, and sum to integers."""

    @staticmethod
    def reduced(rng):
        shared = rng.choice((1, 2, 3, 6, 1 << 20, 3 * 7 << 40, (1 << 61) - 1))
        num = rng.choice((0, rng.randint(-50, 50), rng.randint(-(1 << 200), 1 << 200)))
        den = shared * rng.choice((1, rng.randint(1, 60), rng.randint(1, 1 << 100)))
        return Fraction(num * rng.choice((1, shared)), den)

    def test_sums_equal_the_stdlib(self):
        rng = random.Random(1)
        integral = 0
        for _ in range(3000):
            a, b = self.reduced(rng), self.reduced(rng)
            if rng.random() < 0.2:  # the sum is an integer
                b = Fraction(rng.randint(-9, 9)) - a
            want = a + b
            got = add_reduced(a.numerator, a.denominator, b.numerator, b.denominator)
            if want.denominator == 1:
                integral += 1
                assert type(got) is int and got == want
            else:
                assert type(got) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert integral > 600

    @pytest.mark.parametrize("a, b, want", [
        (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)),  # the shared factor divides the sum
        (Fraction(1, 6), Fraction(-1, 6), 0),
        (Fraction(5, 12), Fraction(1, 12), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4), 1),
        (Fraction(-7, 3), Fraction(0), Fraction(-7, 3)),
        (Fraction(3, 1 << 80), Fraction(-1, 3 << 78), Fraction(5, 3 << 80)),
    ])
    def test_examples(self, a, b, want):
        got = add_reduced(a.numerator, a.denominator, b.numerator, b.denominator)
        assert got == want and type(got) is type(want)
        assert str(got) == str(want)

    @pytest.mark.parametrize("eta", [Fraction(1, 64), Fraction(3, 64), Fraction(-5, 12), 2])
    def test_steps_are_reduced_products(self, eta):
        rng = random.Random(str(eta))
        for _ in range(500):
            g = self.reduced(rng)
            want = -eta * g
            got = mul_reduced(-eta.numerator, eta.denominator, g.numerator, g.denominator)
            assert got == (want.numerator, want.denominator)


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

    @pytest.mark.parametrize("k", [3, 200, 4096, 400_000])
    def test_matches_the_plain_formula_up_to_large_precision(self, k):
        rng = random.Random(k)
        values = [Fraction(rng.getrandbits(300) - (1 << 299), rng.getrandbits(200) | 1),
                  Fraction(-1, 3), Fraction(5, 1 << (k // 2)), Fraction(-7, 1 << (2 * k)),
                  Fraction(rng.getrandbits(64), 3 << (k - 3)), Fraction(9), Fraction(0)]
        for q in values:
            got = round_to_dyadic(q, k)
            assert type(got) is Fraction
            assert got == Fraction(math.floor(q * 2**k), 2**k)


def odd_numbers(max_bits):
    """1 or an odd integer of up to ``max_bits`` bits."""
    return st.one_of(st.just(1), st.integers(0, (1 << (max_bits - 1)) - 1).map(lambda n: 2 * n + 1))


@st.composite
def pairs(draw):
    """(num, den) with den = 2**a * odd, a up to 4096, and num 0, negative or
    huge; num often shares powers of two and an odd factor with den."""
    shared = draw(odd_numbers(256))
    odd = shared * draw(odd_numbers(2048))
    den = odd << draw(st.integers(0, 4096))
    m = draw(st.one_of(st.just(0), st.integers(-(1 << 64), 1 << 64),
                       st.integers(-(1 << 8192), 1 << 8192)))
    if draw(st.booleans()):
        m *= shared
    return m << draw(st.integers(0, 4096)), den


class TestReducePair:
    @given(pairs())
    def test_equals_the_stdlib_reduction(self, pair):
        got, want = reduce_pair(*pair), Fraction(*pair)
        assert hash(got) == hash(want)
        if want.denominator == 1:
            assert type(got) is int and got == want.numerator
        else:
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert repr(got) == repr(want) and str(got) == str(want)

    @pytest.mark.parametrize("num, den, want", [
        (0, 1, 0), (0, 1 << 300, 0), (7, 1, 7), (-12, 4, -3), (6, 4, Fraction(3, 2)),
        (-3 << 400, 9 << 450, Fraction(-1, 3 << 50)), (5 << 500, 1 << 200, 5 << 300),
        (3 ** 200, 3 ** 199 << 200, Fraction(3, 1 << 200)),
    ])
    def test_examples(self, num, den, want):
        got = reduce_pair(num, den)
        assert got == want and type(got) is type(want)

    def test_the_interpreters_coprime_constructor(self):
        # the stdlib's constructor without a gcd is private and differs by
        # version: the classmethod from 3.12 on, the slots set directly before
        from bitnets import rationals

        if sys.version_info >= (3, 12):
            assert rationals._coprime == Fraction._from_coprime_ints
        else:
            assert not hasattr(Fraction, "_from_coprime_ints")
            assert Fraction(-3, 4, _normalize=False) == rationals._coprime(-3, 4)
        q = rationals._coprime(-3, 4)
        assert type(q) is Fraction
        assert (q.numerator, q.denominator, hash(q), repr(q)) == (
            -3, 4, hash(Fraction(-3, 4)), "Fraction(-3, 4)")
        assert q + Fraction(3, 4) == 0 and q * 4 == -3


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
