"""Exact rational scalars: text encoding, bit-length accounting, bit
extraction, and dyadic rounding.

Every quantity in this package is a ``fractions.Fraction``: a reduced
arbitrary-precision pair (numerator, denominator) with positive
denominator.  This module adds the handful of operations on top of that
representation that the rest of the package needs and that must agree
bit-for-bit everywhere: the ``p`` / ``p/q`` text encoding and its exact
length, the size measure ``bit_length``, integer-exact bit extraction,
floor-style dyadic rounding, and the arithmetic of exact (numerator,
denominator) pairs: ``add_pair`` and ``reduce_pair``, the one reduction of an
unreduced pair, and ``mul_reduced`` and ``add_reduced`` for two reduced ones.

The values this package computes are mostly dyadic: most of the bits of
a denominator are often its power of two.  ``reduce_pair`` takes the
power of two out of the gcd with bit operations (the 2-adic step of
Stein's binary gcd) and runs ``math.gcd``, which is quadratic in the
operands' length, only against the odd part of the denominator.  The
reduced pair is unique, so the result is the one ``Fraction(num, den)``
builds.  Two pairs that are already reduced need less: ``mul_reduced``
cancels each numerator against the other's denominator, and ``add_reduced``
adds by Henrici's rule, one gcd of the two denominators and then a gcd of
the new numerator with that shared factor only.

The exact text length of a rational is counted, not rendered: the decimal
digits of an integer n are floor(log10 n) + 1, read off ``math.log10``,
whose float error is bounded by the bit length of n.  A power of ten is
built and compared with n only when that bound leaves log10 n too close to
an integer to decide.

Text conversion never touches interpreter state.  CPython refuses to
convert integers of more than ``sys.get_int_max_str_digits()`` decimal
digits to or from text; values beyond the limit in force are converted
in pieces below it (recursive ``divmod`` by powers of ten to print,
split-and-combine to read), down to the limit's 640-digit minimum.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

#: Default cap on the bit-length of any intermediate value in the exact
#: engines.  Keeps brute-force evaluation usable for squaring chains of
#: length ~20 while refusing clearly out-of-scale instances.
DEFAULT_MAX_BITS = 1 << 20

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


class BitBudgetError(ArithmeticError):
    """An intermediate value exceeded the configured bit-length cap."""

    def __init__(self, bits: int, cap: int, where: str = "") -> None:
        self.bits = bits
        self.cap = cap
        self.where = where
        at = f" at {where}" if where else ""
        super().__init__(f"bit budget exceeded{at}: {bits} bits > cap {cap}")


#: Integers of at most this many bits have at most 603 decimal digits,
#: fewer than any int<->str limit CPython accepts (640 and up).
_SHORT_BITS = 2000

#: For n of b bits, ``math.log10(n)`` is within (b + 1) * 2**-52 of log10 n:
#: it is log10(float(n)), or log10(x) + log10(2) * e for n = x * 2**e beyond
#: the float range, each part within 2 ulp.  ``_digit_count`` allows 16 times
#: that, (b + 1) * 2**-48, which stays below 1/2 for b < 2**46.
_LOG10_SLACK = 2.0**-48

#: CPython's int<->str digit limit in force; 0 means none, as before 3.10.7.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _int_to_text(n: int) -> str:
    """``str(n)``, printed in pieces below the digit limit when it exceeds it."""
    limit = _digit_limit()
    # bits <= 3 * limit means at most 0.91 * limit + 1 digits
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _int_to_text(-n)
    powers = [10**limit]  # powers[i] = 10 ** (limit * 2**i), for this call only
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def digits(m: int, i: int) -> str:
        # 0 <= m < powers[i + 1]; the low half is padded to its full width
        if i < 0:
            return str(m)
        if m < powers[i]:
            return digits(m, i - 1)
        hi, lo = divmod(m, powers[i])
        return digits(hi, i - 1) + digits(lo, i - 1).zfill(limit << i)

    return digits(n, len(powers) - 2)


def _text_to_int(text: str) -> int:
    """``int(text)`` for ``-?digits``, read in pieces below the digit limit."""
    limit = _digit_limit()
    if not limit or len(text) <= limit:
        return int(text)
    if text[0] == "-":
        return -_text_to_int(text[1:])
    powers: dict[int, int] = {}  # 10 ** k by k, for this call only

    def join(s: str) -> int:
        if len(s) <= limit:
            return int(s)
        k = limit  # the low part is limit * 2**j digits, at least half of s
        while 2 * k < len(s):
            k *= 2
        if k not in powers:
            powers[k] = 10**k
        return join(s[:-k]) * powers[k] + join(s[-k:])

    return join(text)


def _digit_count(n: int) -> int:
    """Decimal digits of ``|n|`` (1 for 0): floor(log10 |n|) + 1, read off
    ``math.log10``, and compared with the power of ten 10**m only when the
    float lies within its error bound of the integer m."""
    n = abs(n)
    if n < 10:
        return 1
    t = math.log10(n)
    m = round(t)
    if abs(t - m) > (n.bit_length() + 1) * _LOG10_SLACK:
        return int(t) + 1
    return m + 1 if n >= 10**m else m


# A Fraction from a coprime pair with a positive denominator, without the
# checks and the gcd that ``Fraction(num, den)`` runs.  This is private
# stdlib API and it differs by version: 3.12 added the classmethod
# ``_from_coprime_ints``.  On 3.10 and 3.11 the function below does what that
# classmethod does, setting the two slots that every Fraction has.  There,
# ``Fraction(num, den, _normalize=False)`` skips only the gcd, and on a pair
# of a few bits it is no faster than ``Fraction(num, den)``.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime = Fraction._from_coprime_ints
else:

    def _coprime(num: int, den: int) -> Fraction:
        q = object.__new__(Fraction)
        q._numerator = num
        q._denominator = den
        return q


def add_pair(num: int, den: int, tn: int, td: int) -> tuple[int, int]:
    """``num/den + tn/td`` over the lcm of the (positive) denominators, unreduced."""
    if td == den:
        return num + tn, den
    if td == 1:
        return num + tn * den, den
    if den == 1:
        return num * td + tn, td
    g = math.gcd(den, td)
    return num * (td // g) + tn * (den // g), den // g * td


def mul_reduced(num: int, den: int, tn: int, td: int) -> tuple[int, int]:
    """``num/den * tn/td`` for two reduced pairs, as a reduced pair: each
    numerator is cancelled against the other's denominator, the crosswise
    gcds of ``Fraction`` multiplication, which are cheap when one pair is small."""
    g, h = math.gcd(num, td), math.gcd(tn, den)
    return (num // g) * (tn // h), (den // h) * (td // g)


def add_reduced(num: int, den: int, tn: int, td: int) -> int | Fraction:
    """``num/den + tn/td`` for two reduced pairs, in the form ``reduce_pair``
    returns, by Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1).  With ``g =
    gcd(den, td)`` the sum is ``t / (den/g * td)`` for ``t = num * td/g + tn *
    den/g``, and a prime of ``den/g * td`` that divides ``t`` divides ``g``, so
    the one gcd of ``t`` is with ``g``, not with the whole denominator."""
    g = math.gcd(den, td)
    den //= g
    num = num * (td // g) + tn * den
    h = math.gcd(num, g)
    num, den = num // h, den * (td // h)
    return num if den == 1 else _coprime(num, den)


def reduce_pair(num: int, den: int) -> int | Fraction:
    """``num/den`` in lowest terms, for ``den > 0``: an ``int`` when it is
    integral, else the ``Fraction`` that ``Fraction(num, den)`` gives.

    With ``den = 2**a * odd`` the gcd is ``2**min(a, v2(num)) *
    gcd(num, odd)``.  The powers of two are read off the lowest set bits
    and shifted out, and ``math.gcd`` runs only when ``odd > 1``; the
    Fraction is built from the coprime pair without a second gcd.
    """
    if den == 1:
        return num
    if not num:
        return 0
    a = (den & -den).bit_length() - 1  # v2(den): den & -den is its lowest set bit
    twos = (num & -num).bit_length() - 1
    if a < twos:  # not min(): on a pair of a few bits the call costs what the rest does
        twos = a
    odd = den >> a
    if twos:
        num >>= twos
        den >>= twos
    if odd != 1:
        g = math.gcd(num, odd)
        if g != 1:
            num //= g
            den //= g
    if den == 1:
        return num
    return _coprime(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text encoding ``p`` or ``p/q``.

    Digits are decimal, the optional sign lives on the numerator, and
    ``q`` must be positive.  Inputs that are not in lowest terms (such
    as ``2/4``) are rejected: every serialized rational in this package
    is required to be reduced.
    """
    s = text.strip().replace("−", "-")
    m = _RATIONAL_RE.match(s)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = _text_to_int(m.group(1))
    den = _text_to_int(m.group(2)) if m.group(2) else 1
    q = reduce_pair(num, den)
    if q.denominator != den:
        raise ValueError(f"rational literal not reduced: {text!r}")
    return q if type(q) is Fraction else Fraction(q)


def format_rational(q: Fraction) -> str:
    """Render ``q`` canonically: ``p`` when the denominator is 1, else ``p/q``."""
    n, d = q.numerator, q.denominator
    if n.bit_length() > _SHORT_BITS or d.bit_length() > _SHORT_BITS:
        text = _int_to_text(n)
        return text if d == 1 else f"{text}/{_int_to_text(d)}"
    return str(n) if d == 1 else f"{n}/{d}"


def format_length(q: Fraction) -> int:
    """``len(format_rational(q))``, counted without rendering a digit: the
    numerator's and denominator's digit counts come from ``math.log10`` and,
    near a power of ten, one comparison with it."""
    n, d = q.numerator, q.denominator
    size = (n < 0) + _digit_count(n)
    return size if d == 1 else size + 1 + _digit_count(d)


def bit_length(q: int | Fraction) -> int:
    """Size of a reduced rational: numerator plus denominator bit-length.

    The sign is excluded.  ``bit_length(Fraction(0)) == 1`` by
    convention, so products of bit-lengths never collapse to zero.  An
    ``int`` or a ``Fraction`` is measured as it is, without a copy; an
    ``int`` n measures ``|n|.bit_length() + 1``, exactly like ``Fraction(n)``.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


def bit_extract(q: Fraction, j: int) -> int:
    """The j-th least-significant binary digit of ``floor(|q|)`` shifted by j.

    For ``q = u/v`` in lowest terms this is ``floor(2**-j * |u| / v) mod 2``,
    computed exactly with integer division.  Non-negative ``j`` reads the
    bits of the integer part; negative ``j`` reads bits to the right of
    the binary point (position ``-1`` is the first fractional bit).
    Neither side builds ``2**|j|``: the digit is ``floor(|u| / v) >> j``
    for ``j >= 0`` and ``(|u| * 2**-j mod 2v) // v`` otherwise, so no
    intermediate is much larger than ``|u| * v`` whatever ``j`` is.
    """
    q = Fraction(q)
    u = abs(q.numerator)
    v = q.denominator
    if j >= 0:
        return ((u // v) >> j) & 1
    return (u * pow(2, -j, 2 * v) % (2 * v)) // v


def round_to_dyadic(q: Fraction, k: int) -> Fraction:
    """Round down to the nearest multiple of ``2**-k``: ``2**-k * floor(q * 2**k)``.

    Floor is toward minus infinity, so negative values round away from
    zero.  The result's denominator divides ``2**k``.  With ``q = n / (2**b
    * odd)`` the floor is ``n * 2**(k - b)``, floored by a shift when
    ``k < b``, then floor-divided by ``odd``; ``reduce_pair`` then shifts out
    the common powers of two.
    """
    if k < 1:
        raise ValueError(f"precision k must be >= 1, got {k}")
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    b = (d & -d).bit_length() - 1  # v2(d)
    n = n << (k - b) if k >= b else n >> (b - k)
    r = reduce_pair(n // (d >> b), 1 << k)
    return r if type(r) is Fraction else Fraction(r)


def check_bits(q: int | Fraction, cap: int, where: str = "") -> int:
    """Return ``bit_length(q)``, raising :class:`BitBudgetError` above ``cap``."""
    bits = bit_length(q)
    if bits > cap:
        raise BitBudgetError(bits, cap, where)
    return bits
