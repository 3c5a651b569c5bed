"""Exact rational scalars: text encoding, bit-length accounting, bit
extraction, and dyadic rounding.

Every quantity in this package is a ``fractions.Fraction``: a reduced
arbitrary-precision pair (numerator, denominator) with positive
denominator.  This module adds the handful of operations on top of that
representation that the rest of the package needs and that must agree
bit-for-bit everywhere: the ``p`` / ``p/q`` text encoding, the size
measure ``bit_length``, integer-exact bit extraction, and floor-style
dyadic rounding.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

Rational = Fraction

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


def _ensure_str_digits(n_digits: int) -> None:
    """Lift CPython's int<->str conversion guard when a value needs it.

    The guard exists to protect servers parsing untrusted input; here
    the whole point is exact arithmetic on numbers with exponentially
    many digits, so the limit is raised just far enough on demand.
    """
    if hasattr(sys, "get_int_max_str_digits"):
        if sys.get_int_max_str_digits() < n_digits + 16:
            sys.set_int_max_str_digits(n_digits + 16)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text encoding ``p`` or ``p/q``.

    Digits are decimal, the optional sign lives on the numerator, and
    ``q`` must be positive.  Inputs that are not in lowest terms (such
    as ``2/4``) are rejected: every serialized rational in this package
    is required to be reduced.
    """
    s = text.strip().replace("−", "-")
    _ensure_str_digits(len(s))
    m = _RATIONAL_RE.match(s)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den != 1 and math.gcd(abs(num), den) != 1:
        raise ValueError(f"rational literal not reduced: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Render ``q`` canonically: ``p`` when the denominator is 1, else ``p/q``."""
    q = Fraction(q)
    # bits/3 over-estimates the decimal digit count (log10(2) < 1/3)
    _ensure_str_digits(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) // 3)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
    """
    q = Fraction(q)
    u = abs(q.numerator)
    v = q.denominator
    if j >= 0:
        return (u // (v << j)) & 1
    return ((u << -j) // v) & 1


def round_to_dyadic(q: Fraction, k: int) -> Fraction:
    """Round down to the nearest multiple of ``2**-k``: ``2**-k * floor(q * 2**k)``.

    Floor is toward minus infinity, so negative values round away from
    zero.  The result's denominator divides ``2**k``.
    """
    if k < 1:
        raise ValueError(f"precision k must be >= 1, got {k}")
    scale = 1 << k
    return Fraction(math.floor(Fraction(q) * scale), scale)


def check_bits(q: int | Fraction, cap: int, where: str = "") -> int:
    """Return ``bit_length(q)``, raising :class:`BitBudgetError` above ``cap``."""
    bits = bit_length(q)
    if bits > cap:
        raise BitBudgetError(bits, cap, where)
    return bits
