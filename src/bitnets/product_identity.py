"""Exact univariate polynomials and the shifted-evaluation product identity.

Any non-linear polynomial activation sigma of degree mu >= 2 with
rational coefficients admits rational lambda_0..lambda_mu with

    sum_j lambda_j * (sigma(x+y+j) - sigma(x+j) - sigma(y+j)) == x * y

for all x, y.  :func:`solve_lambda` computes those coefficients exactly:
the shifted copies sigma(U+j) for j = 0..mu form a basis of the
degree-<=mu polynomials, so expressing U**2 in that basis and halving
the coefficients yields the identity.  The linear system is solved by
fraction-free (Bareiss) elimination over the integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .rationals import format_rational, parse_rational


class DegreeError(ValueError):
    """The polynomial's degree is outside what the operation supports."""


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial; ``coefficients[k]`` multiplies ``T**k``.

    Trailing zero coefficients are stripped so the last stored
    coefficient is nonzero; the zero polynomial stores an empty tuple
    and reports degree -1.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_text(cls, text: str) -> "RationalPoly":
        """Parse a comma-separated coefficient list, constant term first."""
        return cls(tuple(parse_rational(tok) for tok in text.split(",")))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPoly":
        return RationalPoly(
            tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        )

    def scaled(self, factor: Fraction) -> "RationalPoly":
        return RationalPoly(tuple(factor * c for c in self.coefficients))

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for k, c in enumerate(b):
            merged[k] += c
        return RationalPoly(tuple(merged))

    def to_text(self) -> str:
        return ",".join(format_rational(c) for c in self.coefficients)


def monomial(power: int, coeff: Fraction = Fraction(1)) -> RationalPoly:
    return RationalPoly((Fraction(0),) * power + (Fraction(coeff),))


def shift_expand(f: RationalPoly, j: int) -> RationalPoly:
    """Coefficients of ``f(U + j)`` in the monomial basis, by binomial expansion."""
    if j < 0:
        raise ValueError("shift must be non-negative")
    n = len(f.coefficients)
    out = [Fraction(0)] * n
    for k, r_k in enumerate(f.coefficients):
        if r_k == 0:
            continue
        jpow = 1
        for q in range(k, -1, -1):
            out[q] += r_k * math.comb(k, q) * jpow
            jpow *= j
    return RationalPoly(tuple(out))


@dataclass(frozen=True)
class LambdaCoeffs:
    """Product-identity coefficients for a fixed activation.

    ``integer_lambdas[j] == common_denominator * lambdas[j]`` and is an
    integer; ``common_denominator`` also clears the activation's own
    coefficients.
    """

    lambdas: tuple[Fraction, ...]
    common_denominator: int
    integer_lambdas: tuple[int, ...]


def solve_lambda(sigma: RationalPoly) -> LambdaCoeffs:
    """Compute the coefficients realizing ``x*y`` from shifted evaluations.

    Builds the (mu+1) x (mu+1) matrix whose column j holds the monomial
    coefficients of ``sigma(U+j)``, solves against the coefficient
    vector of ``U**2`` exactly, and halves the solution.  Degree below 2
    is rejected; fractional exponents are unrepresentable here by
    construction.
    """
    mu = sigma.degree
    if mu < 2:
        raise DegreeError(f"activation degree must be >= 2, got {mu}")
    size = mu + 1
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        col = shift_expand(sigma, j).coefficients
        for q in range(size):
            matrix[q][j] = col[q] if q < len(col) else Fraction(0)
    rhs = [Fraction(0)] * size
    rhs[2] = Fraction(1)
    basis_coeffs = _solve_exact(matrix, rhs)
    lambdas = tuple(c / 2 for c in basis_coeffs)
    d = 1
    for c in list(sigma.coefficients) + list(lambdas):
        d = d * c.denominator // math.gcd(d, c.denominator)
    integer_lambdas = tuple(int(c * d) for c in lambdas)
    return LambdaCoeffs(lambdas, d, integer_lambdas)


def product_identity_value(
    sigma: RationalPoly, lambdas: Sequence[Fraction], x: Fraction, y: Fraction
) -> Fraction:
    """Evaluate ``sum_j lambda_j (sigma(x+y+j) - sigma(x+j) - sigma(y+j))``."""
    total = Fraction(0)
    for j, lam in enumerate(lambdas):
        if lam == 0:
            continue
        total += lam * (
            sigma.evaluate(x + y + j) - sigma.evaluate(x + j) - sigma.evaluate(y + j)
        )
    return total


def shifted_combination(
    sigma: RationalPoly, coeffs: Sequence[Fraction]
) -> RationalPoly:
    """The polynomial ``sum_j coeffs[j] * sigma(U + j)``."""
    acc = RationalPoly(())
    for j, c in enumerate(coeffs):
        if c != 0:
            acc = acc + shift_expand(sigma, j).scaled(Fraction(c))
    return acc


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    trials: int
    counterexample: tuple[Fraction, Fraction] | None = None

    @cached_property
    def message(self) -> str:
        if self.passed:
            return f"identity holds exactly on {self.trials} random pairs"
        x, y = self.counterexample
        return (
            "identity FAILED at "
            f"x={format_rational(x)}, y={format_rational(y)}"
        )


def verify_product_identity(
    sigma: RationalPoly,
    lam: LambdaCoeffs,
    trials: int = 100,
    seed: int = 0,
) -> IdentityReport:
    """Check the identity exactly on pseudo-random rational pairs.

    Numerators and denominators are drawn up to 2**16; the comparison is
    exact equality with zero tolerance.  Returns the first failing pair
    on mismatch.
    """
    rng = random.Random(seed)
    bound = 1 << 16
    for t in range(trials):
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        y = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if product_identity_value(sigma, lam.lambdas, x, y) != x * y:
            return IdentityReport(False, t + 1, (x, y))
    return IdentityReport(True, trials)


def _solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve a square rational system by fraction-free Bareiss elimination.

    Each row is scaled to integers first; the Bareiss pivot division is
    then exact over the integers, avoiding intermediate denominator
    blow-up.  Raises ``ZeroDivisionError`` on singular input.
    """
    n = len(matrix)
    aug: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        scale = 1
        for c in list(row) + [b]:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        aug.append([int(c * scale) for c in row] + [int(b * scale)])

    prev_pivot = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n + 1):
                aug[r][c] = (pivot * aug[r][c] - aug[r][k] * aug[k][c]) // prev_pivot
            aug[r][k] = 0
        prev_pivot = pivot

    solution = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = Fraction(aug[k][n])
        for c in range(k + 1, n):
            acc -= aug[k][c] * solution[c]
        solution[k] = acc / aug[k][k]
    return solution
