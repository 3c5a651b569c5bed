"""The shifted-evaluation product identity and its exact solver."""

import random
from fractions import Fraction

import pytest

from bitnets.product_identity import (
    DegreeError,
    LambdaCoeffs,
    RationalPoly,
    monomial,
    product_identity_value,
    shift_expand,
    shifted_combination,
    solve_lambda,
    verify_product_identity,
)
from bitnets.rationals import bit_length
from cases import random_poly


class TestRationalPoly:
    def test_trailing_zeros_stripped(self):
        p = RationalPoly((1, 2, 0, 0))
        assert p.degree == 1

    def test_evaluate_horner(self):
        p = RationalPoly((1, -2, 3))  # 3T^2 - 2T + 1
        assert p.evaluate(Fraction(2)) == 9

    def test_derivative(self):
        p = RationalPoly((5, 1, 0, 2))  # 2T^3 + T + 5
        assert p.derivative() == RationalPoly((1, 0, 6))

    def test_text_round_trip(self):
        p = RationalPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7)))
        assert RationalPoly.from_text(p.to_text()) == p


class TestShiftExpand:
    def test_square_shift_one(self):
        assert shift_expand(monomial(2), 1) == RationalPoly((1, 2, 1))

    def test_cube_shift_two(self):
        assert shift_expand(monomial(3), 2) == RationalPoly((8, 12, 6, 1))

    def test_zero_shift_is_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_poly(rng, rng.randint(0, 6))
            assert shift_expand(f, 0) == f

    def test_agrees_with_pointwise_evaluation(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_poly(rng, rng.randint(0, 6))
            j = rng.randint(0, 8)
            shifted = shift_expand(f, j)
            for _ in range(5):
                u = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                assert shifted.evaluate(u) == f.evaluate(u + j)


def vandermonde_moment_oracle(mu: int) -> tuple[Fraction, ...]:
    """Independent oracle for sigma = T^mu: solve the moment system
    sum_j c_j j^l = delta conditions directly, then halve.

    For T^3 the conditions are sum c_j = 0, 3 sum j c_j = 1,
    3 sum j^2 c_j = 0, sum j^3 c_j = 0.
    """
    assert mu == 3
    size = mu + 1
    matrix = [[Fraction(j) ** row for j in range(size)] for row in range(size)]
    rhs = [Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0)]
    # plain fraction Gaussian elimination, deliberately separate from the solver
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(size):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col] / matrix[col][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    solution = [rhs[i] / matrix[i][i] for i in range(size)]
    return tuple(c / 2 for c in solution)


class TestSolveLambda:
    def test_square_paper_value(self):
        lam = solve_lambda(monomial(2))
        assert lam.lambdas == (Fraction(1, 2), Fraction(0), Fraction(0))
        assert lam.common_denominator == 2
        assert lam.integer_lambdas == (1, 0, 0)

    def test_cube_against_moment_oracle(self):
        expected = vandermonde_moment_oracle(3)
        assert expected == (
            Fraction(-11, 36),
            Fraction(1, 2),
            Fraction(-1, 4),
            Fraction(1, 18),
        )
        lam = solve_lambda(monomial(3))
        assert lam.lambdas == expected
        # cross-check the identity at (1, 1)
        assert product_identity_value(monomial(3), lam.lambdas, Fraction(1), Fraction(1)) == 1

    def test_degree_below_two_rejected(self):
        with pytest.raises(DegreeError):
            solve_lambda(RationalPoly((0, 1)))
        with pytest.raises(DegreeError):
            solve_lambda(RationalPoly((5,)))

    def test_integer_lambdas_clear_denominators(self):
        rng = random.Random(3)
        for _ in range(30):
            sigma = random_poly(rng, rng.randint(2, 6))
            lam = solve_lambda(sigma)
            d = lam.common_denominator
            for coeff in sigma.coefficients:
                assert d % coeff.denominator == 0
            for lj, lint in zip(lam.lambdas, lam.integer_lambdas):
                assert lj * d == lint

    def test_lambda_bitlength_envelope(self):
        # bit-length of each lambda_j stays within c*(mu*bits(sigma))^3
        rng = random.Random(4)
        for _ in range(30):
            sigma = random_poly(rng, rng.randint(2, 6))
            sigma_bits = sum(bit_length(c) for c in sigma.coefficients)
            lam = solve_lambda(sigma)
            cap = 2 * (sigma.degree * sigma_bits) ** 3
            assert all(bit_length(x) <= cap for x in lam.lambdas)


class TestIdentity:
    def test_square_by_hand(self):
        lam = solve_lambda(monomial(2))
        # half of ((x+y)^2 - x^2 - y^2) at (3, 5)
        assert product_identity_value(monomial(2), lam.lambdas, Fraction(3), Fraction(5)) == 15

    def test_wrong_scale_fails_with_counterexample(self):
        wrong = LambdaCoeffs((Fraction(1), Fraction(0), Fraction(0)), 1, (1, 0, 0))
        report = verify_product_identity(monomial(2), wrong, trials=20, seed=0)
        assert not report.passed
        x, y = report.counterexample
        assert product_identity_value(monomial(2), wrong.lambdas, x, y) != x * y

    def test_random_polys_pass_100_pairs(self):
        rng = random.Random(5)
        for _ in range(10):
            sigma = random_poly(rng, rng.randint(2, 6))
            lam = solve_lambda(sigma)
            report = verify_product_identity(sigma, lam, trials=100, seed=rng.randrange(2**30))
            assert report.passed, report.message

    def test_symbolic_zero_polynomial(self):
        # sum_j 2*lambda_j * sigma(U+j) must equal U^2 coefficientwise
        rng = random.Random(6)
        for _ in range(20):
            sigma = random_poly(rng, rng.randint(2, 6))
            lam = solve_lambda(sigma)
            doubled = tuple(2 * x for x in lam.lambdas)
            assert shifted_combination(sigma, doubled) == monomial(2)

    def test_verification_seed_deterministic(self):
        sigma = random_poly(random.Random(7), 4)
        lam = solve_lambda(sigma)
        a = verify_product_identity(sigma, lam, trials=50, seed=42)
        b = verify_product_identity(sigma, lam, trials=50, seed=42)
        assert (a.passed, a.trials) == (b.passed, b.trials)
