"""Rounded multipliers, adversarial pairs, and the lower-bound simulation."""

import math
import random
from fractions import Fraction

import pytest

from bitnets.pac import (
    RoundedMultiplierClass,
    exact_fit,
    make_pair,
    round_q,
    simulate_lower_bound,
)


class TestRoundQ:
    def test_examples(self):
        assert round_q(Fraction(13, 10), 2) == Fraction(5, 4)
        assert round_q(Fraction(5, 2), 2) == Fraction(5, 2)
        assert round_q(Fraction(1, 3), 1) == 0

    def test_denominator_divides_2q(self):
        rng = random.Random(0)
        for _ in range(200):
            z = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
            q = rng.randint(1, 20)
            assert (1 << q) % round_q(z, q).denominator == 0


class TestMakePair:
    def test_q1_bit1(self):
        pair = make_pair(1, [1])
        assert (pair.c1, pair.c2) == (Fraction(1, 2), Fraction(3, 4))
        cls = RoundedMultiplierClass(1)
        assert cls.predict(pair.c1, 1) == cls.predict(pair.c2, 1) == Fraction(1, 2)
        assert cls.predict(pair.c1, 2) == 1
        assert cls.predict(pair.c2, 2) == Fraction(3, 2)

    def test_q1_bit0(self):
        pair = make_pair(1, [0])
        cls = RoundedMultiplierClass(1)
        assert (pair.c1, pair.c2) == (Fraction(0), Fraction(1, 4))
        assert cls.predict(pair.c1, 1) == cls.predict(pair.c2, 1) == 0
        assert cls.predict(pair.c1, 2) == 0
        assert cls.predict(pair.c2, 2) == Fraction(1, 2)

    def test_all_zero_bits_gives_zero_hypothesis(self):
        q = 4
        pair = make_pair(q, [0] * (2 * q - 1))
        cls = RoundedMultiplierClass(q)
        assert pair.c1 == 0
        assert all(cls.predict(pair.c1, x) == 0 for x in cls.domain)

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError):
            make_pair(3, [1, 0])

    def test_indistinguishability_sweep(self):
        # agreement below 2^q, difference exactly 2^-q at 2^q
        rng = random.Random(1)
        for q in range(1, 13):
            cls = RoundedMultiplierClass(q)
            for _ in range(20):
                bits = [rng.randrange(2) for _ in range(2 * q - 1)]
                pair = make_pair(q, bits)
                l1, l2 = cls.labels(pair.c1), cls.labels(pair.c2)
                assert l1[:-1] == l2[:-1]
                assert l2[-1] - l1[-1] == Fraction(1, 1 << q)


class TestExactModelContrast:
    def test_single_sample_determines_c(self):
        rng = random.Random(2)
        for _ in range(100):
            c = Fraction(rng.randint(0, 2**20), 2**20)
            x = Fraction(1 << rng.randint(0, 10))
            assert exact_fit(x, c * x) == c

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            exact_fit(Fraction(0), Fraction(1))


def assert_within_3_sigma_of_floor(report):
    """Both learners fail with probability exactly ``floor``; check the
    Monte-Carlo rate on both sides, with sigma from that exact p."""
    p = float(report.floor)
    sigma = math.sqrt(p * (1 - p) / report.trials)
    assert abs(report.failure_rate - p) <= 3 * sigma, (report.failure_rate, p, sigma)


class TestSimulation:
    def test_m_zero_failure_rate_near_half(self):
        report = simulate_lower_bound(q=2, m=0, trials=4000, learner="min", seed=3)
        assert report.floor == Fraction(1, 2)
        assert report.failure_rate >= 0.5 - 3 * report.stderr
        assert_within_3_sigma_of_floor(report)

    def test_q1_m1_floor_quarter(self):
        report = simulate_lower_bound(q=1, m=1, trials=8000, learner="min", seed=4)
        assert report.floor == Fraction(1, 4)
        assert report.failure_rate >= 0.25 - 3 * report.stderr
        assert_within_3_sigma_of_floor(report)

    def test_sampling_the_top_point_identifies_target(self):
        # with m large, 2^q is almost surely sampled: failure rate collapses
        report = simulate_lower_bound(q=1, m=64, trials=2000, learner="min", seed=5)
        assert report.failures == 0

    def test_both_learners_beat_floor(self):
        for learner in ("min", "random"):
            report = simulate_lower_bound(q=4, m=4, trials=6000, learner=learner, seed=6)
            floor = float(report.floor)
            assert report.failure_rate >= floor - 3 * report.stderr
            assert_within_3_sigma_of_floor(report)

    def test_seed_reproducibility(self):
        a = simulate_lower_bound(q=3, m=2, trials=500, learner="random", seed=7)
        b = simulate_lower_bound(q=3, m=2, trials=500, learner="random", seed=7)
        assert a.failures == b.failures

    def test_sample_bound_value(self):
        report = simulate_lower_bound(q=8, m=1, trials=10, seed=8, delta=Fraction(1, 20))
        assert math.isclose(report.sample_bound, 8 * math.log(10))


class TestValidation:
    def test_simulation_argument_checks(self):
        with pytest.raises(ValueError):
            simulate_lower_bound(q=1, m=1, trials=0)
        with pytest.raises(ValueError):
            simulate_lower_bound(q=1, m=-1, trials=10)
        with pytest.raises(ValueError):
            simulate_lower_bound(q=1, m=1, trials=10, learner="oracle")

    def test_class_needs_positive_precision(self):
        with pytest.raises(ValueError):
            RoundedMultiplierClass(0)

    def test_pair_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            make_pair(1, [2])
