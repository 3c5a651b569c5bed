"""Rounded-multiplier hypotheses and the real-vs-bit sample-complexity gap.

The class at precision q maps x in {2^0, ..., 2^q} to round_q(c*x),
where round_q floors to a multiple of 2^-q.  Without rounding a single
labeled example pins c exactly; with rounding there are adversarial
parameter pairs that agree everywhere except at 2^q, so any learner
that never sees 2^q is blind between them.  The Monte-Carlo simulation
measures that failure probability against its analytic floor
(1/2) * (q/(q+1))^m and reports the implied sample-size bound
m >= q * ln(1/(2*delta)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rationals import round_to_dyadic

LEARNERS = ("min", "random")


def round_q(z: Fraction, q: int) -> Fraction:
    """Round down to the nearest multiple of 2**-q."""
    return round_to_dyadic(z, q)


@dataclass(frozen=True)
class RoundedMultiplierClass:
    """Hypotheses h_c(x) = round_q(c*x) on the domain {2^0, ..., 2^q}."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("precision q must be >= 1")

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(1 << k for k in range(self.q + 1))

    def predict(self, c: Fraction, x: int) -> Fraction:
        return round_q(Fraction(c) * x, self.q)

    def labels(self, c: Fraction) -> tuple[Fraction, ...]:
        return tuple(self.predict(c, x) for x in self.domain)


def exact_fit(x: Fraction, y: Fraction) -> Fraction:
    """Real-model contrast: one unrounded example (x, c*x) determines c."""
    if x == 0:
        raise ValueError("x must be nonzero")
    return Fraction(y) / Fraction(x)


@dataclass(frozen=True)
class AdversarialPair:
    """Two parameters whose hypotheses differ only at x = 2^q.

    c1 carries the shared 2q-1 leading fraction bits followed by zeros;
    c2 additionally sets bit 2q.  The constructor re-derives both
    defining properties by direct evaluation over the domain.
    """

    q: int
    bits: tuple[int, ...]
    c1: Fraction
    c2: Fraction


def make_pair(q: int, bits: Sequence[int]) -> AdversarialPair:
    bits = tuple(int(b) for b in bits)
    if len(bits) != 2 * q - 1:
        raise ValueError(f"need exactly {2 * q - 1} bits for q={q}, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    c1 = Fraction(
        sum(b << (2 * q - i) for i, b in enumerate(bits, start=1)), 1 << (2 * q)
    )
    c2 = c1 + Fraction(1, 1 << (2 * q))
    pair = AdversarialPair(q, bits, c1, c2)

    cls = RoundedMultiplierClass(q)
    l1, l2 = cls.labels(c1), cls.labels(c2)
    assert l1[:-1] == l2[:-1], "pair must agree below 2^q"
    assert l1[-1] != l2[-1], "pair must differ at 2^q"
    assert math.floor(c2 * (1 << (2 * q))) - math.floor(c1 * (1 << (2 * q))) == 1
    return pair


@dataclass(frozen=True)
class SimReport:
    """Monte-Carlo estimate of the adversarial failure rate.

    ``floor`` is the analytic lower bound (1/2)*(q/(q+1))^m on the
    failure probability of *any* learner against the pair prior; the
    simulation demonstrates it for the two specific learners here and
    cannot itself quantify over all algorithms.  For those two learners
    it is the failure probability exactly: the pair is confusable iff
    2^q is never drawn, probability (q/(q+1))^m, and then each learner
    misses the uniformly drawn target with probability 1/2.
    ``sample_bound`` is q*ln(1/(2*delta)), the sample size any
    (epsilon < 1/(q+1), delta) PAC learner must exceed.
    """

    q: int
    m: int
    trials: int
    learner: str
    seed: int
    failures: int
    floor: Fraction
    delta: Fraction
    sample_bound: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials

    @property
    def stderr(self) -> float:
        p = self.failure_rate
        return math.sqrt(p * (1 - p) / self.trials)


def simulate_lower_bound(
    q: int,
    m: int,
    trials: int,
    learner: str = "min",
    seed: int = 0,
    delta: Fraction = Fraction(1, 20),
) -> SimReport:
    """Estimate how often a consistent learner misses the hidden parameter.

    One adversarial pair is drawn from the seed; each trial picks the
    target uniformly from the pair, draws m i.i.d. uniform domain
    points, and asks the learner for a consistent hypothesis from the
    two-element version space.  A trial fails when the output disagrees
    with the target somewhere on the domain, which for the pair means
    exactly at 2^q.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if m < 0:
        raise ValueError("sample size must be non-negative")
    if learner not in LEARNERS:
        raise ValueError(f"learner must be one of {LEARNERS}")
    rng = random.Random(seed)
    bits = [rng.randrange(2) for _ in range(2 * q - 1)]
    pair = make_pair(q, bits)
    cls = RoundedMultiplierClass(q)
    labels = (cls.labels(pair.c1), cls.labels(pair.c2))

    failures = 0
    n_points = q + 1
    for _ in range(trials):
        target = rng.randrange(2)
        sample = [rng.randrange(n_points) for _ in range(m)]
        consistent = [
            h
            for h in (0, 1)
            if all(labels[h][i] == labels[target][i] for i in sample)
        ]
        if learner == "min":
            guess = consistent[0]
        else:
            guess = rng.choice(consistent)
        if guess != target:
            failures += 1

    floor = Fraction(1, 2) * Fraction(q, q + 1) ** m
    bound = q * math.log(1 / (2 * delta))
    return SimReport(q, m, trials, learner, seed, failures, floor, Fraction(delta), bound)


def consistent_dyadic_learner(
    samples: Sequence[tuple[int, Fraction]], q: int
) -> Fraction | None:
    """Smallest 2q-bit dyadic c in [0,1) consistent with rounded samples.

    Provided for completeness beyond the two-point version space.  Each
    sample (x, y) with x = 2^k constrains c to [y/2^k, y/2^k + 2^-(k+q));
    the intersection is scanned for its smallest multiple of 2^-2q.
    """
    lo = Fraction(0)
    hi = Fraction(1)
    for x, y in samples:
        k = x.bit_length() - 1
        if 1 << k != x:
            raise ValueError(f"domain points are powers of two, got {x}")
        left = Fraction(y) / x
        lo = max(lo, left)
        hi = min(hi, left + Fraction(1, x << q))
    if lo >= hi:
        return None
    step = 1 << (2 * q)
    first = math.ceil(lo * step)
    candidate = Fraction(first, step)
    return candidate if candidate < hi else None
