"""Depth-growth experiment: schema, determinism, qualitative separation."""

import math
import random
from fractions import Fraction

import pytest

from bitnets.bench import (
    CSV_COLUMNS,
    GrowthRow,
    build_chain,
    depth_growth_experiment,
    log10_magnitude_proxy,
    rows_to_csv,
)
from bitnets.network import LossSpec, PolyActivation, Sample, gradients
from bitnets.product_identity import RationalPoly, monomial
from bitnets.pwl import leaky_relu, relu
from bitnets.rationals import bit_length


class TestLogProxy:
    def test_within_one_of_true_log10(self):
        for value in (
            Fraction(1),
            Fraction(12345, 7),
            Fraction(1, 99991),
            Fraction(-3) ** 41,
            Fraction(2) ** 100,
            Fraction(7, 2**80),
        ):
            proxy = log10_magnitude_proxy(value)
            true = math.log10(abs(float(value.numerator)) ) - math.log10(float(value.denominator))
            assert abs(proxy - true) <= 1.0

    def test_zero_maps_to_minus_infinity(self):
        assert log10_magnitude_proxy(Fraction(0)) == float("-inf")


class TestCsv:
    def test_column_order_stable(self):
        rows = [GrowthRow(0, "relu", 10, 1.0, 2.0)]
        header = rows_to_csv(rows).splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_seed_determinism_modulo_runtime(self):
        a = depth_growth_experiment(3, "relu", seed=11)
        b = depth_growth_experiment(3, "relu", seed=11)
        assert rows_to_csv(a, include_runtime=False) == rows_to_csv(b, include_runtime=False)

    def test_different_seeds_differ(self):
        a = depth_growth_experiment(3, "relu", seed=1)
        b = depth_growth_experiment(3, "relu", seed=2)
        assert rows_to_csv(a, include_runtime=False) != rows_to_csv(b, include_runtime=False)


class TestGrowth:
    def test_depth_zero_identical_across_activations(self):
        sq = depth_growth_experiment(0, "square", seed=5)[0]
        rl = depth_growth_experiment(0, "relu", seed=5)[0]
        assert sq.grad_bitlen == rl.grad_bitlen
        assert sq.log10_proxy == rl.log10_proxy

    def test_square_dominates_relu_from_depth_three(self):
        depths = list(range(0, 7))
        sq = depth_growth_experiment(6, "square", seed=0, depths=depths)
        rl = depth_growth_experiment(6, "relu", seed=0, depths=depths)
        for s, r in zip(sq, rl):
            if s.depth >= 3:
                assert s.grad_bitlen > r.grad_bitlen

    def test_square_growth_at_least_geometric(self):
        rows = depth_growth_experiment(6, "square", seed=0)
        by_depth = {r.depth: r.grad_bitlen for r in rows}
        for d in range(3, 6):
            assert by_depth[d + 1] >= 1.5 * by_depth[d]

    def test_budget_overrun_names_the_depth_reached(self):
        import pytest

        from bitnets.rationals import BitBudgetError

        with pytest.raises(BitBudgetError) as err:
            depth_growth_experiment(10, "square", seed=0, max_bits=4096)
        assert "depth" in str(err.value)

    def test_relu_growth_at_most_linear(self):
        # measured slope is ~250-350 bits per layer while paths stay active;
        # an all-dead layer collapses the gradient to exactly 0 (bitlen 1)
        rows = depth_growth_experiment(64, "relu", seed=0, depths=list(range(1, 65, 7)))
        for r in rows:
            assert r.grad_bitlen <= 400 * r.depth + 400


def first_layer_bits(activation, depths):
    """The first-layer weight-gradient bits on the seed-0 chain, by depth."""
    out = []
    for depth in depths:
        net, theta, x, first = build_chain(depth, activation, random.Random(f"0/depth{depth}"))
        report = gradients(net, theta, [Sample(x, Fraction(0))], LossSpec("square", target="out"))
        out.append(max(bit_length(report.weight_grad[e]) for e in first))
    return out


class TestGrowthLaw:
    """Polynomial activations multiply the gradient's bits by deg sigma per
    layer; piecewise-linear ones add a bounded number of bits per layer."""

    @pytest.mark.parametrize("activation, degree, max_depth", [
        (PolyActivation(monomial(2)), 2, 6),
        (PolyActivation(monomial(3)), 3, 5),
        (PolyActivation(RationalPoly((Fraction(1), Fraction(-2), Fraction(3, 2)))), 2, 6),
    ], ids=["T^2", "T^3", "1-2T+3/2T^2"])
    def test_polynomial_bits_grow_by_the_degree_per_layer(self, activation, degree, max_depth):
        bits = first_layer_bits(activation, range(2, max_depth + 1))
        for prev, cur in zip(bits, bits[1:]):
            assert abs(cur / prev - degree) <= 0.2

    @pytest.mark.parametrize("activation", [relu(), leaky_relu(Fraction(1, 10))],
                             ids=["relu", "leaky-relu-1/10"])
    def test_piecewise_linear_bits_grow_additively(self, activation):
        bits = first_layer_bits(activation, range(7))
        for depth, b in enumerate(bits):
            assert b <= bits[0] + 300 * depth
