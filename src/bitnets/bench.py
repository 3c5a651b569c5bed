"""Depth-dependent gradient growth: squaring activation versus ReLU.

Builds fully-connected chains of width ``WIDTH`` with seeded random
weights scaled by ``WEIGHT_SCALE`` on every layer, evaluates the exact
first-layer weight gradient under square loss against a zero label, and
reports the gradient's bit-length together with a log10 magnitude proxy
read off the bit-lengths.  Both activations at a given depth share the same
weights and input, so the comparison isolates the nonlinearity.  The
growth rates differ qualitatively: polynomial activations square the
bit-length per layer while ReLU only adds to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .network import (
    Activation,
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    PolyActivation,
    ROLE_HIDDEN,
    ROLE_SOURCE,
    ROLE_TARGET,
    Sample,
    Theta,
    Vertex,
    gradients,
)
from .product_identity import monomial
from .pwl import relu
from .rationals import DEFAULT_MAX_BITS, BitBudgetError, bit_length

ACTIVATIONS: dict[str, Activation] = {"square": PolyActivation(monomial(2)), "relu": relu()}

CSV_COLUMNS = ("depth", "activation", "grad_bitlen", "log10_proxy", "runtime_ms")

WIDTH = 4
WEIGHT_SCALE = 3

_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class GrowthRow:
    depth: int
    activation: str
    grad_bitlen: int
    log10_proxy: float
    runtime_ms: float


def log10_magnitude_proxy(value: Fraction) -> float:
    """log10|value| to within +-1, read off numerator/denominator bit-lengths."""
    if value == 0:
        return float("-inf")
    return (abs(value.numerator).bit_length() - value.denominator.bit_length()) * _LOG10_2


def _random_fraction(rng) -> Fraction:
    """Uniform 64-bit dyadic rational in [-1, 1]."""
    return Fraction(rng.randint(-(1 << 63), 1 << 63), 1 << 63)


def build_chain(
    depth: int, activation: Activation, rng
) -> tuple[Network, Theta, dict[str, Fraction], list[str]]:
    """A ``WIDTH``-wide fully-connected chain of the given depth plus a scalar
    head, its weights scaled by ``WEIGHT_SCALE``.

    Returns the network, its randomized parameters, the random input
    vector and the first-layer edge ids (the coordinates the experiment
    differentiates).  The draw order is fixed, so one rng yields the
    same weights regardless of activation.
    """
    vertices = [Vertex(f"s{i}", ROLE_SOURCE, None) for i in range(WIDTH)]
    layers = [[f"s{i}" for i in range(WIDTH)]]
    for layer in range(1, depth + 1):
        ids = [f"h{layer}_{i}" for i in range(WIDTH)]
        vertices.extend(Vertex(vid, ROLE_HIDDEN, activation) for vid in ids)
        layers.append(ids)
    vertices.append(Vertex("out", ROLE_TARGET, IdentityActivation()))
    layers.append(["out"])

    edges = []
    params = {}
    first_layer: list[str] = []
    for prev, cur in zip(layers, layers[1:]):
        for tail in prev:
            for head in cur:
                eid = f"{tail}->{head}"
                edges.append(Edge(eid, tail, head))
                params[eid] = (WEIGHT_SCALE * _random_fraction(rng), Fraction(0))
                if tail.startswith("s"):
                    first_layer.append(eid)

    x = {f"s{i}": _random_fraction(rng) for i in range(WIDTH)}
    return Network(vertices, edges), Theta(params), x, first_layer


def depth_growth_experiment(
    max_depth: int,
    activation: str,
    seed: int = 0,
    depths: list[int] | None = None,
    max_bits: int = DEFAULT_MAX_BITS,
) -> list[GrowthRow]:
    """Exact first-layer gradients across depths for one activation, named
    by its ``ACTIVATIONS`` key.

    The per-depth rng is derived from (seed, depth) only, so the square
    and relu runs at equal depth see identical weights and inputs.  A
    bit-budget overrun stops the sweep and reports the depths reached.
    """
    import random

    rows = []
    for depth in depths if depths is not None else range(max_depth + 1):
        # Seeded per (seed, depth) only: both activations see identical draws.
        rng = random.Random(f"{seed}/depth{depth}")
        net, theta, x, first_layer = build_chain(depth, ACTIVATIONS[activation], rng)
        dataset = [Sample(x, Fraction(0), flag=1)]
        spec = LossSpec("square", target="out")
        start = time.perf_counter()
        try:
            report = gradients(net, theta, dataset, spec, max_bits)
        except BitBudgetError as exc:
            raise BitBudgetError(
                exc.bits,
                exc.cap,
                f"depth {depth} after {len(rows)} completed rows ({exc.where})",
            ) from None
        elapsed_ms = (time.perf_counter() - start) * 1000
        grads = [report.weight_grad[eid] for eid in first_layer]
        norm_sq = sum((g * g for g in grads), Fraction(0))
        rows.append(
            GrowthRow(
                depth=depth,
                activation=activation,
                grad_bitlen=max(bit_length(g) for g in grads),
                log10_proxy=log10_magnitude_proxy(norm_sq) / 2,
                runtime_ms=elapsed_ms,
            )
        )
    return rows


def rows_to_csv(rows: list[GrowthRow], include_runtime: bool = True) -> str:
    """Render rows with the fixed column order.

    Runtime is wall-clock measurement noise; drop it (include_runtime
    False) when byte-identical output across runs is required.
    """
    columns = CSV_COLUMNS if include_runtime else CSV_COLUMNS[:-1]
    lines = [",".join(columns)]
    for r in rows:
        cells = [str(r.depth), r.activation, str(r.grad_bitlen), f"{r.log10_proxy:.3f}"]
        if include_runtime:
            cells.append(f"{r.runtime_ms:.3f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
