"""The exact engine against a plain reference evaluator.

``forward``, ``loss_total`` and ``gradients`` run on a lowered, int-first
plan of the network.  The reference below is the direct form: a walk
over dicts of ``Fraction`` in topological order that adds every edge's
``w * f_u + b`` one at a time, and the reverse-mode loop over the same
dicts.  Seeded random DAGs compare every field of the results, their
types, and the ``BitBudgetError`` fields at small caps.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitnets.network import (
    Edge,
    EvalTrace,
    GradientReport,
    IdentityActivation,
    LossSpec,
    Network,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
    forward,
    gradients,
    loss_total,
    sample_loss,
)
from bitnets.product_identity import RationalPoly, monomial
from bitnets.pwl import BitBoundedActivation, leaky_relu, relu
from bitnets.rationals import BitBudgetError

# ---------------------------------------------------------------------------
# reference


def ref_bits(q, cap, where):
    bits = abs(q.numerator).bit_length() + q.denominator.bit_length()
    if bits > cap:
        raise BitBudgetError(bits, cap, where)
    return bits


def ref_forward(net, theta, x, max_bits):
    values, pre, bits, ops = {}, {}, {}, 0
    for vid in net.topo_order:
        vertex = net.vertex_map[vid]
        z = val = Fraction(x.get(vid, 0))
        if vertex.role != "source":
            for e in net.in_edges[vid]:
                w, b = theta.params[e.id]
                z += w * values[e.tail] + b
                ops += 3
            ref_bits(z, max_bits, f"preactivation {vid}")
            val = vertex.activation.eval(z)
            ops += 1
        values[vid], pre[vid] = val, z
        bits[vid] = ref_bits(val, max_bits, f"vertex {vid}")
    return EvalTrace(values, pre, bits, max(bits.values()), ops)


def ref_gradients(net, theta, dataset, spec, max_bits):
    wgrad = {e.id: Fraction(0) for e in net.edges}
    bgrad = {e.id: Fraction(0) for e in net.edges}
    kinks = peak = ops = 0
    for sample in dataset:
        trace = ref_forward(net, theta, sample.x, max_bits)
        ops, peak = ops + trace.ops, max(peak, trace.max_bits)
        pred, y = trace.values[spec.target], Fraction(sample.label)
        if spec.kind == "square":
            seed, ops = pred - y, ops + 1
        else:
            margin, ops = 1 - y * pred, ops + 2
            kinks += margin == 0
            seed = -y if margin > 0 else Fraction(0)
        adjoint = {vid: Fraction(0) for vid in net.topo_order}
        adjoint[spec.target] = seed
        for vid in reversed(net.topo_order):
            vertex = net.vertex_map[vid]
            if adjoint[vid] == 0 or vertex.role == "source":
                continue
            delta = adjoint[vid] * vertex.activation.derivative(trace.preactivations[vid])
            ops += 2
            peak = max(peak, ref_bits(delta, max_bits, f"adjoint {vid}"))
            for e in net.in_edges[vid]:
                wgrad[e.id] += sample.count * delta * trace.values[e.tail]
                bgrad[e.id] += sample.count * delta
                adjoint[e.tail] += delta * theta.params[e.id][0]
                ops += 6
    for e in net.edges:
        peak = max(peak, ref_bits(wgrad[e.id], max_bits, f"weight gradient {e.id}"))
        ref_bits(bgrad[e.id], max_bits, f"bias gradient {e.id}")
    return GradientReport(wgrad, bgrad, kinks, peak, ops)


def ref_loss(net, theta, dataset, spec, max_bits):
    """The total in dataset order; a main sample's one-copy loss and the
    total after each addition are checked."""
    total = Fraction(0)
    for i, s in enumerate(dataset):
        loss = sample_loss(net, spec, ref_forward(net, theta, s.x, max_bits).values, s)
        if s.flag:
            ref_bits(loss, max_bits, f"loss of sample {i}")
        elif not loss:
            continue
        total += s.count * loss
        ref_bits(total, max_bits, f"loss total after sample {i}")
    return total


# ---------------------------------------------------------------------------
# random cases

ACTIVATIONS = [
    IdentityActivation(),
    PolyActivation(monomial(2)),
    PolyActivation(monomial(3)),
    PolyActivation(RationalPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7)))),  # sigma(0) != 0
    relu(),
    leaky_relu(Fraction(1, 10)),
    BitBoundedActivation(relu(), 3),
    BitBoundedActivation(IdentityActivation(), 2, (Fraction(-2), Fraction(5, 2))),
    BitBoundedActivation(PolyActivation(monomial(2)), 4),
]
MODES = ("int", "mixed", "wide")


def scalar(rng, mode):
    if mode == "int" or (mode == "mixed" and rng.random() < 0.5):
        return Fraction(rng.randint(-3, 3))
    if mode == "mixed":
        return Fraction(rng.randint(-7, 7), rng.choice([2, 3, 4]))
    den = rng.choice([1, 3, (1 << 64) - 59, 1 << 64])
    return Fraction(rng.randint(-(1 << 63), 1 << 63), den)


def random_case(rng, mode, kind):
    """A DAG whose vertex ids do not sort in topological order, its
    parameters and a dataset; hinge datasets get a sample on the kink."""
    n = rng.randint(3, 7)
    names = rng.sample("abcdefghijklm", n)
    n_sources = rng.randint(1, 2)
    vertices, edges = [], []
    for k, vid in enumerate(names):
        if k < n_sources:
            vertices.append(Vertex(vid, "source"))
            continue
        role = "target" if k == n - 1 else "hidden"
        vertices.append(Vertex(vid, role, rng.choice(ACTIVATIONS)))
        for m in range(rng.randint(1, 3)):
            tail = names[rng.randrange(k)]
            edges.append(Edge(f"{tail}{vid}{m}", tail, vid))
    net = Network(vertices, edges)
    theta = Theta({e.id: (scalar(rng, mode), scalar(rng, mode)) for e in edges})
    spec = LossSpec(kind, target=names[-1])
    dataset = []
    for _ in range(rng.randint(1, 3)):
        x = {vid: scalar(rng, mode) for vid in rng.sample(names, rng.randint(1, n))}
        dataset.append(Sample(x, scalar(rng, mode), count=rng.randint(1, 3)))
    pred = ref_forward(net, theta, dataset[0].x, 1 << 20).values[spec.target]
    if kind == "hinge" and pred != 0:
        dataset.append(Sample(dataset[0].x, 1 / pred, count=2, note="on the kink"))
    return net, theta, tuple(dataset), spec


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    """A call's result as plain data, or the fields of its bit-budget error."""
    try:
        result = fn(*args)
    except BitBudgetError as exc:
        return ("bits", exc.bits, exc.cap, exc.where)
    if isinstance(result, EvalTrace):
        assert all(type(q) is Fraction for q in [*result.values.values(),
                                                 *result.preactivations.values()])
        return ("trace", list(result.values.items()), list(result.preactivations.items()),
                list(result.node_bits.items()), result.max_bits, result.ops)
    if isinstance(result, GradientReport):
        assert all(type(q) is Fraction for q in [*result.weight_grad.values(),
                                                 *result.bias_grad.values()])
        return ("grad", list(result.weight_grad.items()), list(result.bias_grad.items()),
                result.hinge_kinks, result.max_bits, result.ops)
    assert type(result) is Fraction
    return ("loss", result)


CAPS = (3, 6, 12, 24, 48, 96, 1 << 20)


def assert_engine_matches(net, theta, dataset, spec, caps=CAPS):
    for cap in caps:
        for sample in dataset:
            assert outcome(forward, net, theta, sample.x, cap) == outcome(
                ref_forward, net, theta, sample.x, cap
            )
        assert outcome(loss_total, net, theta, dataset, spec, cap) == outcome(
            ref_loss, net, theta, dataset, spec, cap
        )
        assert outcome(gradients, net, theta, dataset, spec, cap) == outcome(
            ref_gradients, net, theta, dataset, spec, cap
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ("square", "hinge"))
def test_random_dags_match_reference(mode, kind):
    rng = random.Random(f"{mode}-{kind}")
    kinks = 0
    for _ in range(30):
        case = random_case(rng, mode, kind)
        assert_engine_matches(*case)
        kinks += outcome(ref_gradients, *case, 1 << 20)[3]
    if kind == "hinge":
        assert kinks > 0


def test_every_error_location_is_reached():
    rng = random.Random(5)
    seen = set()
    for _ in range(60):
        case = random_case(rng, rng.choice(MODES), rng.choice(("square", "hinge")))
        for cap in CAPS:
            result = outcome(gradients, *case, cap)
            if result[0] == "bits":
                seen.add(result[3].rsplit(" ", 1)[0])
    assert {"preactivation", "vertex", "adjoint"} <= seen


def one_edge(x_s, w, label, count):
    net = Network([Vertex("s", "source"), Vertex("h", "target", IdentityActivation())],
                  [Edge("s->h", "s", "h")])
    theta = Theta({"s->h": (Fraction(w), Fraction(0))})
    dataset = (Sample({"s": Fraction(x_s)}, Fraction(label), count=count),)
    return net, theta, dataset, LossSpec("square", target="h")


class TestAccumulatorBudget:
    """Gradient accumulators are checked after the last sample."""

    def test_weight_gradient_trips_on_no_vertex(self):
        # every vertex and adjoint has 3 bits; the weight gradient
        # 2**10 * 3 * 3 has 15 and the bias gradient 2**10 * 3 has 13
        case = one_edge(3, 1, 0, 1 << 10)
        for sample in case[2]:
            assert forward(*case[:2], sample.x, 12).max_bits == 3
        assert outcome(gradients, *case, 12) == ("bits", 15, 12, "weight gradient s->h")
        assert gradients(*case, 15).max_bits == 15
        assert_engine_matches(*case, caps=(3, 12, 13, 14, 15))

    def test_bias_gradient_trips_on_no_vertex(self):
        # value 1/2 and delta 3: the weight gradient 2**10 * 3/2 has 12
        # bits, the bias gradient 2**10 * 3 has 13; max_bits stays 12
        case = one_edge(Fraction(1, 2), 1, Fraction(-5, 2), 1 << 10)
        assert outcome(gradients, *case, 12) == ("bits", 13, 12, "bias gradient s->h")
        assert gradients(*case, 13).max_bits == 12
        assert_engine_matches(*case, caps=(3, 12, 13))


class TestLossBudget:
    """``loss_total`` checks each main sample's one-copy loss and the
    running total, not only the vertices of the forward pass."""

    @pytest.mark.parametrize("kind, x_s, bits", [("square", 0, 81), ("hinge", -1, 42)])
    def test_huge_label_trips_on_the_sample_loss(self, kind, x_s, bits):
        # every vertex has at most 2 bits; (0 - 2**40)**2 / 2 = 2**79 has
        # 80 + 1 (the denominator) and the hinge margin 1 + 2**40 has 41 + 1
        net, theta, dataset, _ = one_edge(x_s, 1, 1 << 40, 1)
        case = (net, theta, dataset, LossSpec(kind, target="h"))
        assert forward(net, theta, dataset[0].x, 8).max_bits <= 2
        assert outcome(loss_total, *case, 8) == ("bits", bits, 8, "loss of sample 0")
        assert_engine_matches(*case, caps=(8, bits - 1, bits))

    def test_count_trips_on_the_total(self):
        # one copy loses 9/2 (6 bits); 2**10 copies lose 4608 (14 bits)
        case = one_edge(3, 1, 0, 1 << 10)
        assert outcome(loss_total, *case, 13) == ("bits", 14, 13, "loss total after sample 0")
        assert loss_total(*case, 14) == 4608
        assert_engine_matches(*case, caps=(6, 13, 14))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False), st.sampled_from(MODES),
       st.sampled_from(("square", "hinge")))
def test_engine_matches_reference_property(rng, mode, kind):
    assert_engine_matches(*random_case(rng, mode, kind))
