"""The exact engine against the plain reference.

``forward``, ``loss_total`` and ``gradients`` run on a lowered, int-first
plan of the network that holds every sum as an unreduced (numerator,
denominator) pair and reduces it only where its bits are checked.
:mod:`plain_reference` is the direct form, run once per input without a
cap; its record gives the outcome at every cap.  Seeded random DAGs
compare every field of the results, their types, and the
``BitBudgetError`` fields at small caps; nets shaped like the benchmark's
piecewise-linear ones compare them on operands of thousands of bits, over
mixed and over power-of-two denominators.  ``test_the_reference_stays_plain``
keeps the reference free of the engine's code.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import plain_reference
from bitnets.network import (
    Edge,
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
)
from bitnets.product_identity import RationalPoly, monomial
from bitnets.pwl import BitBoundedActivation, gd_step, leaky_relu, relu
from plain_reference import bits, outcome, ref_forward, ref_gradients, ref_loss

PLAIN = {"EvalTrace", "GradientReport", "NetworkError", "PolyActivation", "Sample", "RationalPoly",
         "BitBudgetError"}


def test_the_reference_stays_plain():
    """The reference imports from the library only the data types, errors and
    activations named in ``PLAIN``: no module, and none of its evaluation code."""
    imported = set()
    for node in ast.walk(ast.parse(Path(plain_reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "bitnets"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bitnets":
            imported |= {a.name for a in node.names}
    assert imported and sorted(imported - PLAIN) == []


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
    pred = ref_forward(net, theta, dataset[0].x).value.values[spec.target]
    if kind == "hinge" and pred != 0:
        dataset.append(Sample(dataset[0].x, 1 / pred, count=2, note="on the kink"))
    return net, theta, tuple(dataset), spec


# ---------------------------------------------------------------------------
# comparison


CAPS = (3, 6, 12, 24, 48, 96, 1 << 20)


def assert_engine_matches(net, theta, dataset, spec, caps=CAPS):
    """Each call at each cap against the reference's record; returns the
    record of the gradients."""
    traces = [ref_forward(net, theta, s.x) for s in dataset]
    loss, grads = ref_loss(net, theta, dataset, spec), ref_gradients(net, theta, dataset, spec)
    for cap in caps:
        for sample, trace in zip(dataset, traces):
            assert outcome(forward, net, theta, sample.x, cap) == trace.at(cap)
        assert outcome(loss_total, net, theta, dataset, spec, cap) == loss.at(cap)
        assert outcome(gradients, net, theta, dataset, spec, cap) == grads.at(cap)
    return grads


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ("square", "hinge"))
def test_random_dags_match_reference(mode, kind):
    rng = random.Random(f"{mode}-{kind}")
    kinks = 0
    for _ in range(30):
        kinks += assert_engine_matches(*random_case(rng, mode, kind)).value.hinge_kinks
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

    def test_a_shared_bias_gradient_trips_at_its_heads_first_in_edge(self):
        # h's parallel in-edges z and m from a share the bias gradient
        # 2**10 * 3 (13 bits); each weight gradient 2**10 * 3/2 has 12, so
        # the budget trips at m, the first of them in edge order
        net = Network([Vertex("a", "source"), Vertex("h", "target", IdentityActivation())],
                      [Edge("z", "a", "h"), Edge("m", "a", "h")])
        theta = Theta({"z": (Fraction(1), Fraction(0)), "m": (Fraction(1), Fraction(0))})
        dataset = (Sample({"a": Fraction(1, 2)}, Fraction(-2), count=1 << 10),)
        case = (net, theta, dataset, LossSpec("square", target="h"))
        assert outcome(gradients, *case, 12) == ("bits", 13, 12, "bias gradient m")
        report = gradients(*case, 13)
        assert report.bias_grad == {"m": 3072, "z": 3072} and report.max_bits == 12
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

    def test_the_total_is_judged_reduced(self):
        # two copies each lose 1/2 (3 bits): the total 1 has 2 bits, though
        # the sum 2/2 over the common denominator has 4
        net, theta, (sample,), spec = one_edge(1, 1, 0, 1)
        case = (net, theta, (sample, sample), spec)
        assert outcome(loss_total, *case, 3) == ("ok", 1)
        assert outcome(loss_total, *case, 2) == ("bits", 3, 2, "loss of sample 0")
        assert_engine_matches(*case, caps=(2, 3, 4))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False), st.sampled_from(MODES),
       st.sampled_from(("square", "hinge")))
def test_engine_matches_reference_property(rng, mode, kind):
    assert_engine_matches(*random_case(rng, mode, kind))


# ---------------------------------------------------------------------------
# sums held over a common denominator


def around(*peaks):
    """Each peak bit count and one less: the caps at which a check just
    passes and just fails."""
    return sorted({c for p in peaks for c in (p - 1, p)})


def assert_engine_matches_at_peaks(net, theta, dataset, spec):
    """Compare each call uncapped and at the caps around the reference's
    peaks for that call, where its largest operands are checked; returns
    the record of the gradients."""
    big = 1 << 30
    loss = ref_loss(net, theta, dataset, spec)
    loss_peaks = {b for b, where in loss.checks if where.startswith("loss")}
    for s in dataset:
        trace = ref_forward(net, theta, s.x)
        peaks = (trace.value.max_bits, max(map(bits, trace.value.preactivations.values())))
        for cap in (*around(*peaks), big):
            assert outcome(forward, net, theta, s.x, cap) == trace.at(cap)
        loss_peaks.update(peaks)
    for cap in (*around(*loss_peaks), big):
        assert outcome(loss_total, net, theta, dataset, spec, cap) == loss.at(cap)
    grads = ref_gradients(net, theta, dataset, spec)
    report = grads.value
    for cap in (*around(report.max_bits, max(map(bits, report.bias_grad.values()))), big):
        assert outcome(gradients, net, theta, dataset, spec, cap) == grads.at(cap)
    return grads


def assert_loss_matches_at_totals(net, theta, dataset, spec):
    """Compare ``loss_total`` at each running total's bits and one less;
    returns the locations of the errors raised."""
    loss, seen = ref_loss(net, theta, dataset, spec), set()
    for cap in around(*(b for b, where in loss.checks if where.startswith("loss total"))):
        result = outcome(loss_total, net, theta, dataset, spec, cap)
        assert result == loss.at(cap)
        if result[0] == "bits":
            seen.add(result[3].rsplit(" ", 1)[0])
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_loss_total_matches_reference_at_each_running_total(mode):
    """Random DAGs with two auxiliary samples put in at random positions,
    one that reproduces its label and one that likely does not."""
    rng = random.Random(f"totals-{mode}")
    seen = set()
    for _ in range(20):
        net, theta, dataset, spec = random_case(rng, mode, rng.choice(("square", "hinge")))
        x = dataset[0].x
        values = ref_forward(net, theta, x).value.values
        dataset = list(dataset)
        for label in ({v: q for v, q in values.items() if q}, {}):
            aux = Sample(x, label, flag=0, count=rng.randint(1, 3))
            dataset.insert(rng.randint(0, len(dataset)), aux)
        seen |= assert_loss_matches_at_totals(net, theta, tuple(dataset), spec)
    assert "loss total after sample" in seen


PWL_ACTIVATIONS = (relu(), leaky_relu(Fraction(1, 10)), IdentityActivation())


def layered_case(rng, width=4, depth=3, samples=4, denoms=(1, 3, 7, 11, 1 << 20), bounded=()):
    """A fully connected layered net of ReLU / leaky / identity vertices and
    an identity target, with 64-bit numerators over ``denoms``; the hidden
    vertices in ``bounded`` round their outputs to 48-bit dyadics."""
    def scalar():
        return Fraction(rng.randint(-(1 << 63), 1 << 63), rng.choice(denoms))

    prev = [f"s{i}" for i in range(width)]
    vertices, edges = [Vertex(v, "source") for v in prev], []
    for layer in range(1, depth + 2):
        cur = [f"h{layer}_{i}" for i in range(width)] if layer <= depth else ["t"]
        for v in cur:
            if v == "t":
                vertices.append(Vertex(v, "target", IdentityActivation()))
            else:
                act = rng.choice(PWL_ACTIVATIONS)
                if v in bounded:
                    act = BitBoundedActivation(act, 48)
                vertices.append(Vertex(v, "hidden", act))
            edges += [Edge(f"{u}->{v}", u, v) for u in prev]
        prev = cur
    theta = Theta({e.id: (scalar(), scalar()) for e in edges})
    dataset = tuple(Sample({f"s{i}": scalar() for i in range(width)}, scalar())
                    for _ in range(samples))
    return Network(vertices, edges), theta, dataset, LossSpec("square", target="t")


@pytest.mark.parametrize("seed", range(2))
def test_pwl_shaped_nets_match_reference_along_two_steps(seed):
    net, theta, dataset, spec = layered_case(random.Random(seed))
    for step in range(3):
        peak = assert_engine_matches_at_peaks(net, theta, dataset, spec).value.max_bits
        if step < 2:
            theta = gd_step(net, theta, dataset, spec, Fraction(1, 64)).theta
    assert peak > 10_000  # theta_2 puts the checks on big operands


@pytest.mark.parametrize("seed", range(2))
def test_pwl_shaped_loss_totals_match_reference_at_theta_two(seed):
    net, theta, dataset, spec = layered_case(random.Random(seed))
    for _ in range(2):
        theta = gd_step(net, theta, dataset, spec, Fraction(1, 64)).theta
    assert "loss total after sample" in assert_loss_matches_at_totals(net, theta, dataset, spec)


def ref_gd_step(net, theta, dataset, spec, eta):
    """theta - eta * the reference gradients, in stdlib ``Fraction`` arithmetic."""
    report = ref_gradients(net, theta, dataset, spec).value
    return Theta({eid: (w - eta * report.weight_grad[eid], b - eta * report.bias_grad[eid])
                  for eid, (w, b) in theta.params.items()}), report.ops


@pytest.mark.parametrize("seed", range(2))
def test_dyadic_nets_match_reference_along_two_steps(seed):
    """Power-of-two denominators and eta = 2**-6 make every sum's pair
    mostly a power of two, which its reduction shifts out; one hidden vertex
    is bit-bounded.  The engine and ``gd_step`` agree with the reference at
    theta, theta_1 and theta_2, uncapped and at one bit under each peak."""
    net, theta, dataset, spec = layered_case(
        random.Random(f"dyadic-{seed}"), width=3, denoms=(1, 1 << 20), bounded=("h2_0",))
    assert isinstance(net.vertex_map["h2_0"].activation, BitBoundedActivation)
    eta = Fraction(1, 64)
    for step in range(3):
        grads = assert_engine_matches_at_peaks(net, theta, dataset, spec)
        peak = grads.value.max_bits
        assert_loss_matches_at_totals(net, theta, dataset, spec)
        if step == 2:
            break
        want, ref_ops = ref_gd_step(net, theta, dataset, spec, eta)
        report = gd_step(net, theta, dataset, spec, eta)
        assert report.theta == want and report.ops == ref_ops + 4 * len(net.edges)
        assert all(type(q) is Fraction for pair in report.theta.params.values() for q in pair)
        assert outcome(gd_step, net, theta, dataset, spec, eta, peak - 1) == grads.at(peak - 1)
        theta = report.theta
    assert peak > 5_000
    assert max(q.denominator.bit_length() for pair in theta.params.values() for q in pair) > 128


def star(weights, biases, xs):
    """Sources s0, s1, ... into one identity target t, one sample labelled 1."""
    n = len(weights)
    net = Network([*(Vertex(f"s{i}", "source") for i in range(n)),
                   Vertex("t", "target", IdentityActivation())],
                  [Edge(f"e{i}", f"s{i}", "t") for i in range(n)])
    theta = Theta({f"e{i}": (Fraction(w), Fraction(b))
                   for i, (w, b) in enumerate(zip(weights, biases))})
    dataset = (Sample({f"s{i}": Fraction(x) for i, x in enumerate(xs)}, Fraction(1)),)
    return net, theta, dataset, LossSpec("square", target="t")


F = Fraction
STARS = {
    # name: (weights, biases, inputs, the preactivation of t)
    "terms cancel to an integer": ((F(1, 2), F(1, 3)), (0, 0), (1, F(3, 2)), 1),
    "terms cancel to zero": ((F(1, 2), F(-1, 3)), (0, 0), (1, F(3, 2)), 0),
    "terms and biases cancel to zero": ((F(1, 6), F(1, 10)), (F(-1, 3), F(-1, 5)), (2, 2), 0),
    "equal denominators":
        ((F(1, 7), F(2, 7), F(3, 7)), (F(1, 7), 0, F(-3, 7)), (1, 1, 1), F(4, 7)),
    "int tails under Fraction weights": ((F(5, 7), F(2, 3)), (0, 0), (3, -4), F(-11, 21)),
    "int terms onto a Fraction bias": ((2, 3), (F(1, 2), 0), (5, 7), F(63, 2)),
    "Fraction terms onto an int total": ((1, F(1, 3)), (0, 0), (4, F(1, 5)), F(61, 15)),
}


@pytest.mark.parametrize("name", STARS)
def test_hand_sums_match_reference(name):
    weights, biases, xs, pre = STARS[name]
    case = star(weights, biases, xs)
    trace = forward(*case[:2], case[2][0].x)
    assert trace.preactivations["t"] == pre and type(trace.preactivations["t"]) is Fraction
    assert trace.node_bits["t"] == bits(Fraction(pre))
    assert_engine_matches(*case, caps=(1, 2, 3, 4, 5, 6, 8, 12, 1 << 20))


def test_an_adjoint_that_cancels_to_zero_skips_its_vertex():
    # t = a/3 - b/3 and a = b = 3u/4: u's adjoint is 3/4 * (1/3 - 1/3) * delta_t
    net = Network([Vertex("s", "source"), Vertex("u", "hidden", IdentityActivation()),
                   Vertex("a", "hidden", IdentityActivation()),
                   Vertex("b", "hidden", IdentityActivation()),
                   Vertex("t", "target", IdentityActivation())],
                  [Edge("su", "s", "u"), Edge("ua", "u", "a"), Edge("ub", "u", "b"),
                   Edge("at", "a", "t"), Edge("bt", "b", "t")])
    zero = Fraction(0)
    theta = Theta({"su": (Fraction(1, 3), zero), "ua": (Fraction(3, 4), zero),
                   "ub": (Fraction(3, 4), zero), "at": (Fraction(1, 3), zero),
                   "bt": (Fraction(-1, 3), zero)})
    case = (net, theta, (Sample({"s": Fraction(5)}, Fraction(1)),), LossSpec("square", "t"))
    report = gradients(*case)
    # forward 4 + 4 + 4 + 7, the seed 1, then t, a and b (2 + 6 per in-edge); u is skipped
    assert report.ops == 19 + 1 + 14 + 8 + 8
    assert report.weight_grad["su"] == 0 and report.bias_grad["su"] == 0
    assert_engine_matches(*case, caps=(1, 2, 3, 4, 5, 6, 1 << 20))


def test_gradient_accumulators_are_checked_once_after_cancelling_across_samples():
    # sample 0 adds 2**10 * 3 * 3 to the weight gradient (14 bits) and
    # 2**10 * 3 to the bias gradient; sample 1 takes both back to 0
    net, theta, _, spec = one_edge(3, 1, 0, 1 << 10)
    dataset = (Sample({"s": Fraction(3)}, Fraction(0), count=1 << 10),
               Sample({"s": Fraction(3)}, Fraction(6), count=1 << 10))
    report = gradients(net, theta, dataset, spec, 4)
    assert report.weight_grad == {"s->h": 0} and report.bias_grad == {"s->h": 0}
    assert_engine_matches(net, theta, dataset, spec, caps=(1, 2, 3, 4, 13, 14))
