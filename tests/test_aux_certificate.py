"""The auxiliary-sample certificate against one full forward pass per sample.

``loss_total``, ``verify_witness``, ``check_zero_aux_loss``,
``decide_at_theta_star`` and the compiler's auxiliary samples are
computed sparsely in the library.  The reference below is the dense
form: a full ``forward`` pass and ``sample_loss`` per sample, and a
sweep over every vertex for every sample's input.
"""

import dataclasses
import json
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bitnets.network
from bitnets.cli import main
from bitnets.instances import (
    SchemaError,
    canonical_bytes,
    instance_to_doc,
    parse_instance,
    serialize_instance,
)
from bitnets.network import (
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
    forward,
    loss_total,
    sample_loss,
)
from bitnets.product_identity import RationalPoly, monomial
from bitnets.pwl import ACCEPT, REJECT_LOSS, verify_witness
from bitnets.rationals import BitBudgetError, bit_length, check_bits
from bitnets.reductions import (
    ErmInstance,
    check_zero_aux_loss,
    compile_erm,
    compile_hinge_posslp,
    decide_at_theta_star,
)
from bitnets.slp import Gate, Slp, parse_slp

from test_slp import random_slp

SIGMAS = [
    monomial(2),
    monomial(3),
    RationalPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), Fraction(2))),
]
DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# reference: one full forward pass per sample


def ref_reproduces(inst, theta, sample, max_bits):
    values = forward(inst.network, theta, sample.x, max_bits).values
    if not isinstance(sample.label, Mapping):
        raise NetworkError("equality-checked sample needs a vector label")
    return all(
        values[v.id] == Fraction(sample.label.get(v.id, 0)) for v in inst.network.vertices
    )


def ref_check(inst, theta, max_bits=1 << 20):
    theta.check_against(inst.network)
    for sample in inst.dataset:
        if sample.flag == 0 and not ref_reproduces(inst, theta, sample, max_bits):
            return False, sample
    return True, None


def ref_loss(inst, theta, max_bits=1 << 20):
    """The total loss, one ``forward`` pass per sample in dataset order; a
    main sample's one-copy loss and the total after each addition are checked."""
    total = Fraction(0)
    for i, sample in enumerate(inst.dataset):
        values = forward(inst.network, theta, sample.x, max_bits).values
        loss = sample_loss(inst.network, inst.loss, values, sample)
        if sample.flag:
            check_bits(loss, max_bits, f"loss of sample {i}")
        elif not loss:
            continue
        total += sample.count * loss
        check_bits(total, max_bits, f"loss total after sample {i}")
    return total


def ref_decide(inst, max_bits=1 << 20):
    return ref_loss(inst, inst.theta_star, max_bits) <= inst.gap[0]


def ref_aux_samples(inst):
    """The compiler's auxiliary samples, each input computed over every vertex."""
    net, theta = inst.network, inst.theta_star
    sigma = RationalPoly.from_text(inst.provenance["sigma"])
    alpha1 = inst.provenance["alpha1"]
    is_sigma = {v.id: isinstance(v.activation, PolyActivation) for v in net.vertices}
    base_y = {v: sigma.evaluate(Fraction(0)) if s else Fraction(0) for v, s in is_sigma.items()}

    def make(y, pre, note):
        x = {}
        for v in net.vertices:
            x[v.id] = pre.get(v.id, Fraction(0)) - sum(
                theta.weight(e.id) * y[e.tail] + theta.bias(e.id) for e in net.in_edges[v.id]
            )
        nz = lambda vec: {k: q for k, q in vec.items() if q != 0}  # noqa: E731
        return Sample(nz(x), nz(y), flag=0, count=inst.gap[1] + 1, note=note)

    samples = [make(base_y, {}, "baseline")]
    for e in net.edges:
        if is_sigma[e.head]:
            for tau in range(sigma.degree + 1):
                y = {**base_y, e.tail: Fraction(tau), e.head: sigma.evaluate(Fraction(tau))}
                pre = {e.tail: Fraction(tau), e.head: Fraction(tau)}
                samples.append(make(y, pre, f"sigma-edge {e.id} tau={tau}"))
        else:
            bump = sigma.evaluate(Fraction(alpha1)) if is_sigma[e.tail] else Fraction(1)
            y = {**base_y, e.tail: bump, e.head: theta.weight(e.id) * (bump - base_y[e.tail])}
            pre = {v: y[v] for v in net.vertex_map if not is_sigma[v]}
            pre[e.tail] = Fraction(alpha1) if is_sigma[e.tail] else bump
            samples.append(make(y, pre, f"id-edge {e.id}"))
    return samples


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args):
    """A call's result, or the identifying fields of the error it raised."""
    try:
        return ("ok", fn(*args))
    except BitBudgetError as exc:
        return ("bits", exc.bits, exc.cap, exc.where)
    except NetworkError as exc:
        return ("network", str(exc))


def assert_same(inst, theta, max_bits=1 << 20):
    assert outcome(check_zero_aux_loss, inst, theta, max_bits) == outcome(
        ref_check, inst, theta, max_bits
    )
    at_theta = dataclasses.replace(inst, theta_star=theta)
    assert outcome(decide_at_theta_star, at_theta, max_bits) == outcome(
        ref_decide, at_theta, max_bits
    )


def assert_same_loss(inst, theta, max_bits=1 << 20):
    net, spec = inst.network, inst.loss
    expected = outcome(ref_loss, inst, theta, max_bits)
    assert outcome(loss_total, net, theta, inst.dataset, spec, max_bits) == expected
    gamma = Fraction(inst.gap[0])

    def witness():
        verdict = verify_witness(inst, theta, gamma, (4, 2), max_bits)
        return verdict.verdict, verdict.loss

    if expected[0] == "ok":
        loss = expected[1]
        expected = ("ok", (ACCEPT if loss <= gamma else REJECT_LOSS, loss))
    assert outcome(witness) == expected


def assert_sweep(inst, thetas, caps=(1 << 20,)):
    """``check_zero_aux_loss``, ``loss_total`` and ``verify_witness`` on one
    object at every theta and cap, twice, with ``decide_at_theta_star`` on it
    in between, against the reference: every call after the first reads the
    certificate index the instance keeps.  ``thetas[0]`` is theta*."""
    gamma = Fraction(inst.gap[0])
    cases = [(theta, cap) for theta in thetas for cap in caps]
    expected = [
        (outcome(ref_check, inst, theta, cap), outcome(ref_loss, inst, theta, cap))
        for theta, cap in cases
    ]
    decided = {cap: ("ok", loss[1] <= gamma) if loss[0] == "ok" else loss
               for (theta, cap), (_, loss) in zip(cases, expected) if theta is thetas[0]}
    for _ in range(2):
        for (theta, cap), (check, loss) in zip(cases, expected):
            assert outcome(check_zero_aux_loss, inst, theta, cap) == check
            assert outcome(decide_at_theta_star, inst, cap) == decided[cap]
            assert outcome(loss_total, inst.network, theta, inst.dataset, inst.loss, cap) == loss

            def witness():
                verdict = verify_witness(inst, theta, gamma, (4, 2), cap)
                return verdict.verdict, verdict.loss

            if loss[0] == "ok":
                loss = ("ok", (ACCEPT if loss[1] <= gamma else REJECT_LOSS, loss[1]))
            assert outcome(witness) == loss


def single_shifts(rng, inst, n_edges):
    """theta* and, on ``n_edges`` random edges, one weight and one bias shift."""
    theta = inst.theta_star
    return [theta] + [
        shifted(theta, eid, coord, rng.choice(DELTAS))
        for eid in rng.sample([e.id for e in inst.network.edges], n_edges)
        for coord in ("weight", "bias")
    ]


def shifted(theta, eid, coord, delta):
    w, b = theta.params[eid]
    return theta.with_param(eid, **{coord: (b if coord == "bias" else w) + delta})


def compiled(rng, n_max=4):
    p = random_slp(rng, rng.randint(1, n_max))
    sigma = rng.choice(SIGMAS[:2])
    gap = rng.choice([(0, 1), (1, 3), (0, 2)])
    if rng.random() < 0.3:
        return compile_hinge_posslp(p, sigma, copies=gap[1], low=gap[0])
    return compile_erm(p, sigma, rng.randint(0, 4), gap)


# ---------------------------------------------------------------------------
# tests


class TestCompiledSamples:
    def test_bytes_match_dense_loop(self):
        rng = random.Random(60)
        for trial in range(24):
            p = random_slp(rng, rng.randint(1, 5))
            sigma = SIGMAS[trial % 3]
            gap = (0, rng.randint(1, 3))
            for inst in (compile_erm(p, sigma, 1, gap), compile_hinge_posslp(p, sigma, gap[1])):
                main = tuple(s for s in inst.dataset if s.flag == 1)
                dense = dataclasses.replace(inst, dataset=tuple(ref_aux_samples(inst)) + main)
                assert serialize_instance(inst) == serialize_instance(dense)
                assert inst.dataset == dense.dataset


class TestVerdicts:
    def test_theta_star_and_single_coordinate_shifts(self):
        rng = random.Random(61)
        for _ in range(12):
            inst = compiled(rng)
            assert_sweep(inst, single_shifts(rng, inst, 4))

    def test_parsed_copy_agrees_with_compiled(self):
        """A file round trip shares equal values by identity instead of by
        the compiler's baseline; verdicts, samples and errors stay the same."""
        rng = random.Random(64)
        for _ in range(10):
            inst = compiled(rng)
            parsed = parse_instance(serialize_instance(inst))
            copies = [(inst, inst.theta_star), (parsed, parsed.theta_star)]
            for eid in rng.sample([e.id for e in inst.network.edges], 4):
                delta = rng.choice(DELTAS)
                copies += [(c, shifted(c.theta_star, eid, "weight", delta)) for c in (inst, parsed)]
            for (a, theta_a), (b, theta_b) in zip(copies[::2], copies[1::2]):
                for cap in (5, 1 << 20):
                    assert outcome(check_zero_aux_loss, a, theta_a, cap) == outcome(
                        check_zero_aux_loss, b, theta_b, cap
                    )
                    assert outcome(
                        decide_at_theta_star, dataclasses.replace(a, theta_star=theta_a), cap
                    ) == outcome(
                        decide_at_theta_star, dataclasses.replace(b, theta_star=theta_b), cap
                    )
            assert_sweep(parsed, [theta for c, theta in copies if c is parsed], (5, 1 << 20))

    def test_bit_budget_errors_at_small_caps(self):
        rng = random.Random(62)
        for _ in range(8):
            inst = compiled(rng, n_max=5)
            assert_sweep(inst, single_shifts(rng, inst, 2), (2, 3, 5, 16))

    def test_reordered_aux_samples(self):
        rng = random.Random(63)
        for _ in range(6):
            inst = compiled(rng)
            aux = [s for s in inst.dataset if s.flag == 0]
            rng.shuffle(aux)
            main = [s for s in inst.dataset if s.flag == 1]
            dataset = main + aux if rng.random() < 0.5 else aux + main
            shuffled = dataclasses.replace(inst, dataset=tuple(dataset))
            # shifting the weight out of a vertex that the first auxiliary
            # sample labels non-zero fails that sample, so the reference is
            # a later one
            eids = rng.sample([e.id for e in inst.network.edges], 2) + [
                e.id for e in inst.network.edges if aux[0].label.get(e.tail, 0) != 0][:1]
            thetas = [shuffled.theta_star]
            for eid in eids:
                thetas.append(shifted(inst.theta_star, eid, "weight", Fraction(1, 2)))
                thetas.append(shifted(inst.theta_star, eid, "bias", Fraction(-1)))
            assert_sweep(shuffled, thetas, (2, 3, 5, 16, 1 << 20))

    def test_first_aux_sample_fails(self):
        # s -> h (w = 2, identity); the first auxiliary label is wrong, so
        # no reference exists until the second one passes a full pass
        s, h = Vertex("s", "source"), Vertex("h", "target", IdentityActivation())
        net = Network([s, h], [Edge("s->h", "s", "h")])
        theta = Theta({"s->h": (Fraction(2), Fraction(1))})
        dataset = (
            Sample({"s": Fraction(1)}, {"s": Fraction(1), "h": Fraction(4)}, 0, 2, "wrong"),
            Sample({"s": Fraction(1)}, {"s": Fraction(1), "h": Fraction(3)}, 0, 3, "right"),
            Sample({"s": Fraction(2)}, {"s": Fraction(2), "h": Fraction(5)}, 0, 5, "right 2"),
            Sample({"s": Fraction(2)}, {"s": Fraction(2), "h": Fraction(6)}, 0, 7, "wrong 2"),
            Sample({"s": Fraction(1), "h": Fraction(1)}, Fraction(4), 1, 1, "main"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="h"), (9, 10), {})
        ok, violated = check_zero_aux_loss(inst, theta)
        assert not ok and violated.note == "wrong"
        thetas = [theta, theta.with_param("s->h", bias=Fraction(2)),
                  theta.with_param("s->h", weight=Fraction(1))]
        assert_sweep(inst, thetas, (2, 3, 5, 16, 1 << 20))
        # loss: 2 + 7 for the wrong samples, (4 - 4)^2 / 2 for the main one
        assert decide_at_theta_star(inst) is True
        assert decide_at_theta_star(dataclasses.replace(inst, gap=(8, 9))) is False
        # a copy of the first sample after the reference equals it at every
        # vertex, so only the reference's own list shows it is wrong
        again = dataclasses.replace(dataset[0], count=11, note="wrong again")
        repeated = dataclasses.replace(inst, dataset=dataset + (again,), gap=(19, 20))
        assert loss_total(net, theta, repeated.dataset, repeated.loss) == 20
        assert decide_at_theta_star(repeated) is False
        assert_sweep(repeated, thetas, (2, 3, 5, 16, 1 << 20))

    def test_budget_error_at_first_vertex_in_topological_order(self):
        # ids sort as a < s < z, evaluation order is s, z, a; the second
        # sample differs from the first at z and a, and both overflow
        s, z = Vertex("s", "source"), Vertex("z", "hidden", IdentityActivation())
        a = Vertex("a", "target", IdentityActivation())
        net = Network([s, z, a], [Edge("s->z", "s", "z"), Edge("z->a", "z", "a")])
        theta = Theta({"s->z": (Fraction(1), Fraction(0)), "z->a": (Fraction(1), Fraction(0))})
        big = Fraction(100)
        dataset = (
            Sample({}, {}, 0, 1, "zero"),
            Sample({"z": big}, {"z": big, "a": big}, 0, 1, "big"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="a"), (0, 1), {})
        assert outcome(check_zero_aux_loss, inst, theta, 5) == ("bits", 8, 5, "preactivation z")
        assert_same(inst, theta, 5)


class TestLossTotal:
    def test_loss_and_witness_match_dense_reference(self):
        """``loss_total``, ``verify_witness`` and the checks on compiled and
        parsed copies, at theta* and single-coordinate shifts, equal the dense
        totals, bit-budget errors included."""
        rng = random.Random(65)
        for _ in range(5):
            inst = compiled(rng)
            parsed = parse_instance(serialize_instance(inst))
            shifts = [(rng.choice([e.id for e in inst.network.edges]),
                       rng.choice(("weight", "bias")), delta) for delta in DELTAS]
            for copy in (inst, parsed):
                thetas = [copy.theta_star] + [shifted(copy.theta_star, *s) for s in shifts]
                assert_sweep(copy, thetas, (2, 3, 5, 16, 1 << 20))

    def test_relabelled_tail_checks_its_heads(self):
        # s -> h with w = 1: the second sample relabels s but keeps x and y
        # at h, so only the head of s shows that h no longer matches
        s, h = Vertex("s", "source"), Vertex("h", "target", IdentityActivation())
        net = Network([s, h], [Edge("s->h", "s", "h")])
        theta = Theta({"s->h": (Fraction(1), Fraction(0))})
        dataset = (
            Sample({}, {}, 0, 1, "zero"),
            Sample({"s": Fraction(1)}, {"s": Fraction(1)}, 0, 2, "stale head"),
            Sample({"s": Fraction(1)}, {"s": Fraction(1), "h": Fraction(1)}, 0, 3, "right"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="h"), (1, 3), {})
        ok, violated = check_zero_aux_loss(inst, theta)
        assert not ok and violated.note == "stale head"
        assert loss_total(net, theta, dataset, inst.loss) == 2
        assert decide_at_theta_star(inst) is False
        assert_same(inst, theta)
        assert_same_loss(inst, theta)

    def test_one_full_pass_per_main_sample_at_theta_star(self, monkeypatch):
        """Past the reference, auxiliary samples that hold need no full pass."""
        runs = []
        run = bitnets.network._Plan.run
        monkeypatch.setattr(
            bitnets.network._Plan, "run", lambda plan, *a: runs.append(1) or run(plan, *a)
        )
        rng = random.Random(66)
        for _ in range(4):
            inst = compiled(rng)
            n_main = sum(1 for s in inst.dataset if s.flag == 1)
            for copy in (inst, parse_instance(serialize_instance(inst))):
                runs.clear()
                assert check_zero_aux_loss(copy, copy.theta_star) == (True, None)
                assert len(runs) == 0
                runs.clear()
                loss_total(copy.network, copy.theta_star, copy.dataset, copy.loss)
                assert len(runs) == n_main


CAPS = (2, 3, 5, 16, 1 << 20)


def namespace(inst):
    """The instance's fields on a plain object, which keeps no plan or index."""
    return SimpleNamespace(**{f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)})


def same_values(theta):
    """theta with every pair a new tuple of equal values, integral ones as ``int``."""
    def new(q):
        return q.numerator if q.denominator == 1 else Fraction(q.numerator, q.denominator)
    return Theta({eid: (new(w), new(b)) for eid, (w, b) in theta.params.items()})


def reuse_cases(rng, inst):
    """theta*, weight and bias shifts on two random edges, one shift on each
    of three edges at once, and theta* rebuilt from new pairs."""
    theta = inst.theta_star
    eids = [e.id for e in inst.network.edges]
    multi = theta
    for eid in rng.sample(eids, min(3, len(eids))):
        multi = shifted(multi, eid, rng.choice(("weight", "bias")), rng.choice(DELTAS))
    return single_shifts(rng, inst, 2) + [multi, same_values(theta)]


def assert_matches_namespace(inst, thetas, caps=CAPS):
    """Checks on ``inst``, which keeps its theta* plan, equal those on its
    namespace copy, twice over, with decide at theta* after each."""
    copy = namespace(inst)
    for _ in range(2):
        for theta in thetas:
            for cap in caps:
                assert outcome(check_zero_aux_loss, inst, theta, cap) == outcome(
                    check_zero_aux_loss, copy, theta, cap
                )
                assert outcome(decide_at_theta_star, inst, cap) == outcome(
                    decide_at_theta_star, copy, cap
                )


def assert_theta_star_matches_reference(inst):
    for cap in CAPS:
        assert outcome(decide_at_theta_star, inst, cap) == outcome(ref_decide, inst, cap)
        assert outcome(check_zero_aux_loss, inst, inst.theta_star, cap) == outcome(
            ref_check, inst, inst.theta_star, cap
        )


@pytest.fixture
def lowered(monkeypatch):
    """The vertices each new plan lowers, one list per plan."""
    plans = []
    lower, init = bitnets.network._Plan._lower, bitnets.network._Plan.__init__

    def counting_init(plan, *args):
        plans.append([])
        init(plan, *args)

    def counting_lower(plan, net, vid, *args):
        plans[-1].append(vid)
        return lower(plan, net, vid, *args)

    monkeypatch.setattr(bitnets.network._Plan, "__init__", counting_init)
    monkeypatch.setattr(bitnets.network._Plan, "_lower", counting_lower)
    return plans


class TestKeptPlan:
    """An ``ErmInstance`` keeps its theta* plan; a plan of another theta
    reuses a vertex's entry only when its in-edge pairs are the kept tuples."""

    def test_matches_namespace_copy(self):
        rng = random.Random(68)
        for _ in range(8):
            inst = compiled(rng)
            assert_matches_namespace(inst, reuse_cases(rng, inst))

    def test_parsed_and_reordered_copies_match_their_namespaces(self):
        rng = random.Random(69)
        for _ in range(4):
            inst = compiled(rng)
            parsed = parse_instance(serialize_instance(inst))
            assert_matches_namespace(parsed, reuse_cases(rng, parsed))
            aux = [s for s in inst.dataset if s.flag == 0]
            rng.shuffle(aux)
            shuffled = dataclasses.replace(
                inst, dataset=tuple(aux) + tuple(s for s in inst.dataset if s.flag == 1)
            )
            assert_matches_namespace(shuffled, reuse_cases(rng, shuffled))

    def test_theta_star_params_replaced_after_the_plan_is_kept(self):
        rng = random.Random(70)
        for _ in range(6):
            inst = compiled(rng)
            original = inst.theta_star.params
            shifts = reuse_cases(rng, inst)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            assert inst._cert.kept is not None
            for theta in shifts[1:]:
                object.__setattr__(inst.theta_star, "params", theta.params)
                assert_theta_star_matches_reference(inst)
                # a shift of the theta* the plan was kept for still reuses it
                object.__setattr__(inst.theta_star, "params", original)
                assert_matches_namespace(inst, [theta, inst.theta_star], (5, 1 << 20))

    def test_theta_star_params_changed_in_place(self):
        rng = random.Random(71)
        for _ in range(4):
            inst = compiled(rng)
            assert decide_at_theta_star(inst) == ref_decide(inst)
            params = inst.theta_star.params
            for eid in rng.sample(sorted(params), 2):
                w, b = params[eid]
                params[eid] = (w + rng.choice(DELTAS), b)
                assert_theta_star_matches_reference(inst)

    def test_lowers_only_the_heads_of_changed_pairs(self, lowered):
        rng = random.Random(72)
        inst = compiled(rng)
        net, theta = inst.network, inst.theta_star
        # the compiler's plan of theta* is the kept one, so theta* is lowered once
        decide_at_theta_star(inst)
        assert [len(vids) for vids in lowered] == [len(net.vertices) - 1, 0]
        for e in rng.sample(net.edges, 4):
            lowered.clear()
            check_zero_aux_loss(inst, shifted(theta, e.id, "bias", Fraction(1)))
            assert lowered == [[e.head]]
        lowered.clear()
        pair = rng.sample(net.edges, 2)
        check_zero_aux_loss(inst, shifted(shifted(theta, pair[0].id, "weight", Fraction(1)),
                                          pair[1].id, "weight", Fraction(1)))
        heads = {e.head for e in pair}
        assert lowered == [[vid for vid in net.topo_order if vid in heads]]
        lowered.clear()
        check_zero_aux_loss(inst, same_values(theta))
        assert lowered == [[vid for vid in net.topo_order if net.in_edges[vid]]]

    def test_namespace_copies_and_witnesses_lower_whole_plans(self, lowered):
        inst = parse_instance(serialize_instance(compiled(random.Random(73))))
        n = sum(1 for v in inst.network.vertices if v.activation is not None)
        decide_at_theta_star(namespace(inst))
        verify_witness(inst, inst.theta_star, Fraction(0))
        # the compiler's plan, then one whole plan each; a parsed copy keeps none
        assert [len(vids) for vids in lowered] == [n, n, n]
        assert inst._cert.kept is None


def ref_peak(inst):
    """P* densely: the peak bits of the preactivations and values of a full
    pass of every auxiliary sample at theta*."""
    peak = 1
    for sample in inst.dataset:
        if sample.flag == 0:
            trace = forward(inst.network, inst.theta_star, sample.x)
            peak = max(peak, trace.max_bits, *map(bit_length, trace.preactivations.values()))
    return peak


def assert_matches_copy_and_reference(inst, theta, caps):
    """``check_zero_aux_loss`` at theta, then ``decide_at_theta_star`` with
    theta*'s params replaced by theta's, on ``inst`` (which keeps its theta*
    plan and record), on its namespace copy and by the dense reference."""
    copy = namespace(inst)
    for cap in caps:
        expected = outcome(ref_check, inst, theta, cap)
        assert outcome(check_zero_aux_loss, inst, theta, cap) == expected
        assert outcome(check_zero_aux_loss, copy, theta, cap) == expected
    original = inst.theta_star.params
    object.__setattr__(inst.theta_star, "params", theta.params)
    try:
        for cap in caps:
            expected = outcome(ref_decide, inst, cap)
            assert outcome(decide_at_theta_star, inst, cap) == expected
            assert outcome(decide_at_theta_star, copy, cap) == expected
    finally:
        object.__setattr__(inst.theta_star, "params", original)


def distinct_heads(rng, inst, k):
    """``k`` random edges, no two into the same vertex."""
    by_head = {}
    for e in inst.network.edges:
        by_head.setdefault(e.head, []).append(e.id)
    return [rng.choice(by_head[v]) for v in rng.sample(sorted(by_head), min(k, len(by_head)))]


class TestThetaStarRecord:
    """An ``ErmInstance`` keeps P*, the peak bits its certificate saw when
    theta*'s kept plan passed every auxiliary sample; at caps of at least P*
    a check looks only at the vertices its plan lowered again."""

    def test_record_is_the_dense_peak_and_caps_around_it_agree(self):
        rng = random.Random(74)
        for trial in range(4):
            p = random_slp(rng, rng.randint(1, 4))
            inst = compile_erm(p, SIGMAS[trial % 3], rng.randint(0, 3), (0, 2))
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)  # makes the record
            star = inst._cert.star
            assert star == ref_peak(inst)
            assert outcome(check_zero_aux_loss, inst, inst.theta_star, star - 1)[0] == "bits"
            for theta in reuse_cases(rng, inst):
                assert_matches_copy_and_reference(inst, theta, (star - 1, star, 1 << 20))

    def test_multi_edge_shift_failing_the_first_aux_sample(self):
        """A bias shift changes the first sample's preactivation at its head,
        so that sample fails; the loss at the shifted theta* goes on past it."""
        rng = random.Random(75)
        for trial in range(6):
            p = random_slp(rng, rng.randint(2, 5))
            inst = compile_erm(p, SIGMAS[trial % 3], rng.randint(0, 3), (0, 2))
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            theta = inst.theta_star
            for eid, coord in zip(distinct_heads(rng, inst, 3), ("bias", "weight", "bias")):
                theta = shifted(theta, eid, coord, rng.choice(DELTAS))
            first = next(s for s in inst.dataset if s.flag == 0)
            assert check_zero_aux_loss(inst, theta) == (False, first)
            assert inst._cert.star is not None
            assert_matches_copy_and_reference(inst, theta, (inst._cert.star, 1 << 20))

    def test_sample_after_a_later_reference_checks_that_reference_list(self):
        # s -> h (identity, w 1, b 0); the shift to (0, 1) fails every sample
        # with y_s = 0 and passes the one with y_s = 1, which becomes the
        # reference; the copy of the first sample after it differs from the
        # first one nowhere, so only the reference's list shows it fails
        s, h = Vertex("s", "source"), Vertex("h", "target", IdentityActivation())
        net = Network([s, h], [Edge("s->h", "s", "h")])
        theta = Theta({"s->h": (Fraction(1), Fraction(0))})
        dataset = (
            Sample({}, {}, 0, 2, "zero"),
            Sample({"s": Fraction(1)}, {"s": Fraction(1), "h": Fraction(1)}, 0, 3, "one"),
            Sample({}, {}, 0, 5, "zero again"),
            Sample({"s": Fraction(1)}, Fraction(1), 1, 1, "main"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="h"), (6, 8), {})
        shift = Theta({"s->h": (Fraction(0), Fraction(1))})
        assert check_zero_aux_loss(inst, shift) == (False, dataset[0])
        assert inst._cert.star == 2
        assert_matches_copy_and_reference(inst, shift, (2, 16, 1 << 20))
        object.__setattr__(inst.theta_star, "params", shift.params)
        assert loss_total(net, shift, dataset, inst.loss) == 7
        assert decide_at_theta_star(inst) is False

    def test_a_preactivation_can_set_the_peak(self):
        # h = sigma(pre) with sigma(z) = z**2 / 2**40 - z, which is 0 at 0 and
        # at 2**40; the second sample gives h the preactivation 2**40, so only
        # that preactivation's 42 bits bound what a narrowed check may skip
        sigma = RationalPoly((Fraction(0), Fraction(-1), Fraction(1, 1 << 40)))
        s, h = Vertex("s", "source"), Vertex("h", "hidden", PolyActivation(sigma))
        t = Vertex("t", "target", IdentityActivation())
        net = Network([s, h, t], [Edge("s->h", "s", "h"), Edge("h->t", "h", "t")])
        theta = Theta({"s->h": (Fraction(1), Fraction(0)), "h->t": (Fraction(1), Fraction(0))})
        dataset = (
            Sample({}, {}, 0, 2, "zero"),
            Sample({"h": Fraction(1 << 40)}, {}, 0, 2, "big preactivation"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="t"), (0, 1), {})
        shift = theta.with_param("h->t", weight=Fraction(2))
        assert outcome(check_zero_aux_loss, inst, shift, 41) == ("bits", 42, 41, "preactivation h")
        assert inst._cert.star == ref_peak(inst) == 42
        assert_matches_copy_and_reference(inst, shift, (41, 42, 1 << 20))

    def test_theta_star_failing_an_aux_sample_has_no_record(self):
        rng = random.Random(76)
        for _ in range(4):
            inst = compiled(rng)
            k = rng.choice([i for i, s in enumerate(inst.dataset) if s.flag == 0])
            target = inst.network.targets[0]
            label = dict(inst.dataset[k].label)
            label[target] = label.get(target, 0) + 1
            data = list(inst.dataset)
            data[k] = dataclasses.replace(data[k], label=label)
            broken = dataclasses.replace(inst, dataset=tuple(data))
            assert check_zero_aux_loss(broken, broken.theta_star) == (False, data[k])
            assert broken._cert.recorded and broken._cert.star is None
            for theta in single_shifts(rng, broken, 2):
                assert_matches_copy_and_reference(broken, theta, (5, 16, 1 << 20))


@pytest.fixture
def evaluated(monkeypatch):
    """Local equations evaluated outside a full pass, and full passes."""
    counts = {"local": 0, "passes": 0}
    settle, run = bitnets.network._Plan.settle, bitnets.network._Plan.run
    in_pass = []

    def counting_settle(plan, *args):
        counts["local"] += not in_pass
        return settle(plan, *args)

    def counting_run(plan, *args):
        counts["passes"] += 1
        in_pass.append(True)
        try:
            return run(plan, *args)
        finally:
            in_pass.pop()

    monkeypatch.setattr(bitnets.network._Plan, "settle", counting_settle)
    monkeypatch.setattr(bitnets.network._Plan, "run", counting_run)
    return counts


class TestNarrowedCost:
    def test_single_edge_shift_checks_one_vertex_per_scanned_sample(self, evaluated):
        rng = random.Random(77)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            aux = [s for s in inst.dataset if s.flag == 0]
            for e in rng.sample(inst.network.edges, min(4, len(inst.network.edges))):
                for coord in ("weight", "bias"):
                    theta = shifted(inst.theta_star, e.id, coord, rng.choice(DELTAS))
                    evaluated.update(local=0, passes=0)
                    ok, violated = check_zero_aux_loss(inst, theta)
                    assert not ok
                    scanned = next(i for i, s in enumerate(aux) if s is violated) + 1
                    assert evaluated["local"] <= scanned and evaluated["passes"] == 1

    def test_theta_star_after_the_first_check_reads_the_record(self, evaluated):
        rng = random.Random(78)
        for trial in range(4):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            n_main = sum(1 for s in inst.dataset if s.flag == 1)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            expected = ref_decide(inst)
            evaluated.update(local=0, passes=0)
            assert decide_at_theta_star(inst) == expected
            assert evaluated == {"local": 0, "passes": n_main}
            evaluated.update(local=0, passes=0)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            assert evaluated == {"local": 0, "passes": 0}


def by_identity(result):
    """An ``outcome`` of a check with the returned sample replaced by its id."""
    if result[0] != "ok":
        return result
    ok, sample = result[1]
    return "ok", ok, id(sample)


def dense_stale(inst):
    """The auxiliary samples and, for each, its stale vertices computed over
    every vertex: where its x or label differs from the first auxiliary
    sample's, and the heads of the relabelled ones."""
    net = inst.network
    aux = [s for s in inst.dataset if s.flag == 0]

    def differ(a, b):
        return {v.id for v in net.vertices if a.get(v.id, 0) != b.get(v.id, 0)}

    stale = []
    for s in aux:
        relabelled = differ(s.label, aux[0].label)
        heads = {e.head for e in net.edges if e.tail in relabelled}
        stale.append(differ(s.x, aux[0].x) | relabelled | heads)
    return aux, stale


def resumed_pass(inst, theta, sample, due):
    """Where ``sample``'s pass under ``theta`` resumes and how many vertices
    it settles there, from one plain full pass: it resumes at the first
    vertex whose value is off its label and settles, from there on, every
    vertex in ``due`` and every vertex with a tail whose value is off its
    label."""
    net, order = inst.network, inst.network.topo_order
    values = forward(net, theta, sample.x).values
    moved = {vid for vid in order if values[vid] != sample.label.get(vid, 0)}
    start = min(moved, key=order.index)
    rest = order[order.index(start):]
    return start, sum(
        vid in due or any(e.tail in moved for e in net.in_edges[vid]) for vid in rest)


@pytest.fixture
def passes(monkeypatch):
    """The vertices settled inside each full or resumed pass, one count per pass."""
    counts, in_pass = [], []
    settle, run = bitnets.network._Plan.settle, bitnets.network._Plan.run

    def counting_settle(plan, *args):
        if in_pass:
            counts[-1] += 1
        return settle(plan, *args)

    def counting_run(plan, *args):
        counts.append(0)
        in_pass.append(True)
        try:
            return run(plan, *args)
        finally:
            in_pass.pop()

    monkeypatch.setattr(bitnets.network._Plan, "settle", counting_settle)
    monkeypatch.setattr(bitnets.network._Plan, "run", counting_run)
    return counts


class TestResumedPass:
    """A sample whose local check fails at v resumes its pass at v, the
    vertices before v at their labels; after the reference, a narrowed check
    visits only the samples listed under the changed vertices."""

    def test_first_aux_sample_fails_and_a_later_one_is_the_reference(self):
        rng = random.Random(79)
        seen = 0
        for trial in range(8):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            aux = [s for s in inst.dataset if s.flag == 0]
            rng.shuffle(aux)
            main = tuple(s for s in inst.dataset if s.flag == 1)
            shuffled = dataclasses.replace(inst, dataset=tuple(aux) + main)
            assert check_zero_aux_loss(shuffled, shuffled.theta_star) == (True, None)
            star = shuffled._cert.star
            for e in inst.network.edges:
                if aux[0].label.get(e.tail, 0) == 0:
                    continue
                theta = shifted(shuffled.theta_star, e.id, "weight", rng.choice(DELTAS))
                verdicts = [ref_reproduces(shuffled, theta, s, 1 << 20) for s in aux]
                if verdicts[0] or not any(verdicts):
                    continue
                seen += 1
                caps = (2, 5, star - 1, star, star + 3, 1 << 20)
                for cap in caps:
                    assert by_identity(outcome(check_zero_aux_loss, shuffled, theta, cap)) == (
                        by_identity(outcome(ref_check, shuffled, theta, cap)))
                assert_matches_copy_and_reference(shuffled, theta, caps)
        assert seen >= 8

    @staticmethod
    def amplifier():
        """r, s -> h (identity, w 1) -> t (identity, w 2**10).  Sample "one"
        gives r 2**9 (11 bits) and t 2**10 (12 bits), so P* is 12; shifting
        s -> h to 8 fails it at h (5 bits) and gives t 2**13 (15 bits)."""
        r, s = Vertex("r", "source"), Vertex("s", "source")
        h = Vertex("h", "hidden", IdentityActivation())
        t = Vertex("t", "target", IdentityActivation())
        net = Network([r, s, h, t], [Edge("s->h", "s", "h"), Edge("h->t", "h", "t")])
        theta = Theta({"s->h": (Fraction(1), Fraction(0)), "h->t": (Fraction(1024), Fraction(0))})
        one = {"r": Fraction(512), "s": Fraction(1)}
        dataset = (
            Sample({}, {}, 0, 2, "zero"),
            Sample(one, {**one, "h": Fraction(1), "t": Fraction(1024)}, 0, 3, "one"),
            Sample({"s": Fraction(1)}, Fraction(1024), 1, 1, "main"),
        )
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="t"), (2, 3), {})
        return inst, theta.with_param("s->h", weight=Fraction(8))

    def test_first_error_after_the_failing_vertex(self):
        inst, shift = self.amplifier()
        assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
        assert inst._cert.star == ref_peak(inst) == 12
        # prefix r, s within 11 bits, h within 5, so every cap of 11 to 14
        # is first exceeded by t, after h
        for cap in range(11, 15):
            assert outcome(check_zero_aux_loss, inst, shift, cap) == (
                "bits", 15, cap, "preactivation t")
        assert check_zero_aux_loss(inst, shift, 15) == (False, inst.dataset[1])
        assert_matches_copy_and_reference(inst, shift, range(2, 17))

    def test_errors_past_the_failing_vertex_on_compiled_instances(self):
        rng = random.Random(80)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            star = inst._cert.star
            for theta in single_shifts(rng, inst, 3):
                assert_matches_copy_and_reference(inst, theta, range(star, star + 6))

    def test_single_edge_shift_resumes_at_its_head(self, passes):
        rng = random.Random(81)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            for e in rng.sample(inst.network.edges, min(4, len(inst.network.edges))):
                for coord in ("weight", "bias"):
                    theta = shifted(inst.theta_star, e.id, coord, rng.choice(DELTAS))
                    expected = ref_check(inst, theta)
                    start, settles = resumed_pass(inst, theta, expected[1], {e.head})
                    passes.clear()
                    ok, violated = check_zero_aux_loss(inst, theta)
                    assert not ok and violated is expected[1]
                    assert start == e.head and passes == [settles]

    def test_narrowed_check_reads_only_listed_samples(self, evaluated):
        rng = random.Random(82)
        for trial in range(8):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            for e in inst.network.edges:
                theta = shifted(inst.theta_star, e.id, "weight", rng.choice(DELTAS))
                assert_reads_listed(inst, theta, e.head, evaluated)

    def test_shift_listed_in_no_later_sample_reads_the_reference_alone(self, evaluated):
        # two components, s -> h and r -> g (identity, w 1); past the zero
        # sample, only "s one" lists h and only "r one" and "r two" list g
        s, h = Vertex("s", "source"), Vertex("h", "target", IdentityActivation())
        r, g = Vertex("r", "source"), Vertex("g", "hidden", IdentityActivation())
        net = Network([s, h, r, g], [Edge("s->h", "s", "h"), Edge("r->g", "r", "g")])
        theta = Theta({"s->h": (Fraction(1), Fraction(0)), "r->g": (Fraction(1), Fraction(0))})

        def aux(vid, q, note):
            head = {"s": "h", "r": "g"}[vid]
            return Sample({vid: Fraction(q)}, {vid: Fraction(q), head: Fraction(q)}, 0, 2, note)

        dataset = (Sample({}, {}, 0, 2, "zero"), aux("r", 1, "r one"), aux("r", 2, "r two"),
                   Sample({"s": Fraction(1)}, Fraction(1), 1, 1, "main"), aux("s", 1, "s one"))
        inst = ErmInstance(net, theta, dataset, LossSpec("square", target="h"), (4, 5), {})
        reads = {
            ("h", "s->h", None): 2, ("h", "s->h", "s"): 1,
            ("g", "r->g", None): 3, ("g", "r->g", "r"): 1,
        }
        for (head, eid, drop), local in reads.items():
            data = tuple(d for d in dataset if not d.note.startswith(f"{drop} "))
            copy = dataclasses.replace(inst, dataset=data)
            shift = theta.with_param(eid, weight=Fraction(2))
            assert assert_reads_listed(copy, shift, head, evaluated) == local


class TestUnnarrowedResume:
    """Without a record, a sample up to the reference checks every vertex,
    and a failed check resumes the pass where it failed."""

    def test_bias_shift_resumes_at_its_head(self, passes):
        """A bias shift that fails the first auxiliary sample resumes its pass
        at the edge's head, in ``check_zero_aux_loss`` and ``loss_total``."""
        rng = random.Random(83)
        slp = parse_slp("const 1\nadd 0 0\nmul 1 1\nadd 2 1\n")
        cases = [compile_erm(slp, monomial(2), 0)] + [compiled(rng) for _ in range(3)]
        seen = 0
        for inst in cases:
            copy, net, order = namespace(inst), inst.network, inst.network.topo_order
            aux = [s for s in inst.dataset if s.flag == 0]
            for e in rng.sample(net.edges, 10):
                theta = shifted(inst.theta_star, e.id, "bias", rng.choice(DELTAS))
                fails = [s.flag == 0 and not ref_reproduces(inst, theta, s, 1 << 20)
                         for s in inst.dataset]
                if not fails[inst.dataset.index(aux[0])]:
                    continue
                seen += 1
                checks = [outcome(ref_check, inst, theta, cap) for cap in CAPS]
                loss = ref_loss(inst, theta)
                resumed = len(order) - order.index(e.head)
                passes.clear()
                ok, violated = check_zero_aux_loss(copy, theta)
                assert not ok and violated is aux[0]
                assert passes == [resumed]
                passes.clear()
                assert loss_total(net, theta, inst.dataset, inst.loss) == loss
                assert passes == [resumed if fail else len(order)
                                  for s, fail in zip(inst.dataset, fails) if s.flag or fail]
                for cap, check in zip(CAPS, checks):
                    assert outcome(check_zero_aux_loss, copy, theta, cap) == check
        assert seen >= 20



def sized(rng):
    """A compiled 3-7-gate instance under one of the three sigma, parsed or
    not, with its auxiliary samples shuffled or not."""
    p, sigma = random_slp(rng, rng.randint(3, 7)), rng.choice(SIGMAS)
    if rng.random() < 0.3:
        inst = compile_hinge_posslp(p, sigma)
    else:
        inst = compile_erm(p, sigma, rng.randint(0, 3))
    if rng.random() < 0.5:
        inst = parse_instance(serialize_instance(inst))
    if rng.random() < 0.5:
        aux = [s for s in inst.dataset if s.flag == 0]
        rng.shuffle(aux)
        inst = dataclasses.replace(
            inst, dataset=tuple(aux) + tuple(s for s in inst.dataset if s.flag == 1))
    return inst


def pass_peak(inst, theta, sample):
    """The peak bits of the preactivations and values of a full pass."""
    trace = forward(inst.network, theta, sample.x)
    return max(trace.max_bits, *map(bit_length, trace.preactivations.values()))


class TestNarrowedResume:
    """A violated sample's resumed pass settles only the rest of its check
    list and the vertices with a tail whose value moved off its label, and
    still raises the bit-budget error of a full pass.  Each count is derived
    from one plain full pass (``resumed_pass``); the check list is theta*'s
    changed vertex under the record, else every vertex up to the reference
    and, past it, the sample's stale vertices and the reference's."""

    def test_check_with_and_without_the_record(self, passes):
        rng = random.Random(84)
        seen = {"narrowed": 0, "unnarrowed": 0, "past the reference": 0}
        for _ in range(10):
            inst = sized(rng)
            order = inst.network.topo_order
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            star = inst._cert.star
            aux, stale = dense_stale(inst)
            for e in rng.sample(inst.network.edges, min(3, len(inst.network.edges))):
                for coord in ("weight", "bias"):
                    theta = shifted(inst.theta_star, e.id, coord, rng.choice(DELTAS))
                    ok, violated = ref_check(inst, theta)
                    assert not ok
                    k = next(j for j, s in enumerate(aux) if s is violated)
                    peak = pass_peak(inst, theta, violated)
                    for cap in sorted({peak - 1, peak, peak + 1, star - 1, 1 << 20} - {0, 1}):
                        narrowed = cap >= star
                        # the reference is aux[0], whose stale list is empty
                        due = {e.head} if narrowed else stale[k] if k else set(order)
                        settles = resumed_pass(inst, theta, violated, due)[1]
                        expected = by_identity(outcome(ref_check, inst, theta, cap))
                        passes.clear()
                        assert by_identity(outcome(check_zero_aux_loss, inst, theta, cap)) == (
                            expected)
                        if expected[0] == "ok":
                            assert passes == [settles]
                            seen["narrowed" if narrowed else "unnarrowed"] += 1
                            seen["past the reference"] += bool(k) and not narrowed
        assert min(seen.values()) >= 5, seen

    def test_loss_total_keeps_no_record(self, passes):
        """Without a record, a sample up to the reference resumes a whole
        pass from v; past it only its own and the reference's stale vertices
        are due.  Half the weight shifts are checked with a failing auxiliary
        sample moved to the front, so that the reference comes later."""
        rng = random.Random(85)
        seen = {"up to the reference": 0, "past the first sample": 0, "past a later one": 0}
        for _ in range(6):
            inst = sized(rng)
            net, order = inst.network, inst.network.topo_order
            e = rng.choice(net.edges)
            for coord in ("weight", "bias"):
                theta = shifted(inst.theta_star, e.id, coord, rng.choice(DELTAS))
                case = inst
                failing = [s for s in inst.dataset
                           if s.flag == 0 and not ref_reproduces(inst, theta, s, 1 << 20)]
                if coord == "weight" and failing and rng.random() < 0.5:
                    front = rng.choice(failing)
                    case = dataclasses.replace(
                        inst, dataset=(front,) + tuple(s for s in inst.dataset if s is not front))
                aux, stale = dense_stale(case)
                counts, peak, ref = [], 2, None
                for sample in case.dataset:
                    if sample.flag:
                        counts.append(len(order))
                        continue
                    k = next(j for j, s in enumerate(aux) if s is sample)
                    if not any(s is sample for s in failing):
                        ref = k if ref is None else ref
                        continue
                    due = set(order) if ref is None else stale[k] | stale[ref]
                    counts.append(resumed_pass(case, theta, sample, due)[1])
                    peak = max(peak, pass_peak(case, theta, sample))
                    seen["up to the reference" if ref is None
                         else "past a later one" if ref else "past the first sample"] += 1
                for cap in (peak - 1, peak, 1 << 20):
                    expected = outcome(ref_loss, case, theta, cap)
                    passes.clear()
                    assert outcome(loss_total, net, theta, case.dataset, case.loss, cap) == (
                        expected)
                    if expected[0] == "ok":
                        assert passes == counts
        assert min(seen.values()) >= 5, seen

def assert_reads_listed(inst, theta, head, evaluated):
    """Under a record, ``decide_at_theta_star`` at a shift of theta* whose only
    changed vertex is ``head`` evaluates one local equation for each
    auxiliary sample up to the reference, then one for each later sample
    whose stale vertices include ``head``; ``check_zero_aux_loss`` does so up
    to the sample it returns.  Returns the count of the first, or None when
    the reference's own stale vertices include ``head``."""
    assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
    aux, stale = dense_stale(inst)
    ref = next((k for k, s in enumerate(aux) if ref_reproduces(inst, theta, s, 1 << 20)), None)
    if ref is None or head in stale[ref]:
        return None
    later = [k for k in range(ref + 1, len(aux)) if head in stale[k]]
    evaluated.update(local=0, passes=0)
    assert_decides_at(inst, theta)
    assert evaluated["local"] == ref + 1 + len(later)
    local = evaluated["local"]
    expected = ref_check(inst, theta)
    evaluated.update(local=0, passes=0)
    ok, violated = check_zero_aux_loss(inst, theta)
    assert ok == expected[0] and violated is expected[1]
    stop = next((k for k, s in enumerate(aux) if s is violated), len(aux))
    assert evaluated["local"] == min(ref, stop) + 1 + sum(k <= stop for k in later)
    return local


def assert_decides_at(inst, theta):
    """``decide_at_theta_star`` with theta*'s params replaced by theta's,
    against the dense reference."""
    original = inst.theta_star.params
    object.__setattr__(inst.theta_star, "params", theta.params)
    try:
        assert decide_at_theta_star(inst) == ref_decide(inst)
    finally:
        object.__setattr__(inst.theta_star, "params", original)


def located(fn, *args):
    """The message and ``where`` of the ``NetworkError`` a call raises."""
    with pytest.raises(NetworkError) as err:
        fn(*args)
    return str(err.value), err.value.where


class TestKeptPlanThetaCheck:
    """Against a kept plan only the pairs that are not its objects are
    checked; every malformed theta still raises the error of a fresh check."""

    def cases(self, theta, eids):
        a, b = eids[0], eids[-1]
        params = dict(theta.params)
        w, bias = params[a]
        missing = {k: v for k, v in params.items() if k != b}
        return [
            Theta({**params, a: [w, bias]}),
            Theta({**params, a: (w + 1, bias, 0)}),
            Theta({**params, a: (w + 1, bias), b: [w, bias]}),
            Theta({**params, b: (w,), a: [w, bias]}),
            Theta(missing),
            Theta({**params, "ghost": (w, bias)}),
            Theta({**missing, "ghost": (w, bias)}),
        ]

    def test_same_error_as_a_fresh_check(self):
        rng = random.Random(83)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            check_zero_aux_loss(inst, inst.theta_star)
            assert inst._cert.kept is not None
            eids = rng.sample([e.id for e in inst.network.edges], min(2, len(inst.network.edges)))
            for theta in self.cases(inst.theta_star, eids):
                expected = located(theta.check_against, inst.network)
                assert located(check_zero_aux_loss, inst, theta) == expected
                assert located(check_zero_aux_loss, namespace(inst), theta) == expected


def integer_instance():
    """s -> h (sigma = T^2, w 1, b 1) -> t (identity, w 2, b 0), every value
    integral.  Sample 0 is zero at every vertex and is the reference; samples
    1 and 2 give h the preactivations 8 and -46 (5 and 7 bits) and the values
    64 and 2116 (8 and 13 bits)."""
    s, h = Vertex("s", "source"), Vertex("h", "hidden", PolyActivation(monomial(2)))
    t = Vertex("t", "target", IdentityActivation())
    net = Network([s, h, t], [Edge("s->h", "s", "h"), Edge("h->t", "h", "t")])
    theta = Theta({"s->h": (Fraction(1), Fraction(1)), "h->t": (Fraction(2), Fraction(0))})

    def aux(s_in, h_in, note):
        pre = s_in + 1 + h_in
        y = {"s": Fraction(s_in), "h": Fraction(pre * pre), "t": Fraction(2 * pre * pre)}
        return Sample({"s": Fraction(s_in), "h": Fraction(h_in)}, y, 0, 2, note)

    dataset = (
        aux(0, -1, "zero"),
        aux(5, 2, "pre 8"),
        aux(-40, -7, "pre -46"),
        Sample({"s": Fraction(3)}, Fraction(32), 1, 1, "main"),
    )
    return ErmInstance(net, theta, dataset, LossSpec("square", target="t"), (0, 1), {})


def vectors(inst):
    """Every sample's x and label, with the type of each value."""
    def typed(vector):
        if not isinstance(vector, Mapping):
            return type(vector), vector
        return sorted((k, type(q), q) for k, q in vector.items())
    return [(typed(s.x), typed(s.label)) for s in inst.dataset]


class TestIntegerBudgetParity:
    """Bit budgets on an all-integer net, at caps between a preactivation's
    bit length and its value's: the errors a ``Fraction`` count gives."""

    # (cap, sample, error): the first failing check of one full pass
    FORWARD = [
        (4, 1, ("bits", 5, 4, "preactivation h")),   # pre 8
        (5, 1, ("bits", 8, 5, "vertex h")),          # value 64
        (7, 1, ("bits", 8, 7, "vertex h")),
        (8, 1, ("bits", 9, 8, "preactivation t")),   # pre 128
        (6, 2, ("bits", 7, 6, "vertex s")),          # s = -40
        (7, 2, ("bits", 13, 7, "vertex h")),         # value 2116
        (12, 2, ("bits", 13, 12, "vertex h")),
        (13, 2, ("bits", 14, 13, "preactivation t")),
    ]

    @pytest.mark.parametrize("cap, k, error", FORWARD)
    def test_forward(self, cap, k, error):
        inst = integer_instance()
        assert outcome(forward, inst.network, inst.theta_star, inst.dataset[k].x, cap) == error

    # sample 1 peaks at 9 bits, so below that cap the check stops there
    @pytest.mark.parametrize("cap, k, error", [c for c in FORWARD if c[1] == 1 or c[0] >= 9])
    def test_check_and_decide(self, cap, k, error):
        inst = integer_instance()
        built = vectors(inst)
        for copy in (inst, parse_instance(serialize_instance(inst))):
            parsed = vectors(copy)
            for theta in (copy.theta_star, same_values(copy.theta_star)):
                got = outcome(check_zero_aux_loss, copy, theta, cap)
                assert got == outcome(ref_check, copy, theta, cap) == error
                assert outcome(decide_at_theta_star, copy, cap) == outcome(ref_decide, copy, cap)
            assert vectors(copy) == parsed
        assert vectors(inst) == built

    def test_passes_at_the_peak(self):
        inst = integer_instance()
        assert check_zero_aux_loss(inst, inst.theta_star, 14) == (True, None)
        assert outcome(check_zero_aux_loss, inst, inst.theta_star, 13)[0] == "bits"


class TestScalarAuxLabel:
    """An auxiliary sample with a scalar label.  ``ErmInstance`` refuses to
    hold one, so the fields go round it: a plain namespace for the library
    calls and ``instance_to_doc`` of it for the file."""

    @pytest.fixture
    def raw(self):
        inst = compile_erm(parse_slp("const 1\nadd 0 0\n"), SIGMAS[0], 0)
        assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)  # keeps a certificate
        data = list(inst.dataset)
        data[1] = dataclasses.replace(data[1], label=Fraction(0))
        return SimpleNamespace(**{**vars(inst), "dataset": tuple(data)})

    def test_library_instance_raises_network_error(self, raw):
        expected = ("network", "equality-checked sample needs a vector label")
        assert outcome(check_zero_aux_loss, raw, raw.theta_star) == expected
        assert outcome(loss_total, raw.network, raw.theta_star, raw.dataset, raw.loss) == expected
        assert outcome(ref_decide, raw) == expected

    def test_namespace_copy_is_judged_on_its_own_dataset(self):
        # the copy carries the original's kept certificate in its fields; it
        # relabels the target in a sample that agrees with the baseline
        # there and at the target's tails, so no index of the original
        # lists the target for that sample
        inst = compile_erm(parse_slp("const 1\nmul 0 0\nadd 1 0\n"), SIGMAS[0], 0)
        assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
        target, base = inst.network.targets[0], inst.dataset[0]
        near = {target} | {e.tail for e in inst.network.in_edges[target]}
        k = next(i for i, s in enumerate(inst.dataset) if s.flag == 0 and all(
            s.x.get(v, 0) == base.x.get(v, 0) and s.label.get(v, 0) == base.label.get(v, 0)
            for v in near) and s is not base)
        label = dict(inst.dataset[k].label)
        label[target] = label.get(target, 0) + 1
        data = list(inst.dataset)
        data[k] = dataclasses.replace(data[k], label=label)
        copy = SimpleNamespace(**{**vars(inst), "dataset": tuple(data)})
        assert_sweep(copy, single_shifts(random.Random(67), inst, 2))
        assert check_zero_aux_loss(copy, inst.theta_star) == (False, data[k])
        assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)

    def test_parse_rejects_with_path(self, raw):
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(instance_to_doc(raw)))
        assert err.value.path == "$.dataset[1].y"

    def test_cli_message_is_located(self, raw, tmp_path, capsys):
        inst_path, theta_path = tmp_path / "inst.json", tmp_path / "theta.json"
        inst_path.write_bytes(canonical_bytes(instance_to_doc(raw)))
        theta_path.write_text(json.dumps({}))
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0", "--enc-bound", "1", "1"]) == 2
        assert "$.dataset[1].y" in capsys.readouterr().err


@st.composite
def program_and_shift(draw):
    n = draw(st.integers(1, 3))
    gates = tuple(
        Gate(draw(st.sampled_from(("add", "sub", "mul"))), draw(st.integers(0, i - 1)),
             draw(st.integers(0, i - 1)))
        for i in range(1, n + 1)
    )
    sigma = draw(st.sampled_from(SIGMAS[:2]))
    inst = compile_erm(Slp(Fraction(1), gates), sigma, 0)
    eid = draw(st.sampled_from([e.id for e in inst.network.edges]))
    coord = draw(st.sampled_from(("weight", "bias")))
    delta = draw(st.sampled_from(DELTAS + (Fraction(3), Fraction(-1, 3))))
    return inst, shifted(inst.theta_star, eid, coord, delta)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_and_shift())
def test_single_shift_verdict_matches_reference(case):
    inst, theta = case
    assert check_zero_aux_loss(inst, theta) == ref_check(inst, theta)


@st.composite
def paper_sized_shift(draw):
    """A parsed ``compile_erm`` file of up to 16 gates, at most 6 of them
    ``mul``, under one of the three sigma, and one weight or bias shift of
    its theta*."""
    gates, muls = [], 0
    for i in range(1, draw(st.integers(1, 16)) + 1):
        op = draw(st.sampled_from(("add", "sub", "mul") if muls < 6 else ("add", "sub")))
        muls += op == "mul"
        gates.append(Gate(op, draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))))
    sigma = draw(st.sampled_from(SIGMAS))
    inst = parse_instance(serialize_instance(compile_erm(Slp(Fraction(1), tuple(gates)), sigma, 0)))
    eid = draw(st.sampled_from([e.id for e in inst.network.edges]))
    coord = draw(st.sampled_from(("weight", "bias")))
    return inst, shifted(inst.theta_star, eid, coord, draw(st.sampled_from(DELTAS)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(paper_sized_shift())
def test_single_shift_at_the_papers_sizes_is_rejected(case):
    inst, theta = case
    ok, violated = check_zero_aux_loss(inst, theta)
    expected = ref_check(inst, theta)
    assert not ok and not expected[0]
    assert violated is expected[1]


@st.composite
def call_orders(draw):
    """A compiled or parsed instance under one of the three sigma, four theta
    (theta*, a single shift, a three-edge shift and theta* rebuilt from new
    pairs) and 3 to 8 calls on it, each a function, a theta and a cap."""
    n = draw(st.integers(1, 3))
    gates = tuple(
        Gate(draw(st.sampled_from(("add", "sub", "mul"))), draw(st.integers(0, i - 1)),
             draw(st.integers(0, i - 1)))
        for i in range(1, n + 1)
    )
    prog, sigma = Slp(Fraction(1), gates), draw(st.sampled_from(SIGMAS))
    if draw(st.booleans()):
        inst = compile_erm(prog, sigma, draw(st.integers(0, 3)))
    else:
        inst = compile_hinge_posslp(prog, sigma)
    if draw(st.booleans()):
        inst = parse_instance(serialize_instance(inst))
    theta, eids = inst.theta_star, [e.id for e in inst.network.edges]

    def shift(base, eid):
        coord = draw(st.sampled_from(("weight", "bias")))
        return shifted(base, eid, coord, draw(st.sampled_from(DELTAS)))

    multi = theta
    for eid in draw(st.permutations(eids))[:3]:
        multi = shift(multi, eid)
    thetas = (theta, shift(theta, draw(st.sampled_from(eids))), multi, same_values(theta))
    call = st.tuples(st.sampled_from(("check", "decide", "witness")), st.integers(0, 3),
                     st.sampled_from((2, 16, 1 << 20)))
    return inst, thetas, draw(st.lists(call, min_size=3, max_size=8))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call_orders())
def test_any_call_order_matches_reference(case):
    """An instance builds its certificate's index, theta* plan and record on
    whichever call comes first; every result equals the dense reference's.
    ``decide_at_theta_star`` runs at a theta by replacing theta*'s params."""
    inst, thetas, calls = case
    gamma, original = Fraction(inst.gap[0]), inst.theta_star.params

    def witness(theta, cap):
        verdict = verify_witness(inst, theta, gamma, (4, 2), cap)
        return verdict.verdict, verdict.loss

    for fn, k, cap in calls:
        theta = thetas[k]
        if fn == "check":
            expected = outcome(ref_check, inst, theta, cap)
            assert outcome(check_zero_aux_loss, inst, theta, cap) == expected
        elif fn == "decide":
            object.__setattr__(inst.theta_star, "params", theta.params)
            try:
                assert outcome(decide_at_theta_star, inst, cap) == outcome(ref_decide, inst, cap)
            finally:
                object.__setattr__(inst.theta_star, "params", original)
        else:
            expected = outcome(ref_loss, inst, theta, cap)
            if expected[0] == "ok":
                expected = ("ok", (ACCEPT if expected[1] <= gamma else REJECT_LOSS, expected[1]))
            assert outcome(witness, theta, cap) == expected
