"""The auxiliary-sample certificate against the plain reference.

``check_zero_aux_loss``, ``decide_at_theta_star``, ``loss_total`` and
``verify_witness`` score auxiliary samples sparsely, by the certificate of
:mod:`bitnets.network`, and the compiler builds its auxiliary samples from
the same local equations.  :mod:`plain_reference` is the dense form: one
full pass per sample in dataset order, and a sweep over every vertex for
every sample's input.

One seeded sweep, :func:`drive`, runs the four calls over four axes:

- the instance family: compiled ``compile_erm``/``compile_hinge_posslp``
  programs under the three sigma, of 1 to 16 gates; parsed copies;
  auxiliary samples shuffled, main samples first or last; vectors read
  through ``with_fresh_reads``; theta* with one broken auxiliary label; and
  hand-built nets;
- the theta family: theta*, weight and bias shifts, multi-edge shifts on
  any three edges or on distinct heads, theta* rebuilt from new pairs
  (``same_values``), and theta*'s params replaced or changed in place after
  its plan is kept;
- the caps 2, 3, 5, 16, P*-1, P*, P*+3 and 2**20;
- the call order, drawn once per case and run twice.

Each call is compared against the reference's record of its theta, on the
instance, which keeps its certificate, and on a namespace copy, which
keeps nothing.  Each test below draws its cases from these families; the
hand-built nets pin their literals too.  The ``work`` fixture counts what
the certificate does.
"""

import dataclasses
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace
from typing import Mapping

import pytest

import bitnets.instances
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
    gradients,
    loss_total,
)
from bitnets.product_identity import RationalPoly, monomial
from bitnets.pwl import ACCEPT, REJECT_LOSS, gd_step, verify_witness
from bitnets.reductions import (
    ErmInstance,
    check_zero_aux_loss,
    compile_erm,
    compile_hinge_posslp,
    decide_at_theta_star,
)
from bitnets.slp import Gate, Slp, parse_slp

from plain_reference import (
    dense_stale,
    failing,
    outcome,
    ref_aux_samples,
    ref_check,
    ref_decide,
    ref_forward,
    ref_loss,
    ref_peak,
    resumed_pass,
)
from test_instances import with_fresh_reads
from test_slp import random_slp

SIGMAS = [
    monomial(2),
    monomial(3),
    RationalPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), Fraction(2))),
]
DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# instance family


def compiled(rng, n_max=4):
    p = random_slp(rng, rng.randint(1, n_max))
    sigma = rng.choice(SIGMAS[:2])
    gap = rng.choice([(0, 1), (1, 3), (0, 2)])
    if rng.random() < 0.3:
        return compile_hinge_posslp(p, sigma, copies=gap[1], low=gap[0])
    return compile_erm(p, sigma, rng.randint(0, 4), gap)


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
        inst = shuffled(rng, inst)
    return inst


def paper_sized(rng):
    """A parsed ``compile_erm`` file of 1 to 16 gates, at most 6 of them
    ``mul``, under one of the three sigma."""
    gates = []
    for i in range(1, rng.randint(1, 16) + 1):
        muls = sum(g.op == "mul" for g in gates)
        gates.append(Gate(rng.choice(("add", "sub", "mul") if muls < 6 else ("add", "sub")),
                          rng.randrange(i), rng.randrange(i)))
    inst = compile_erm(Slp(Fraction(1), tuple(gates)), rng.choice(SIGMAS), 0)
    return parse_instance(serialize_instance(inst))


def shuffled(rng, inst, main_first=False):
    """``inst`` with its auxiliary samples shuffled, its main ones last or first."""
    aux = [s for s in inst.dataset if s.flag == 0]
    rng.shuffle(aux)
    main = [s for s in inst.dataset if s.flag == 1]
    return dataclasses.replace(inst, dataset=tuple(main + aux if main_first else aux + main))


def namespace(inst):
    """The instance's fields on a plain object, which keeps no plan or index."""
    fields = ("network", "theta_star", "dataset", "loss", "gap", "provenance")
    return SimpleNamespace(**{f: getattr(inst, f) for f in fields})


# ---------------------------------------------------------------------------
# theta family


def shifted(theta, eid, coord, delta):
    w, b = theta.params[eid]
    return theta.with_param(eid, **{coord: (b if coord == "bias" else w) + delta})


def single_shifts(rng, inst, n_edges):
    """theta* and, on ``n_edges`` random edges, one weight and one bias shift."""
    theta = inst.theta_star
    return [theta] + [
        shifted(theta, eid, coord, rng.choice(DELTAS))
        for eid in rng.sample([e.id for e in inst.network.edges], n_edges)
        for coord in ("weight", "bias")
    ]


def same_values(theta):
    """theta with every pair a new tuple of equal values, integral ones as ``int``."""
    def new(q):
        return q.numerator if q.denominator == 1 else Fraction(q.numerator, q.denominator)
    return Theta({eid: (new(w), new(b)) for eid, (w, b) in theta.params.items()})


def distinct_heads(rng, inst, k):
    """``k`` random edges, no two into the same vertex."""
    by_head = {}
    for e in inst.network.edges:
        by_head.setdefault(e.head, []).append(e.id)
    return [rng.choice(by_head[v]) for v in rng.sample(sorted(by_head), min(k, len(by_head)))]


def multi_shift(rng, inst):
    """One shift on each of three random edges, two of which may share a head."""
    theta, eids = inst.theta_star, [e.id for e in inst.network.edges]
    for eid in rng.sample(eids, min(3, len(eids))):
        theta = shifted(theta, eid, rng.choice(("weight", "bias")), rng.choice(DELTAS))
    return theta


def reuse_cases(rng, inst):
    """theta*, weight and bias shifts on two random edges, a multi-edge
    shift and theta* rebuilt from new pairs."""
    return single_shifts(rng, inst, 2) + [multi_shift(rng, inst), same_values(inst.theta_star)]


@contextmanager
def theta_star_params(inst, theta):
    """``inst`` with theta*'s params replaced by theta's for the block."""
    original = inst.theta_star.params
    object.__setattr__(inst.theta_star, "params", theta.params)
    try:
        yield
    finally:
        object.__setattr__(inst.theta_star, "params", original)


def scored(inst, theta):
    """The reference's loss record at theta and the auxiliary samples that
    fail there, read off it."""
    loss = ref_loss(inst.network, theta, inst.dataset, inst.loss)
    return loss, failing(inst, loss)


# ---------------------------------------------------------------------------
# the sweep


def by_identity(result):
    """An ``outcome`` of a check with the returned sample replaced by its id."""
    if result[0] != "ok":
        return result
    ok, sample = result[1]
    return "ok", ok, id(sample)


def call(name, subject, theta, cap):
    """``name`` on ``subject`` at ``theta`` under ``cap``, as an ``outcome``;
    ``decide`` runs at theta by replacing theta*'s params."""
    if name == "check":
        return by_identity(outcome(check_zero_aux_loss, subject, theta, cap))
    if name == "decide":
        with theta_star_params(subject, theta):
            return outcome(decide_at_theta_star, subject, cap)
    if name == "loss_total":
        return outcome(loss_total, subject.network, theta, subject.dataset, subject.loss, cap)

    def witness():
        verdict = verify_witness(subject, theta, Fraction(subject.gap[0]), (4, 2), cap)
        return verdict.verdict, verdict.loss

    return outcome(witness)


def expected(name, record, cap, gamma):
    """What ``call(name, ...)`` gives under ``cap``, read off ``record``: the
    record at its theta of ``ref_check`` for a check, else of ``ref_loss``."""
    if name == "check":
        return by_identity(record.at(cap))
    result = record.at(cap)
    if result[0] != "ok" or name == "loss_total":
        return result
    if name == "decide":
        return "ok", result[1] <= gamma
    return "ok", (ACCEPT if result[1] <= gamma else REJECT_LOSS, result[1])


def drive(inst, thetas, caps=(), draw=None):
    """Every call at every theta of ``thetas`` and every cap, in one drawn
    order, against the reference: ``check`` and ``decide`` on ``inst`` and
    on its namespace copy, ``loss_total`` and the witness on ``inst``.  The
    caps are 2, 3, 5, 16, P*-1, P*, P*+3, 2**20 and ``caps``, with P* the
    dense peak at theta*; with ``draw``, only the first ``draw`` calls of
    the order run.  The order runs twice; the second time only the calls
    that read what ``inst`` keeps, since the others build their certificate
    anew.  The reference runs at most once per theta for the checks and
    once for the rest, when first needed; the order is seeded by the case."""
    copy, gamma = namespace(inst), Fraction(inst.gap[0])
    star = ref_peak(inst)
    caps = sorted({2, 3, 5, 16, star - 1, star, star + 3, 1 << 20, *caps})
    subjects = [("check", inst), ("check", copy), ("decide", inst), ("decide", copy),
                ("loss_total", inst), ("witness", inst)]
    cases = [(name, subject, k, cap) for name, subject in subjects
             for k in range(len(thetas)) for cap in caps]
    random.Random(repr((inst.network.topo_order, len(inst.dataset), len(thetas)))).shuffle(cases)
    cases = cases[:draw]
    kept = [case for case in cases if case[0] in ("check", "decide") and case[1] is inst]
    records = {}
    for name, subject, k, cap in cases + kept:
        key = (name == "check", k)
        if key not in records:
            records[key] = (ref_check(inst, thetas[k]) if key[0] else
                            ref_loss(inst.network, thetas[k], inst.dataset, inst.loss))
        assert call(name, subject, thetas[k], cap) == expected(name, records[key], cap, gamma), (
            name, subject is copy, k, cap)


class Work:
    """What the certificate did: the vertices each new plan lowered, the
    settles of each full or resumed pass, the full passes, and the local
    equations settled outside a pass."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.plans, self.passes, self.runs, self.local = [], [], 0, 0


@pytest.fixture
def work(monkeypatch):
    counts, in_pass = Work(), []
    Plan = bitnets.network.Plan
    init, lower, settle = Plan.__init__, Plan._lower, Plan.settle

    def counting_init(plan, *args):
        counts.plans.append([])
        init(plan, *args)

    def counting_lower(plan, net, vid, *args):
        counts.plans[-1].append(vid)
        return lower(plan, net, vid, *args)

    def counting_settle(plan, *args):
        if in_pass:
            counts.passes[-1] += 1
        else:
            counts.local += 1
        return settle(plan, *args)

    def counting(run, full):
        def counting_pass(plan, *args):
            counts.runs += full
            counts.passes.append(0)
            in_pass.append(True)
            try:
                return run(plan, *args)
            finally:
                in_pass.pop()
        return counting_pass

    monkeypatch.setattr(Plan, "__init__", counting_init)
    monkeypatch.setattr(Plan, "_lower", counting_lower)
    monkeypatch.setattr(Plan, "settle", counting_settle)
    monkeypatch.setattr(Plan, "run", counting(Plan.run, True))
    monkeypatch.setattr(Plan, "resume", counting(Plan.resume, False))
    return counts


# ---------------------------------------------------------------------------
# tests


class TestCompiledSamples:
    def test_bytes_match_dense_loop(self):
        """The compiled auxiliary samples equal the dense loop's; within one
        instance every auxiliary value is a ``Fraction`` and equal values are
        one object."""
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
                values = [
                    q for s in inst.dataset if s.flag == 0 for vector in (s.x, s.label)
                    for q in vector.values()
                ]
                assert {type(q) for q in values} == {Fraction}
                assert len({id(q) for q in values}) == len(set(values)) < len(values)


class TestTemporaryValues:
    """Sample vectors whose every read is a new value object: the index holds
    each object it lowered, so no later one takes its id."""

    def test_verdicts_match_reference(self):
        rng = random.Random(64)
        for _ in range(8):
            inst = compiled(rng)
            drive(with_fresh_reads(inst), single_shifts(rng, inst, 2))


class TestVerdicts:
    def test_theta_star_and_single_coordinate_shifts(self):
        rng = random.Random(61)
        for _ in range(12):
            inst = compiled(rng)
            drive(inst, single_shifts(rng, inst, 4))

    def test_parsed_copy_agrees_with_compiled(self):
        """A file round trip shares equal values by identity instead of by
        the compiler's baseline; verdicts, samples and errors stay the same."""
        rng = random.Random(64)
        for _ in range(10):
            inst = compiled(rng)
            shifts = [(eid, "weight", rng.choice(DELTAS))
                      for eid in rng.sample([e.id for e in inst.network.edges], 4)]
            for copy in (inst, parse_instance(serialize_instance(inst))):
                drive(copy, [copy.theta_star] + [shifted(copy.theta_star, *s) for s in shifts])

    def test_bit_budget_errors_at_small_caps(self):
        rng = random.Random(62)
        for _ in range(8):
            inst = compiled(rng, n_max=5)
            drive(inst, single_shifts(rng, inst, 2))

    def test_reordered_aux_samples(self):
        rng = random.Random(63)
        for _ in range(6):
            inst = compiled(rng)
            reordered = shuffled(rng, inst, main_first=rng.random() < 0.5)
            first = next(s for s in reordered.dataset if s.flag == 0)
            # shifting the weight out of a vertex that the first auxiliary
            # sample labels non-zero fails that sample, so the reference is
            # a later one
            eids = rng.sample([e.id for e in inst.network.edges], 2) + [
                e.id for e in inst.network.edges if first.label.get(e.tail, 0) != 0][:1]
            thetas = [reordered.theta_star]
            for eid in eids:
                thetas.append(shifted(inst.theta_star, eid, "weight", Fraction(1, 2)))
                thetas.append(shifted(inst.theta_star, eid, "bias", Fraction(-1)))
            drive(reordered, thetas)

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
        drive(inst, thetas)
        # loss: 2 + 7 for the wrong samples, (4 - 4)^2 / 2 for the main one
        assert decide_at_theta_star(inst) is True
        assert decide_at_theta_star(dataclasses.replace(inst, gap=(8, 9))) is False
        # a copy of the first sample after the reference equals it at every
        # vertex, so only the reference's own list shows it is wrong
        again = dataclasses.replace(dataset[0], count=11, note="wrong again")
        repeated = dataclasses.replace(inst, dataset=dataset + (again,), gap=(19, 20))
        assert loss_total(net, theta, repeated.dataset, repeated.loss) == 20
        assert decide_at_theta_star(repeated) is False
        drive(repeated, thetas)

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
        drive(inst, [theta])


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
                drive(copy, [copy.theta_star] + [shifted(copy.theta_star, *s) for s in shifts])

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
        drive(inst, [theta])

    def test_one_full_pass_per_main_sample_at_theta_star(self, work):
        """Past the reference, auxiliary samples that hold need no full pass."""
        rng = random.Random(66)
        for _ in range(4):
            inst = compiled(rng)
            n_main = sum(1 for s in inst.dataset if s.flag == 1)
            for copy in (inst, parse_instance(serialize_instance(inst))):
                work.clear()
                assert check_zero_aux_loss(copy, copy.theta_star) == (True, None)
                assert work.runs == 0
                work.clear()
                loss_total(copy.network, copy.theta_star, copy.dataset, copy.loss)
                assert work.runs == n_main


class TestKeptPlan:
    """An ``ErmInstance`` keeps its theta* plan; a plan of another theta
    reuses a vertex's entry only when its in-edge pairs are the kept tuples."""

    def test_matches_namespace_copy(self):
        rng = random.Random(68)
        for _ in range(8):
            inst = compiled(rng)
            drive(inst, reuse_cases(rng, inst))

    def test_parsed_and_reordered_copies_match_their_namespaces(self):
        rng = random.Random(69)
        for _ in range(4):
            inst = compiled(rng)
            parsed = parse_instance(serialize_instance(inst))
            drive(parsed, reuse_cases(rng, parsed))
            reordered = shuffled(rng, inst)
            drive(reordered, reuse_cases(rng, reordered))

    def test_theta_star_params_replaced_after_the_plan_is_kept(self):
        """``drive`` runs decide at each theta with theta*'s params replaced,
        here after the plan is kept, and checks a shift of the theta* the
        plan was kept for between those runs."""
        rng = random.Random(70)
        for _ in range(6):
            inst = compiled(rng)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            assert inst._cert.kept is not None
            drive(inst, reuse_cases(rng, inst))

    def test_theta_star_params_changed_in_place(self):
        rng = random.Random(71)
        for _ in range(4):
            inst = compiled(rng)
            assert decide_at_theta_star(inst) == ref_decide(inst).value
            params = inst.theta_star.params
            for eid in rng.sample(sorted(params), 2):
                w, b = params[eid]
                params[eid] = (w + rng.choice(DELTAS), b)
                drive(inst, [inst.theta_star])

    def test_lowers_only_the_heads_of_changed_pairs(self, work):
        rng = random.Random(72)
        inst = compiled(rng)
        net, theta = inst.network, inst.theta_star
        # the compiler's plan of theta* is the kept one, so theta* is lowered once
        decide_at_theta_star(inst)
        assert [len(vids) for vids in work.plans] == [len(net.vertices) - 1, 0]
        for e in rng.sample(net.edges, 4):
            work.clear()
            check_zero_aux_loss(inst, shifted(theta, e.id, "bias", Fraction(1)))
            assert work.plans == [[e.head]]
        work.clear()
        pair = rng.sample(net.edges, 2)
        check_zero_aux_loss(inst, shifted(shifted(theta, pair[0].id, "weight", Fraction(1)),
                                          pair[1].id, "weight", Fraction(1)))
        heads = {e.head for e in pair}
        assert work.plans == [[vid for vid in net.topo_order if vid in heads]]
        work.clear()
        check_zero_aux_loss(inst, same_values(theta))
        assert work.plans == [[vid for vid in net.topo_order if net.in_edges[vid]]]

    def test_namespace_copies_and_witnesses_lower_whole_plans(self, work):
        inst = parse_instance(serialize_instance(compiled(random.Random(73))))
        n = sum(1 for v in inst.network.vertices if v.activation is not None)
        decide_at_theta_star(namespace(inst))
        verify_witness(inst, inst.theta_star, Fraction(0))
        # the compiler's plan, then one whole plan each; a parsed copy keeps none
        assert [len(vids) for vids in work.plans] == [n, n, n]
        assert inst._cert.kept is None


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
            drive(inst, reuse_cases(rng, inst))

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
            drive(inst, [theta])

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
        drive(inst, [shift])
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
        drive(inst, [shift])

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
            drive(broken, single_shifts(rng, broken, 2))


class TestNarrowedCost:
    def test_single_edge_shift_checks_one_vertex_per_scanned_sample(self, work):
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
                    work.clear()
                    ok, violated = check_zero_aux_loss(inst, theta)
                    assert not ok
                    scanned = next(i for i, s in enumerate(aux) if s is violated) + 1
                    assert work.local <= scanned and len(work.passes) == 1

    def test_theta_star_after_the_first_check_reads_the_record(self, work):
        rng = random.Random(78)
        for trial in range(4):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            n_main = sum(1 for s in inst.dataset if s.flag == 1)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            expected = ref_decide(inst).value
            work.clear()
            assert decide_at_theta_star(inst) == expected
            assert (work.local, len(work.passes)) == (0, n_main)
            work.clear()
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            assert (work.local, len(work.passes)) == (0, 0)


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
            reordered = shuffled(rng, inst)
            aux = [s for s in reordered.dataset if s.flag == 0]
            assert check_zero_aux_loss(reordered, reordered.theta_star) == (True, None)
            star = reordered._cert.star
            thetas = []
            for e in inst.network.edges:
                if aux[0].label.get(e.tail, 0) == 0:
                    continue
                theta = shifted(reordered.theta_star, e.id, "weight", rng.choice(DELTAS))
                fails = scored(reordered, theta)[1]
                if not fails or fails[0] is not aux[0] or len(fails) == len(aux):
                    continue
                seen += 1
                thetas.append(theta)
            if thetas:
                drive(reordered, thetas, (star + 1, star + 2))
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
        drive(inst, [shift], range(2, 17))

    def test_errors_past_the_failing_vertex_on_compiled_instances(self):
        rng = random.Random(80)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            star = inst._cert.star
            drive(inst, single_shifts(rng, inst, 3), range(star, star + 6))

    def test_single_edge_shift_resumes_at_its_head(self, work):
        rng = random.Random(81)
        for trial in range(6):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            for e in rng.sample(inst.network.edges, min(4, len(inst.network.edges))):
                for coord in ("weight", "bias"):
                    theta = shifted(inst.theta_star, e.id, coord, rng.choice(DELTAS))
                    expected = ref_check(inst, theta).value
                    trace = ref_forward(inst.network, theta, expected[1].x)
                    start, settles = resumed_pass(inst, trace, expected[1], {e.head})
                    work.clear()
                    ok, violated = check_zero_aux_loss(inst, theta)
                    assert not ok and violated is expected[1]
                    assert start == e.head and work.passes == [settles]

    def test_narrowed_check_reads_only_listed_samples(self, work):
        rng = random.Random(82)
        for trial in range(8):
            inst = compiled(rng)
            if trial % 2:
                inst = parse_instance(serialize_instance(inst))
            for e in inst.network.edges:
                theta = shifted(inst.theta_star, e.id, "weight", rng.choice(DELTAS))
                assert_reads_listed(inst, theta, e.head, work)

    def test_shift_listed_in_no_later_sample_reads_the_reference_alone(self, work):
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
            assert assert_reads_listed(copy, shift, head, work) == local


def assert_reads_listed(inst, theta, head, work):
    """Under a record, ``decide_at_theta_star`` at a shift of theta* whose only
    changed vertex is ``head`` evaluates one local equation for each
    auxiliary sample up to the reference, then one for each later sample
    whose stale vertices include ``head``; ``check_zero_aux_loss`` does so up
    to the sample it returns.  Returns the count of the first, or None when
    the reference's own stale vertices include ``head``."""
    assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
    aux, stale = dense_stale(inst)
    loss, fails = scored(inst, theta)
    ref = next((k for k, s in enumerate(aux) if not any(s is f for f in fails)), None)
    if ref is None or head in stale[ref]:
        return None
    later = [k for k in range(ref + 1, len(aux)) if head in stale[k]]
    work.clear()
    with theta_star_params(inst, theta):
        assert decide_at_theta_star(inst) == (loss.value <= inst.gap[0])
    assert work.local == ref + 1 + len(later)
    local = work.local
    work.clear()
    ok, violated = check_zero_aux_loss(inst, theta)
    assert ok == (not fails) and violated is (fails[0] if fails else None)
    stop = next((k for k, s in enumerate(aux) if s is violated), len(aux))
    assert work.local == min(ref, stop) + 1 + sum(k <= stop for k in later)
    return local


class TestUnnarrowedResume:
    """Without a record, a sample up to the reference checks every vertex,
    and a failed check resumes the pass where it failed."""

    def test_bias_shift_resumes_at_its_head(self, work):
        """A bias shift that fails the first auxiliary sample resumes its pass
        at the edge's head, in ``check_zero_aux_loss`` and ``loss_total``."""
        rng = random.Random(83)
        slp = parse_slp("const 1\nadd 0 0\nmul 1 1\nadd 2 1\n")
        cases = [compile_erm(slp, monomial(2), 0)] + [compiled(rng) for _ in range(3)]
        seen = 0
        for inst in cases:
            copy, net, order = namespace(inst), inst.network, inst.network.topo_order
            aux = [s for s in inst.dataset if s.flag == 0]
            thetas = []
            for e in rng.sample(net.edges, 10):
                theta = shifted(inst.theta_star, e.id, "bias", rng.choice(DELTAS))
                loss, fails = scored(inst, theta)
                if not fails or fails[0] is not aux[0]:
                    continue
                seen += 1
                thetas.append(theta)
                resumed = len(order) - order.index(e.head)
                work.clear()
                ok, violated = check_zero_aux_loss(copy, theta)
                assert not ok and violated is aux[0]
                assert work.passes == [resumed]
                work.clear()
                assert loss_total(net, theta, inst.dataset, inst.loss) == loss.value
                assert work.passes == [
                    resumed if s.flag == 0 else len(order) for s in inst.dataset
                    if s.flag or any(s is f for f in fails)]
            drive(inst, thetas)
        assert seen >= 20


class TestNarrowedResume:
    """A violated sample's resumed pass settles only the rest of its check
    list and the vertices with a tail whose value moved off its label, and
    still raises the bit-budget error of a full pass.  Each count is derived
    from one plain full pass (``resumed_pass``); the check list is theta*'s
    changed vertex under the record, else every vertex up to the reference
    and, past it, the sample's stale vertices and the reference's."""

    def test_check_with_and_without_the_record(self, work):
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
                    check = ref_check(inst, theta)
                    ok, violated = check.value
                    assert not ok
                    k = next(j for j, s in enumerate(aux) if s is violated)
                    trace = ref_forward(inst.network, theta, violated.x)
                    peak = trace.peak
                    for cap in sorted({peak - 1, peak, peak + 1, star - 1, 1 << 20} - {0, 1}):
                        narrowed = cap >= star
                        # the reference is aux[0], whose stale list is empty
                        due = {e.head} if narrowed else stale[k] if k else set(order)
                        settles = resumed_pass(inst, trace, violated, due)[1]
                        expected = by_identity(check.at(cap))
                        work.clear()
                        assert by_identity(outcome(check_zero_aux_loss, inst, theta, cap)) == (
                            expected)
                        if expected[0] == "ok":
                            assert work.passes == [settles]
                            seen["narrowed" if narrowed else "unnarrowed"] += 1
                            seen["past the reference"] += bool(k) and not narrowed
        assert min(seen.values()) >= 5, seen

    def test_loss_total_keeps_no_record(self, work):
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
                case, (loss, fails) = inst, scored(inst, theta)
                if coord == "weight" and fails and rng.random() < 0.5:
                    front = rng.choice(fails)
                    case = dataclasses.replace(
                        inst, dataset=(front,) + tuple(s for s in inst.dataset if s is not front))
                    loss = ref_loss(net, theta, case.dataset, case.loss)
                aux, stale = dense_stale(case)
                counts, peak, ref = [], 2, None
                for sample in case.dataset:
                    if sample.flag:
                        counts.append(len(order))
                        continue
                    k = next(j for j, s in enumerate(aux) if s is sample)
                    if not any(s is sample for s in fails):
                        ref = k if ref is None else ref
                        continue
                    due = set(order) if ref is None else stale[k] | stale[ref]
                    trace = ref_forward(net, theta, sample.x)
                    counts.append(resumed_pass(case, trace, sample, due)[1])
                    peak = max(peak, trace.peak)
                    seen["up to the reference" if ref is None
                         else "past a later one" if ref else "past the first sample"] += 1
                for cap in (peak - 1, peak, 1 << 20):
                    expected = loss.at(cap)
                    work.clear()
                    assert outcome(loss_total, net, theta, case.dataset, case.loss, cap) == (
                        expected)
                    if expected[0] == "ok":
                        assert work.passes == counts
        assert min(seen.values()) >= 5, seen


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


BAD_VALUES = {"str": "1/2", "float": 0.5, "bool": True, "None": None}


def with_value(theta, eid, field, value):
    """theta with ``value`` in place of edge ``eid``'s weight (w) or bias (b)."""
    w, b = theta.params[eid]
    return Theta({**theta.params, eid: (value, b) if field == "w" else (w, value)})


def one_edge_calls(theta):
    """The engine entry points on s -> t (identity), theta on edge e."""
    net = Network([Vertex("s", "source"), Vertex("t", "target", IdentityActivation())],
                  [Edge("e", "s", "t")])
    data = [Sample({"s": Fraction(3)}, Fraction(1))]
    spec = LossSpec("square", target="t")
    return {
        "forward": lambda: forward(net, theta, {"s": Fraction(3)}),
        "gradients": lambda: gradients(net, theta, data, spec),
        "gd_step": lambda: gd_step(net, theta, data, spec, Fraction(1, 2)),
        "loss_total": lambda: loss_total(net, theta, data, spec),
    }


class TestThetaValueTypes:
    """A theta value that is not an ``int`` or a ``Fraction`` (a ``bool``
    neither) is refused by every entry point at ``theta.<edge id>.w`` or
    ``.b``, never read as a number; against a kept plan only the changed
    pairs are checked, by the same rule."""

    ONE_EDGE = ("forward", "gradients", "gd_step", "loss_total")
    CALLS = ONE_EDGE + ("check_zero_aux_loss kept", "check_zero_aux_loss namespace",
                        "verify_witness")

    @pytest.mark.parametrize("field", ("w", "b"))
    @pytest.mark.parametrize("kind", BAD_VALUES)
    @pytest.mark.parametrize("call", CALLS)
    def test_refused_at_its_field(self, call, kind, field, monkeypatch):
        value = BAD_VALUES[kind]
        message = f"expected an int or a Fraction, got {type(value).__name__}"
        if call in self.ONE_EDGE:
            theta = with_value(Theta({"e": (Fraction(1), Fraction(0))}), "e", field, value)
            assert located(one_edge_calls(theta)[call]) == (message, f"theta.e.{field}")
            return
        inst = compile_erm(parse_slp("const 1\nadd 0 0\nmul 1 1"), SIGMAS[0], 1)
        eid = inst.network.edges[0].id
        theta = with_value(inst.theta_star, eid, field, value)
        expected = (message, f"theta.{eid}.{field}")
        if call == "check_zero_aux_loss kept":
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            assert located(check_zero_aux_loss, inst, theta) == expected
        elif call == "check_zero_aux_loss namespace":
            assert located(check_zero_aux_loss, namespace(inst), theta) == expected
        else:
            measured = []
            monkeypatch.setattr(bitnets.instances, "theta_size", measured.append)
            assert located(verify_witness, inst, theta, Fraction(0)) == expected
            assert measured == []


class TestWitnessIsLossTotal:
    """``verify_witness``'s loss is ``loss_total`` on a certificate of its
    own: it reads nothing the instance keeps and adds nothing to it."""

    def test_loss_matches_and_the_instance_keeps_nothing_new(self):
        rng = random.Random(90)
        for _ in range(4):
            inst = compiled(rng)
            assert check_zero_aux_loss(inst, inst.theta_star) == (True, None)
            cert = inst._cert
            kept, star = cert.kept, cert.star
            assert star is not None
            parsed = parse_instance(serialize_instance(inst))
            for theta in single_shifts(rng, inst, 1)[:2]:
                loss = loss_total(inst.network, theta, inst.dataset, inst.loss)
                assert loss == ref_loss(inst.network, theta, inst.dataset, inst.loss).value
                for copy in (inst, parsed):
                    assert verify_witness(copy, theta, Fraction(inst.gap[0])).loss == loss
            assert inst._cert is cert and cert.kept is kept and cert.star == star
            assert "_cert" not in vars(parsed)


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
                assert got == ref_check(copy, theta).at(cap) == error
                assert outcome(decide_at_theta_star, copy, cap) == ref_decide(copy).at(cap)
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
        expected = ("network", "equality-checked sample needs a vector label", "dataset[1].y")
        assert outcome(check_zero_aux_loss, raw, raw.theta_star) == expected
        assert outcome(loss_total, raw.network, raw.theta_star, raw.dataset, raw.loss) == expected
        assert ref_decide(raw).at(1 << 20) == expected

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
        drive(copy, single_shifts(random.Random(67), inst, 2))
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


def small_program(rng):
    """A program of 1 to 3 gates."""
    return Slp(Fraction(1), tuple(Gate(rng.choice(("add", "sub", "mul")), rng.randrange(i),
                                       rng.randrange(i)) for i in range(1, rng.randint(1, 3) + 1)))


def test_single_shift_verdict_matches_reference():
    """One weight or bias shift, by up to 3 either way, of small compiled
    programs under T^2 and T^3."""
    rng = random.Random(86)
    for _ in range(40):
        inst = compile_erm(small_program(rng), rng.choice(SIGMAS[:2]), 0)
        eid = rng.choice([e.id for e in inst.network.edges])
        delta = rng.choice(DELTAS + (Fraction(3), Fraction(-1, 3)))
        drive(inst, [inst.theta_star, shifted(inst.theta_star, eid, rng.choice(("weight", "bias")),
                                              delta)])


def test_single_shift_at_the_papers_sizes_is_rejected():
    """The file and its namespace copy reject a single shift at the
    reference's sample; the first four files are driven through every call
    and cap."""
    rng = random.Random(87)
    for trial in range(40):
        inst = paper_sized(rng)
        eid = rng.choice([e.id for e in inst.network.edges])
        theta = shifted(inst.theta_star, eid, rng.choice(("weight", "bias")), rng.choice(DELTAS))
        ok, violated = ref_check(inst, theta).value
        assert not ok
        for subject in (inst, namespace(inst)):
            got = check_zero_aux_loss(subject, theta)
            assert got[0] is False and got[1] is violated
        if trial < 4:
            drive(inst, [theta])


def test_any_call_order_matches_reference():
    """An instance builds its certificate's index, theta* plan and record on
    whichever call comes first; ``drive`` draws that call and 2 to 7 more."""
    rng = random.Random(88)
    for _ in range(150):
        prog, sigma = small_program(rng), rng.choice(SIGMAS)
        if rng.random() < 0.5:
            inst = compile_erm(prog, sigma, rng.randint(0, 3))
        else:
            inst = compile_hinge_posslp(prog, sigma)
        if rng.random() < 0.5:
            inst = parse_instance(serialize_instance(inst))
        theta, eid = inst.theta_star, rng.choice([e.id for e in inst.network.edges])
        shift = shifted(theta, eid, rng.choice(("weight", "bias")), rng.choice(DELTAS))
        drive(inst, [theta, shift, multi_shift(rng, inst), same_values(theta)],
              draw=rng.randint(3, 8))
