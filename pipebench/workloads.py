"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (the library's
own input objects included, so work moved into them shows in set-up
time), hands out query inputs with ``item``, runs one timed query with
``query``, and checks the answer with ``check`` outside the timed region.
End-to-end runs set up ``setup_repeats`` times and report the median;
cheap set-ups repeat more often so that their median is steady.
``check`` returns the query's model cost (verdicts, sizes, operation
counts), which must not change when only speed changes; ``counts`` sums
those costs into the traced run's count metrics.

Every query within a workload has the same shape: mixing program sizes
makes the latency percentiles swing between identical runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import reference


class WrongAnswer(AssertionError):
    """The library's answer disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


COUNT_NAMES = (
    "instances.bytes",
    "network.edges",
    "reductions.aux_samples",
    "reductions.check_zero_aux_loss.violation_pos",
    "pwl.gd_step.ops",
    "pwl.gd_step.max_bits",
    "pwl.verify_witness.encoding_bytes",
)


def zero_counts() -> dict[str, int]:
    return dict.fromkeys(COUNT_NAMES, 0)


def random_program(rng: random.Random, n_gates: int, n_mul: int) -> tuple:
    """Constant-1 program with exactly ``n_mul`` mul gates and random wiring."""
    ops = ["mul"] * n_mul + [rng.choice(("add", "sub")) for _ in range(n_gates - n_mul)]
    rng.shuffle(ops)
    return tuple((op, rng.randrange(i), rng.randrange(i)) for i, op in enumerate(ops, start=1))


def program_text(gates: tuple) -> str:
    return "const 1\n" + "".join(f"{op} {a} {b}\n" for op, a, b in gates)


def program_value(gates: tuple) -> int:
    vals = [1]
    for op, a, b in gates:
        x, y = vals[a], vals[b]
        vals.append(x + y if op == "add" else x - y if op == "sub" else x * y)
    return vals[-1]


def aux_count(inst) -> int:
    return sum(1 for s in inst.dataset if s.flag == 0)


class ErmDecide:
    """Accept path on theta*: the CLI's compile -> file -> decide path."""

    name = "erm-decide"
    GATES, MULS = 8, 2
    POOL = 256
    window = 16
    setup_repeats = 15

    def __init__(self, workdir: Path) -> None:
        self.path = workdir / "erm-decide-instance.json"

    def setup(self, lib, seed, tr):
        rng = random.Random(seed)
        items = []
        for _ in range(self.POOL):
            gates = random_program(rng, self.GATES, self.MULS)
            j = rng.randint(0, max(1, abs(program_value(gates)).bit_length()))
            items.append((program_text(gates), gates, j))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(sigma=lib.product_identity.monomial(2), items=items)

    def item(self, lib, st, i):
        return st.items[i % len(st.items)]

    def query(self, lib, st, item, tr):
        text, _, j = item
        with tr.span("slp.parse_slp"):
            p = lib.slp.parse_slp(text)
        with tr.span("reductions.compile_erm"):
            inst = lib.reductions.compile_erm(p, st.sigma, j)
        with tr.span("instances.serialize_instance"):
            data = lib.instances.serialize_instance(inst)
        self.path.write_bytes(data)
        data = self.path.read_bytes()
        with tr.span("instances.parse_instance"):
            inst = lib.instances.parse_instance(data)
        with tr.span("reductions.check_zero_aux_loss"):
            ok, _ = lib.reductions.check_zero_aux_loss(inst, inst.theta_star)
        with tr.span("reductions.decide_at_theta_star"):
            yes = lib.reductions.decide_at_theta_star(inst)
        return ok, yes, len(data), inst

    def check(self, lib, st, item, out):
        _, gates, j = item
        ok, yes, size, inst = out
        expect(ok is True, "theta* violates an auxiliary sample")
        prog = lib.slp.Slp(Fraction(1), tuple(lib.slp.Gate(*g) for g in gates))
        expect(yes is (lib.slp.bit_of_slp(prog, j) == 1), f"decision differs from bit {j}")
        return [yes, size, len(inst.network.edges), aux_count(inst)]

    def counts(self, lib, st, costs):
        c = zero_counts()
        for _, size, edges, aux in costs:
            c["instances.bytes"] += size
            c["network.edges"] += edges
            c["reductions.aux_samples"] += aux
        return c


class Forcing:
    """Reject path: one single-edge weight shift of theta* per query."""

    name = "forcing"
    SIZES = ((3, 1), (4, 1), (5, 1), (6, 2), (7, 2))  # (gates, mul gates)
    COPIES = 4
    # Bias shifts are left out: the baseline sample catches them at once,
    # which makes the latency distribution bimodal.
    DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    window = 128
    setup_repeats = 5

    def setup(self, lib, seed, tr):
        rng = random.Random(seed)
        sigma = lib.product_identity.monomial(2)
        instances = []
        for _ in range(self.COPIES):
            for n, m in self.SIZES:
                with tr.span("slp.parse_slp"):
                    p = lib.slp.parse_slp(program_text(random_program(rng, n, m)))
                with tr.span("reductions.compile_erm"):
                    instances.append(lib.reductions.compile_erm(p, sigma, 0))
        return SimpleNamespace(
            instances=instances,
            edges=[tuple(e.id for e in inst.network.edges) for inst in instances],
            stream=random.Random(f"{seed}:forcing"),
        )

    def item(self, lib, st, i):
        k = i % len(st.instances)
        eid = st.stream.choice(st.edges[k])
        delta = st.stream.choice(self.DELTAS)
        theta = st.instances[k].theta_star
        return k, eid, delta, theta.with_param(eid, weight=theta.weight(eid) + delta)

    def query(self, lib, st, item, tr):
        with tr.span("reductions.check_zero_aux_loss"):
            return lib.reductions.check_zero_aux_loss(st.instances[item[0]], item[3])

    def check(self, lib, st, item, out):
        k, eid, delta, _ = item
        ok, violated = out
        expect(ok is False, f"shift {delta} on {eid} was not rejected")
        dataset = st.instances[k].dataset
        pos = next((i for i, s in enumerate(dataset) if s == violated), None)
        expect(pos is not None and violated.flag == 0, "violated sample is not an auxiliary sample")
        return [k, eid, str(delta), pos]

    def counts(self, lib, st, costs):
        c = zero_counts()
        for inst in st.instances:
            c["instances.bytes"] += lib.instances.instance_size(inst)
            c["network.edges"] += len(inst.network.edges)
            c["reductions.aux_samples"] += aux_count(inst)
        c["reductions.check_zero_aux_loss.violation_pos"] = sum(cost[3] for cost in costs)
        return c


class PwlVerify:
    """Gradient and witness path on fixed-shape piecewise-linear nets."""

    name = "pwl-verify"
    WIDTH, DEPTH, SAMPLES = 4, 3, 4
    DENOMS = (1, 3, 7, 11, 2**20)
    ETA = Fraction(1, 64)
    BELOW = Fraction(1, 10**9)
    ENC_BOUND = (4, 2)
    POOL = 256
    window = 32
    setup_repeats = 7

    def spec(self, rng):
        """One net as plain data: (order, acts, in_edges), theta, samples."""
        def scalar():
            return Fraction(rng.randint(-(2**63), 2**63), rng.choice(self.DENOMS))

        prev = [f"s{i}" for i in range(self.WIDTH)]
        order, acts, in_edges = list(prev), {}, {}
        for layer in range(1, self.DEPTH + 1):
            cur = [f"h{layer}_{i}" for i in range(self.WIDTH)]
            for v in cur:
                acts[v] = rng.choice(tuple(reference.ACTS))
                in_edges[v] = [(f"{u}->{v}", u) for u in prev]
            order += cur
            prev = cur
        acts["t"] = "identity"
        in_edges["t"] = [(f"{u}->t", u) for u in prev]
        order.append("t")
        theta = {eid: (scalar(), scalar()) for v in order[self.WIDTH:] for eid, _ in in_edges[v]}
        samples = [
            ({f"s{i}": scalar() for i in range(self.WIDTH)}, scalar())
            for _ in range(self.SAMPLES)
        ]
        return (order, acts, in_edges), theta, samples

    def build(self, lib, acts_by_name, loss, spec):
        (order, acts, in_edges), theta, samples = spec
        vertices = [
            lib.network.Vertex(v, "source") if v not in acts
            else lib.network.Vertex(v, "target" if v == "t" else "hidden", acts_by_name[acts[v]])
            for v in order
        ]
        edges = [lib.network.Edge(eid, u, v) for v, es in in_edges.items() for eid, u in es]
        net = lib.network.Network(vertices, edges)
        data = tuple(lib.network.Sample(x, y) for x, y in samples)
        return lib.reductions.ErmInstance(net, lib.network.Theta(theta), data, loss, (0, 1), {})

    def setup(self, lib, seed, tr):
        rng = random.Random(seed)
        acts_by_name = {
            "identity": lib.network.IdentityActivation(),
            "relu": lib.pwl.relu(),
            "leaky": lib.pwl.leaky_relu(reference.LEAK),
        }
        loss = lib.network.LossSpec("square", target="t")
        specs = [self.spec(rng) for _ in range(self.POOL)]
        return SimpleNamespace(
            specs=specs,
            instances=[self.build(lib, acts_by_name, loss, s) for s in specs],
        )

    def item(self, lib, st, i):
        """The net's index and its reference theta_2 and loss, made afresh.

        Nothing is kept between items, so the peak resident set does not
        grow with the number of queries a run gets through.
        """
        k = i % len(st.instances)
        net, theta, samples = st.specs[k]
        theta2 = reference.gd_step(net, theta, samples, "t", self.ETA)
        theta2 = reference.gd_step(net, theta2, samples, "t", self.ETA)
        return k, (theta2, reference.square_loss(net, theta2, samples, "t"))

    def query(self, lib, st, item, tr):
        inst = st.instances[item[0]]
        gamma = item[1][1]
        with tr.span("pwl.gd_step"):
            s1 = lib.pwl.gd_step(inst.network, inst.theta_star, inst.dataset, inst.loss, self.ETA)
        with tr.span("pwl.gd_step"):
            s2 = lib.pwl.gd_step(inst.network, s1.theta, inst.dataset, inst.loss, self.ETA)
        with tr.span("pwl.verify_witness.accept"):
            acc = lib.pwl.verify_witness(inst, s2.theta, gamma, self.ENC_BOUND)
        with tr.span("pwl.verify_witness.reject_loss"):
            low = lib.pwl.verify_witness(inst, s2.theta, gamma - self.BELOW, self.ENC_BOUND)
        # Tightest C1 with C2 = 1 that still rejects: C1 * |I| < |enc(theta)|.
        size = isqrt(acc.encoding_cap // self.ENC_BOUND[0])
        tight = ((acc.encoding_length - 1) // size, 1)
        with tr.span("pwl.verify_witness.reject_encoding"):
            enc = lib.pwl.verify_witness(inst, s2.theta, gamma, tight)
        return s1, s2, (acc, low, enc), size

    def check(self, lib, st, item, out):
        ref_theta, ref_loss = item[1]
        s1, s2, verdicts, size = out
        expect(dict(s2.theta.params) == ref_theta, "theta after two steps differs from the reference")
        got = tuple(v.verdict for v in verdicts)
        want = (lib.pwl.ACCEPT, lib.pwl.REJECT_LOSS, lib.pwl.REJECT_ENCODING)
        expect(got == want, f"verdicts {got}, expected {want}")
        expect(verdicts[0].loss == ref_loss, "witness loss differs from the reference")
        lengths = {v.encoding_length for v in verdicts}
        expect(len(lengths) == 1, f"encoding lengths disagree: {sorted(lengths)}")
        return [s1.ops, s2.ops, s1.max_bits, s2.max_bits, verdicts[0].encoding_length, size]

    def counts(self, lib, st, costs):
        c = zero_counts()
        edges = len(st.instances[0].network.edges)
        for ops1, ops2, bits1, bits2, enc, size in costs:
            c["instances.bytes"] += size
            c["network.edges"] += edges
            c["pwl.gd_step.ops"] += ops1 + ops2
            c["pwl.gd_step.max_bits"] += bits1 + bits2
            c["pwl.verify_witness.encoding_bytes"] += enc
        return c

