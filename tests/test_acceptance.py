"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic checks are exact (zero tolerance); Monte-Carlo checks
allow three binomial standard errors of slack.  Each criterion carries
a wall-clock budget asserted inside the test; the conftest summary
prints one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

from bitnets.bench import depth_growth_experiment
from bitnets.instances import instance_size, serialize_theta
from bitnets.network import (
    Edge,
    LossSpec,
    Network,
    Sample,
    Theta,
    Vertex,
    forward,
    gradients,
    loss_total,
)
from bitnets.pac import RoundedMultiplierClass, make_pair, simulate_lower_bound
from bitnets.product_identity import (
    monomial,
    shifted_combination,
    solve_lambda,
    verify_product_identity,
)
from bitnets.pwl import (
    ACCEPT,
    REJECT_ENCODING,
    REJECT_LOSS,
    gd_step,
    relu,
    verify_witness,
)
from bitnets.reductions import (
    ErmInstance,
    backprop_gradient,
    check_zero_aux_loss,
    compile_backprop,
    compile_erm,
    compile_hinge_posslp,
    decide_at_theta_star,
)
from bitnets.slp import Gate, Slp, bit_of_slp, eval_slp, parse_slp
from cases import random_poly, random_pwl_network, region_safe_finite_difference

SQUARE = monomial(2)


def random_slp(rng: random.Random, n_gates: int) -> Slp:
    gates = []
    for i in range(1, n_gates + 1):
        gates.append(
            Gate(rng.choice(("add", "sub", "mul")), rng.randrange(i), rng.randrange(i))
        )
    return Slp(Fraction(1), tuple(gates))


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"


def test_criterion_01_lambda_paper_value():
    """solve_lambda(T^2) == (1/2, 0, 0) exactly, in under a second."""
    budget = Budget(1.0)
    lam = solve_lambda(SQUARE)
    assert lam.lambdas == (Fraction(1, 2), Fraction(0), Fraction(0))
    budget.check()


def test_criterion_02_lambda_generalization():
    """30 random degree-2..6 activations: 100 exact pairs each plus the
    symbolic reconstruction of U^2."""
    budget = Budget(30.0)
    rng = random.Random(202)
    for _ in range(30):
        sigma = random_poly(rng, rng.randint(2, 6))
        lam = solve_lambda(sigma)
        report = verify_product_identity(sigma, lam, trials=100, seed=rng.randrange(2**30))
        assert report.passed, report.message
        doubled = tuple(2 * x for x in lam.lambdas)
        assert shifted_combination(sigma, doubled) == monomial(2)
    budget.check()


def test_criterion_03_simulation_exactness():
    """50 random programs (<= 10 gates): the compiled network at theta*
    reproduces every gate value and the output equals n_P."""
    budget = Budget(60.0)
    rng = random.Random(203)
    for _ in range(50):
        p = random_slp(rng, rng.randint(1, 10))
        inst = compile_erm(p, SQUARE, j=0)
        trace = forward(inst.network, inst.theta_star, {"v0": p.constant})
        values = [p.constant]
        for g in p.gates:
            a, b = values[g.left], values[g.right]
            values.append(a + b if g.op == "add" else a - b if g.op == "sub" else a * b)
        for i, expected in enumerate(values):
            assert trace.values[f"v{i}"] == expected
        assert trace.values[inst.loss.target] == eval_slp(p).value
    budget.check()


def test_criterion_04_decision_equivalence():
    """decide_at_theta_star agrees with the brute-force bit oracle on 200
    (program, j) pairs covering both YES and NO."""
    budget = Budget(120.0)
    rng = random.Random(204)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        p = random_slp(rng, rng.randint(1, 7))
        value = eval_slp(p).value
        j = rng.randint(0, max(1, abs(value.numerator).bit_length()))
        inst = compile_erm(p, SQUARE, j=j)
        expected = bit_of_slp(p, j) == 1
        assert decide_at_theta_star(inst) is expected
        outcomes[expected] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0
    budget.check()


def test_criterion_05_forcing():
    """Every single-edge weight/bias perturbation from {+-1, +-1/2} of
    theta* flips check_zero_aux_loss to false on <= 3 gate instances."""
    budget = Budget(60.0)
    programs = [
        "const 1\nadd 0 0\n",
        "const 1\nmul 0 0\n",
        "const 1\nadd 0 0\nmul 1 1\n",
        "const 1\nmul 0 0\nsub 1 0\nmul 2 1\n",
    ]
    deltas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    for text in programs:
        inst = compile_erm(parse_slp(text), SQUARE, j=0)
        ok, _ = check_zero_aux_loss(inst, inst.theta_star)
        assert ok
        for e in inst.network.edges:
            w, b = inst.theta_star.params[e.id]
            for delta in deltas:
                for perturbed in (
                    inst.theta_star.with_param(e.id, weight=w + delta),
                    inst.theta_star.with_param(e.id, bias=b + delta),
                ):
                    flipped, violated = check_zero_aux_loss(inst, perturbed)
                    assert not flipped, f"undetected perturbation on {e.id}"
                    assert violated is not None
    budget.check()


def test_criterion_06_bounded_norm():
    """50 random programs (<= 10 gates): every normalized gate value lies
    in [-1, 1] and eval(Q) * 2**(m * 2**n) == n_P exactly."""
    budget = Budget(60.0)
    from bitnets.slp import normalize_bn

    rng = random.Random(206)
    for _ in range(50):
        p = random_slp(rng, rng.randint(1, 10))
        n_p = eval_slp(p).value
        result = normalize_bn(p)
        report = eval_slp(result.program)
        assert report.value * Fraction(2) ** result.scale_exponent == n_p
        values = [result.program.constant]
        for g in result.program.gates:
            a, b = values[g.left], values[g.right]
            v = a + b if g.op == "add" else a - b if g.op == "sub" else a * b
            values.append(v)
            assert -1 <= v <= 1
    budget.check()


def test_criterion_07_backprop_formula():
    """50 gradient instances: the distinguished coordinate equals
    copies * a0 * n_P and the exact central difference at h in {1, 1/7}."""
    budget = Budget(60.0)
    rng = random.Random(207)
    instances = []
    for k in range(50):
        p = random_slp(rng, rng.randint(1, 6))
        if k % 10 == 8:
            inst = compile_backprop(p, SQUARE, "sign", promise=rng.randint(1, 5))
        elif k % 10 == 9:
            inst = compile_backprop(
                random_slp(rng, rng.randint(1, 4)), SQUARE, "bit",
                bit_index=rng.randint(0, 6), a0_mode="bn-normalized",
            )
        else:
            inst = compile_backprop(p, SQUARE, "bit", bit_index=rng.randint(0, 6))
        instances.append(inst)

    for inst in instances:
        compiled = parse_slp(inst.provenance["slp"])
        n_p = eval_slp(compiled).value
        copies = inst.provenance["copies"]
        grad = backprop_gradient(inst)
        assert grad == copies * compiled.constant * n_p
        for h in (Fraction(1), Fraction(1, 7)):
            up = inst.theta_star.with_param(inst.edge_star, weight=h)
            down = inst.theta_star.with_param(inst.edge_star, weight=-h)
            lu = loss_total(inst.network, up, inst.dataset, inst.loss)
            ld = loss_total(inst.network, down, inst.dataset, inst.loss)
            assert (lu - ld) / (2 * h) == grad
    budget.check()


def test_criterion_08_hinge_variant():
    """Per-sample hinge loss at theta* is exactly 0 for positive outputs
    and at least 2 for zero or negative outputs."""
    positive = parse_slp("const 1\nadd 0 0\nmul 1 1\n")  # n_P = 4
    zero = parse_slp("const 1\nsub 0 0\n")  # n_P = 0
    negative = parse_slp("const 1\nadd 0 0\nsub 0 1\nmul 2 1\n")  # n_P = -2
    for program, expect_zero in ((positive, True), (zero, False), (negative, False)):
        copies = 3
        inst = compile_hinge_posslp(program, SQUARE, copies=copies)
        total = loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss)
        per_sample = total / copies
        if expect_zero:
            assert per_sample == 0
        else:
            assert per_sample >= 2


def test_criterion_09_pwl_engine():
    """100 random ReLU/leaky networks: gradients equal region-exact
    central differences; bit-lengths within c*N^2 and operation count
    within c'*n*|E| over the whole suite."""
    budget = Budget(120.0)
    rng = random.Random(209)
    spec = LossSpec("square", target="t")
    fd_checked = 0
    for _ in range(100):
        # inside the envelope suite: |E| <= 64, scalars <= 64 bits
        net, theta, data = random_pwl_network(
            rng, widths=(2, 4), samples=(1, 4), bound=2**63, denominators=(1, 3, 7, 11, 2**20))
        assert len(net.edges) <= 64

        report = gradients(net, theta, data, spec)
        eid = rng.choice(net.edges).id
        for coord in ("weight", "bias"):
            fd = region_safe_finite_difference(net, theta, data, spec, eid, coord, tries=200)
            if fd is None:
                continue
            table = report.weight_grad if coord == "weight" else report.bias_grad
            assert table[eid] == fd
            fd_checked += 1

        step = gd_step(net, theta, data, spec, Fraction(1, 64))
        inst = ErmInstance(net, theta, tuple(data), spec, (0, 1), {})
        n_bytes = instance_size(inst)
        n_samples = sum(s.count for s in data)
        assert step.max_bits <= 1 * n_bytes * n_bytes
        assert step.ops <= 32 * max(1, n_samples) * len(net.edges)
    assert fd_checked >= 150
    budget.check()


def test_criterion_10_witness_verifier():
    """Boundary cases for the loss threshold and the encoding bound."""
    net = Network(
        [Vertex("s", "source"), Vertex("t", "target", relu())],
        [Edge("e", "s", "t")],
    )
    theta = Theta({"e": (Fraction(1), Fraction(0))})
    data = (Sample({"s": Fraction(2)}, Fraction(1)),)  # pred 2, loss 1/2
    inst = ErmInstance(net, theta, data, LossSpec("square", target="t"), (0, 1), {})

    # loss boundary: gamma exactly at the loss accepts, just below rejects
    assert verify_witness(inst, theta, Fraction(1, 2)).verdict == ACCEPT
    assert verify_witness(inst, theta, Fraction(1, 2) - Fraction(1, 10**9)).verdict == REJECT_LOSS

    # encoding boundary under C = (4, 2): a numerator of 16*|I|^2 bits has
    # about 4.8*|I|^2 decimal digits, exceeding the 4*|I|^2 byte cap
    size = instance_size(inst)
    cap = 4 * size * size
    huge = Theta({"e": (Fraction((1 << (16 * size * size)) + 1, 3), Fraction(0))})
    verdict = verify_witness(inst, huge, Fraction(10**9), enc_bound=(4, 2))
    assert verdict.verdict == REJECT_ENCODING
    assert len(serialize_theta(huge)) > cap
    # theta* itself is far inside the bound
    assert len(serialize_theta(theta)) <= cap


def test_criterion_11_pac_bounds():
    """Pair invariants exact for q <= 12 x 200 bit strings; empirical
    failure rate >= floor - 3 sigma for (q, m) in {1,2,4,8} x {0,1,q,2q}
    with 20000 trials."""
    budget = Budget(300.0)
    rng = random.Random(211)
    for q in range(1, 13):
        cls = RoundedMultiplierClass(q)
        for _ in range(200):
            bits = [rng.randrange(2) for _ in range(2 * q - 1)]
            pair = make_pair(q, bits)
            l1, l2 = cls.labels(pair.c1), cls.labels(pair.c2)
            assert l1[:-1] == l2[:-1]
            assert l2[-1] - l1[-1] == Fraction(1, 1 << q)

    for q in (1, 2, 4, 8):
        for m in (0, 1, q, 2 * q):
            for learner in ("min", "random"):
                report = simulate_lower_bound(
                    q, m, trials=20000, learner=learner, seed=1000 * q + m
                )
                slack = 3 * report.stderr
                assert report.failure_rate >= float(report.floor) - slack, (
                    f"q={q} m={m} {learner}: {report.failure_rate} < "
                    f"{float(report.floor)} - {slack}"
                )
    budget.check()


def test_criterion_12_depth_growth_separation():
    """Square-activation first-layer gradient bit-length strictly
    dominates ReLU at depths 3..6; ReLU growth is at most linear over
    depths 1..64.  Magnitudes are not reproduced, only the ordering."""
    budget = Budget(120.0)
    depths = list(range(0, 7))
    square_rows = depth_growth_experiment(6, "square", seed=0, depths=depths)
    relu_rows = depth_growth_experiment(6, "relu", seed=0, depths=depths)
    for s, r in zip(square_rows, relu_rows):
        if 3 <= s.depth <= 6:
            assert s.grad_bitlen > r.grad_bitlen
    assert square_rows[0].grad_bitlen == relu_rows[0].grad_bitlen

    relu_sweep = depth_growth_experiment(64, "relu", seed=0, depths=list(range(1, 65)))
    for row in relu_sweep:
        assert row.grad_bitlen <= 400 * row.depth + 400
    budget.check()
