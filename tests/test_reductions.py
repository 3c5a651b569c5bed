"""Compilers from programs to ERM / gradient instances and their checkers."""

import hashlib
import random
from fractions import Fraction

import pytest

from bitnets.instances import serialize_instance
from bitnets.network import NetworkError, PolyActivation, forward, loss_total
from bitnets.product_identity import RationalPoly, monomial
from bitnets.rationals import bit_extract
from bitnets.reductions import (
    CompileError,
    backprop_gradient,
    check_zero_aux_loss,
    compile_backprop,
    compile_erm,
    compile_hinge_posslp,
    decide_at_theta_star,
    gadget_report,
)
from bitnets.slp import Slp, bit_of_slp, eval_slp, parse_slp, sign_of_slp

from test_slp import random_slp, squaring_chain

SQUARE = monomial(2)
CUBE = monomial(3)
SIGMAS = [
    SQUARE,
    CUBE,
    RationalPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), Fraction(2))),
]


class TestCompileErm:
    def test_sixteen_bit_four_zero_loss(self):
        inst = compile_erm(squaring_chain(3), SQUARE, j=4)
        assert loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss) == 0

    def test_sixteen_bit_three_loss_is_b(self):
        inst = compile_erm(squaring_chain(3), SQUARE, j=3, gap=(0, 1))
        assert loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss) == 1

    def test_gadget_carries_scaled_product(self):
        # upstream values 3 and 5: z vertex holds D*15, the gate vertex 15
        p = parse_slp("const 3\nadd 0 0\nsub 1 0\nmul 2 0\n")  # gates: 6, 3, wait
        p = Slp(Fraction(1), parse_slp("const 1\nadd 0 0\nadd 1 0\nmul 2 1\n").gates)
        # gate1 = 2, gate2 = 3, gate3 = 3*2 = 6; rebuild with values 3 and 5
        p = parse_slp(
            "const 1\n"
            "add 0 0\n"   # 2
            "add 1 0\n"   # 3
            "add 1 1\n"   # 4
            "add 3 0\n"   # 5
            "mul 2 4\n"   # 15
        )
        inst = compile_erm(p, SQUARE, j=0)
        d = inst.provenance["common_denominator"]
        trace = forward(inst.network, inst.theta_star, {"v0": Fraction(1)})
        assert trace.values["z5"] == d * 15
        assert trace.values["v5"] == 15

    def test_simulation_reproduces_every_gate(self):
        rng = random.Random(31)
        for _ in range(15):
            p = random_slp(rng, rng.randint(1, 8))
            sigma = rng.choice(SIGMAS)
            inst = compile_erm(p, sigma, j=0)
            trace = forward(inst.network, inst.theta_star, {"v0": p.constant})
            values = [p.constant]
            for g in p.gates:
                a, b = values[g.left], values[g.right]
                values.append(
                    a + b if g.op == "add" else a - b if g.op == "sub" else a * b
                )
            for i, expected in enumerate(values):
                assert trace.values[f"v{i}"] == expected

    def test_zero_aux_loss_at_theta_star(self):
        rng = random.Random(32)
        for _ in range(10):
            p = random_slp(rng, rng.randint(1, 6))
            inst = compile_erm(p, rng.choice(SIGMAS), j=rng.randint(0, 8))
            ok, violated = check_zero_aux_loss(inst, inst.theta_star)
            assert ok and violated is None

    def test_replication_counts(self):
        a, b = 2, 5
        inst = compile_erm(squaring_chain(2), SQUARE, j=1, gap=(a, b))
        for sample in inst.dataset:
            assert sample.count == (b if sample.flag else b + 1)
        mains = [s for s in inst.dataset if s.flag == 1]
        assert len(mains) == 1 and mains[0].count == b

    def test_gap_validation(self):
        with pytest.raises(NetworkError, match=r"^need naturals a < b, got \[1, 1\]$"):
            compile_erm(squaring_chain(2), SQUARE, j=0, gap=(1, 1))
        with pytest.raises(NetworkError, match=r"^need naturals a < b, got \[3, 2\]$"):
            compile_erm(squaring_chain(2), SQUARE, j=0, gap=(3, 2))

    def test_degree_one_rejected(self):
        with pytest.raises(Exception):
            compile_erm(squaring_chain(2), RationalPoly((0, 1)), j=0)


class TestDecide:
    def test_agrees_with_bit_oracle(self):
        rng = random.Random(33)
        seen = {True: 0, False: 0}
        for _ in range(25):
            p = random_slp(rng, rng.randint(1, 7))
            value = eval_slp(p).value
            j = rng.randint(0, max(1, abs(value.numerator).bit_length()))
            inst = compile_erm(p, SQUARE, j=j)
            expected = bit_of_slp(p, j) == 1
            assert decide_at_theta_star(inst) is expected
            seen[expected] += 1
        assert seen[True] and seen[False]

    def test_bit_zero_of_one(self):
        p = parse_slp("const 1\nadd 0 0\nsub 1 0\n")  # value 1
        assert decide_at_theta_star(compile_erm(p, SQUARE, j=0)) is True

    def test_main_loss_never_intermediate(self):
        rng = random.Random(34)
        for _ in range(10):
            p = random_slp(rng, rng.randint(1, 6))
            a, b = 0, rng.randint(1, 4)
            inst = compile_erm(p, SQUARE, j=rng.randint(0, 6), gap=(a, b))
            total = loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss)
            assert total in (0, b)


class TestForcing:
    def test_single_edge_perturbations_flip_the_check(self):
        rng = random.Random(35)
        deltas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
        for _ in range(3):
            p = random_slp(rng, rng.randint(1, 3))
            inst = compile_erm(p, SQUARE, j=0)
            for e in inst.network.edges:
                for delta in deltas:
                    for coord in ("weight", "bias"):
                        kw = {coord: inst.theta_star.params[e.id][coord == "bias"] + delta}
                        perturbed = inst.theta_star.with_param(e.id, **kw)
                        ok, violated = check_zero_aux_loss(inst, perturbed)
                        assert not ok, f"{coord} perturbation on {e.id} undetected"
                        assert violated is not None and violated.note

    def test_even_sigma_weight_flip_still_detected(self):
        # zero auxiliary loss implies the sigma-symmetry identity, not the
        # other way around: for even T^2 the flip w = -1 satisfies
        # sigma(-z) == sigma(z), so every tau sample for the flipped edge
        # passes, but the auxiliary inputs were built against theta*, so a
        # template driving the edge's tail to a nonzero value catches it
        p = parse_slp("const 1\nadd 0 0\nmul 1 1\n")
        inst = compile_erm(p, SQUARE, j=2)
        sigma_edges = [
            e
            for e in inst.network.edges
            if isinstance(inst.network.vertex_map[e.head].activation, PolyActivation)
        ]
        flipped = inst.theta_star.with_param(sigma_edges[0].id, weight=Fraction(-1))
        ok, violated = check_zero_aux_loss(inst, flipped)
        assert not ok
        assert "tau" not in violated.note  # the tau samples themselves pass

    def test_sigma_symmetry_reparameterization_fails_for_generic_sigma(self):
        # w = -1 on a sigma-edge: sigma(-z) != sigma(z) for T^3, caught by
        # one of the tau samples
        p = parse_slp("const 1\nmul 0 0\n")
        inst = compile_erm(p, CUBE, j=0)
        sigma_edges = [
            e.id
            for e in inst.network.edges
            if isinstance(inst.network.vertex_map[e.head].activation, PolyActivation)
        ]
        theta = inst.theta_star.with_param(sigma_edges[0], weight=Fraction(-1))
        ok, violated = check_zero_aux_loss(inst, theta)
        assert not ok
        assert "sigma-edge" in violated.note


class TestCompileBackprop:
    def test_gradient_is_copies_times_a0_times_value(self):
        p = parse_slp("const 1\nadd 0 0\n")  # n_P = 2
        inst = compile_backprop(p, SQUARE, "bit", bit_index=1)
        assert backprop_gradient(inst) == 2

    def test_zero_value_gives_zero_gradient(self):
        p = parse_slp("const 1\nsub 0 0\n")
        inst = compile_backprop(p, SQUARE, "bit", bit_index=0)
        assert backprop_gradient(inst) == 0

    def test_bit_variant_reads_gradient_bits(self):
        inst = compile_backprop(squaring_chain(3), SQUARE, "bit", bit_index=4)
        grad = backprop_gradient(inst)
        assert bit_extract(grad, inst.bit_index) == 1
        inst3 = compile_backprop(squaring_chain(3), SQUARE, "bit", bit_index=3)
        assert bit_extract(backprop_gradient(inst3), inst3.bit_index) == 0

    def test_sign_variant_promise(self):
        p = parse_slp("const 1\nadd 0 0\nmul 1 1\n")  # n_P = 4
        b = 3
        inst = compile_backprop(p, SQUARE, "sign", promise=b)
        grad = backprop_gradient(inst)
        assert grad == b * 4
        assert grad >= b  # YES side of the promise

    def test_formula_on_random_programs(self):
        rng = random.Random(36)
        for _ in range(10):
            p = random_slp(rng, rng.randint(1, 6))
            n_p = eval_slp(p).value
            inst = compile_backprop(p, rng.choice(SIGMAS), "bit", bit_index=0)
            assert backprop_gradient(inst) == n_p

    def test_bn_mode_shifts_bit_index(self):
        p = squaring_chain(3)  # n_P = 16
        inst = compile_backprop(p, SQUARE, "bit", bit_index=4, a0_mode="bn-normalized")
        shift = inst.provenance["bn_gate_count"] + inst.provenance["bn_scale_exponent"]
        assert inst.bit_index == 4 - shift
        grad = backprop_gradient(inst)
        assert grad == Fraction(16, 1 << shift)
        assert bit_extract(grad, inst.bit_index) == 1

    def test_bn_mode_node_values_bounded_by_sigma_constant(self):
        # bounded-norm compilation keeps every node value at theta* within a
        # constant depending only on the activation, not the program:
        # gate nodes lie in [-1,1], shifted sums in [-(2+mu), 2+mu], sigma
        # outputs and gadget sums within fixed multiples of those
        rng = random.Random(40)
        mu = SQUARE.degree
        lam_bound = 1  # |lambda'_r| for T^2
        u_bound = max(
            abs(SQUARE.evaluate(Fraction(s))) for s in range(-(2 + mu), 3 + mu)
        )
        z_bound = 3 * (mu + 1) * lam_bound * u_bound
        bound = max(Fraction(2 + mu), u_bound, z_bound)
        for _ in range(6):
            p = random_slp(rng, rng.randint(1, 8))
            inst = compile_backprop(p, SQUARE, "bit", bit_index=0, a0_mode="bn-normalized")
            trace = forward(
                inst.network, inst.theta_star, inst.dataset[0].x, max_bits=1 << 22
            )
            assert all(abs(v) <= bound for v in trace.values.values())

    def test_central_difference_exact(self):
        p = squaring_chain(2)
        inst = compile_backprop(p, SQUARE, "bit", bit_index=0)
        grad = backprop_gradient(inst)
        for h in (Fraction(1), Fraction(1, 7)):
            up = inst.theta_star.with_param(inst.edge_star, weight=h)
            down = inst.theta_star.with_param(inst.edge_star, weight=-h)
            lu = loss_total(inst.network, up, inst.dataset, inst.loss)
            ld = loss_total(inst.network, down, inst.dataset, inst.loss)
            assert (lu - ld) / (2 * h) == grad

    def test_variant_validation(self):
        p = squaring_chain(2)
        with pytest.raises(NetworkError, match="^sign variant needs an integer promise >= 1"):
            compile_backprop(p, SQUARE, "sign")  # missing promise
        with pytest.raises(NetworkError, match="^bit variant needs an integer bit index"):
            compile_backprop(p, SQUARE, "bit")  # missing bit index
        with pytest.raises(CompileError):
            compile_backprop(p, SQUARE, "sign", promise=2, a0_mode="bn-normalized")
        with pytest.raises(CompileError):
            compile_backprop(Slp(Fraction(2), p.gates), SQUARE, "bit", bit_index=0)


class TestHingeVariant:
    def test_positive_value_zero_loss(self):
        p = parse_slp("const 1\nadd 0 0\n")  # n_P = 2 -> n_Q = 3
        inst = compile_hinge_posslp(p, SQUARE, copies=1)
        assert loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss) == 0

    def test_zero_value_loss_two_per_sample(self):
        p = parse_slp("const 1\nsub 0 0\n")  # n_P = 0 -> n_Q = -1
        inst = compile_hinge_posslp(p, SQUARE, copies=1)
        assert loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss) == 2

    def test_negative_value(self):
        # n_P = -5 -> n_Q = -11, per-sample hinge 12
        p = parse_slp("const 1\nadd 0 0\nadd 1 1\nadd 2 0\nsub 0 3\n")
        assert eval_slp(p).value == -4
        p = parse_slp("const 1\nadd 0 0\nadd 1 1\nadd 2 0\nsub 0 3\nsub 4 0\n")
        assert eval_slp(p).value == -5
        inst = compile_hinge_posslp(p, SQUARE, copies=1)
        assert loss_total(inst.network, inst.theta_star, inst.dataset, inst.loss) == 12

    def test_network_computes_doubled_program(self):
        rng = random.Random(37)
        for _ in range(8):
            p = random_slp(rng, rng.randint(1, 5))
            n_p = eval_slp(p).value
            inst = compile_hinge_posslp(p, SQUARE, copies=2)
            trace = forward(inst.network, inst.theta_star, {"v0": Fraction(1)})
            assert trace.values[inst.loss.target] == 2 * n_p - 1

    def test_decision_matches_sign(self):
        rng = random.Random(38)
        seen = set()
        for _ in range(12):
            p = random_slp(rng, rng.randint(1, 5))
            inst = compile_hinge_posslp(p, SQUARE, copies=2)
            expected = sign_of_slp(p) > 0
            assert decide_at_theta_star(inst) is expected
            seen.add(expected)
        assert seen == {True, False}

    def test_zero_aux_loss_and_forcing(self):
        p = parse_slp("const 1\nmul 0 0\n")
        inst = compile_hinge_posslp(p, SQUARE, copies=1)
        ok, _ = check_zero_aux_loss(inst, inst.theta_star)
        assert ok
        eid = inst.network.edges[0].id
        ok, _ = check_zero_aux_loss(
            inst, inst.theta_star.with_param(eid, weight=Fraction(99))
        )
        assert not ok


class TestGadgetReport:
    def test_closed_form_counts(self):
        rng = random.Random(39)
        for _ in range(10):
            p = random_slp(rng, rng.randint(1, 7))
            sigma = rng.choice(SIGMAS)
            mu = sigma.degree
            inst = compile_erm(p, sigma, j=0, gap=(0, 2))
            report = gadget_report(inst)
            n_mul = sum(1 for g in p.gates if g.op == "mul")
            n_addsub = p.n_gates - n_mul
            assert report.mul_gates == n_mul
            assert report.vertices == (p.n_gates + 1) + n_mul * (6 * (mu + 1) + 1)
            assert report.edges == 2 * n_addsub + n_mul * (10 * (mu + 1) + 1)
            n_sigma_edges = 3 * (mu + 1) * n_mul
            n_id_edges = report.edges - n_sigma_edges
            expected_aux = 1 + n_id_edges + (mu + 1) * n_sigma_edges
            assert report.distinct_samples == expected_aux + 1
            assert report.sample_entries == 3 * expected_aux + 2

    def test_theta_bits_constant_in_program_size(self):
        # theta* entries depend only on sigma, not on the program length
        caps = set()
        for n in (2, 4, 8):
            inst = compile_erm(squaring_chain(n), CUBE, j=0)
            caps.add(gadget_report(inst).max_theta_bits)
        assert len(caps) == 1


class TestMoreValidation:
    def test_negative_bit_index_rejected_by_erm(self):
        with pytest.raises(CompileError):
            compile_erm(squaring_chain(2), SQUARE, j=-1)

    def test_gateless_program_rejected(self):
        empty = Slp(Fraction(1))
        for compile_empty in (
            lambda: compile_erm(empty, SQUARE, j=0),
            lambda: compile_backprop(empty, SQUARE, "sign", promise=1),
            lambda: compile_backprop(empty, SQUARE, "bit", bit_index=0, a0_mode="bn-normalized"),
        ):
            with pytest.raises(CompileError, match="^program must have at least one gate$"):
                compile_empty()

    def test_hinge_gap_validation(self):
        with pytest.raises(NetworkError, match=r"^need naturals a < b, got \[0, 0\]$"):
            compile_hinge_posslp(squaring_chain(2), SQUARE, copies=0)
        with pytest.raises(NetworkError, match=r"^need naturals a < b, got \[2, 2\]$"):
            compile_hinge_posslp(squaring_chain(2), SQUARE, copies=2, low=2)


class TestGoldenBytes:
    """The canonical bytes of compiled instances (|I|, the paper's size
    measure) are pinned by one digest over a small seeded corpus."""

    DIGEST = "a52fde66a28b24459522de22135203092a1e7c70b0aabe87ae199027e8c70fc0"

    def test_compiled_corpus_digest(self):
        rng = random.Random(8)
        digest = hashlib.sha256()
        # SIGMAS[2] has sigma(0) = 1/3 != 0
        for sigma in SIGMAS:
            for _ in range(3):
                p = random_slp(rng, rng.randint(1, 3))
                for inst in (
                    compile_erm(Slp(Fraction(-3, 2), p.gates), sigma, j=rng.randint(0, 3)),
                    compile_hinge_posslp(p, sigma, copies=2, low=1),
                    compile_backprop(p, sigma, "sign", promise=3),
                    compile_backprop(p, sigma, "bit", bit_index=2),
                    compile_backprop(p, sigma, "bit", bit_index=2, a0_mode="bn-normalized"),
                ):
                    digest.update(serialize_instance(inst))
        assert digest.hexdigest() == self.DIGEST
