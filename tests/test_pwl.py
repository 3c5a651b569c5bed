"""Piecewise-linear evaluation, exact GD steps, witness verification."""

import random
from fractions import Fraction

import pytest

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
from bitnets.product_identity import monomial
from bitnets.pwl import (
    ACCEPT,
    REJECT_ENCODING,
    REJECT_LOSS,
    BitBoundedActivation,
    PwlActivation,
    gd_step,
    leaky_relu,
    relu,
    verify_witness,
)
from bitnets.reductions import ErmInstance


class TestPwlEval:
    def test_relu(self):
        act = relu()
        assert act.eval(Fraction(-3)) == 0
        assert act.eval(Fraction(7, 2)) == Fraction(7, 2)

    def test_leaky(self):
        act = leaky_relu(Fraction(1, 100))
        assert act.eval(Fraction(-2)) == Fraction(-1, 50)

    def test_breakpoint_takes_right_piece(self):
        assert relu().eval(Fraction(0)) == 0
        step = PwlActivation((Fraction(0),), ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))))
        assert step.eval(Fraction(0)) == 1  # right piece wins at the breakpoint

    def test_derivatives(self):
        act = relu()
        assert act.derivative(Fraction(5)) == 1
        assert act.derivative(Fraction(-5)) == 0
        assert act.derivative(Fraction(0)) == 1  # right-slope convention
        assert leaky_relu(Fraction(1, 100)).derivative(Fraction(-1)) == Fraction(1, 100)

    def test_int_arguments(self):
        act = leaky_relu(Fraction(1, 100))
        for z in (-7, -1, 0, 3):
            assert act.eval(z) == act.eval(Fraction(z))
            assert act.derivative(z) == act.derivative(Fraction(z))

    def test_left_slope_convention(self):
        act = PwlActivation(
            (Fraction(0),),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
            kink_slope="left",
        )
        assert act.derivative(Fraction(0)) == 0

    def test_breakpoints_must_increase(self):
        with pytest.raises(NetworkError):
            PwlActivation((Fraction(1), Fraction(0)), ((0, 0), (1, 0), (2, 0)))

    def test_many_pieces(self):
        act = PwlActivation(
            (Fraction(-1), Fraction(1)),
            ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        assert act.eval(Fraction(-2)) == -1
        assert act.eval(Fraction(1, 2)) == Fraction(1, 2)
        assert act.eval(Fraction(3)) == 1


class TestBitBounded:
    def test_rounds_identity(self):
        act = BitBoundedActivation(IdentityActivation(), bits=2)
        assert act.eval(Fraction(13, 10)) == Fraction(5, 4)
        assert act.derivative(Fraction(13, 10)) == 1

    def test_output_denominator_divides_2k(self):
        rng = random.Random(0)
        act = BitBoundedActivation(relu(), bits=5)
        for _ in range(200):
            z = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            out = act.eval(z)
            assert (1 << 5) % out.denominator == 0

    def test_clipping(self):
        act = BitBoundedActivation(
            IdentityActivation(), bits=3, clip=(Fraction(-1), Fraction(1))
        )
        assert act.eval(Fraction(5)) == 1
        assert act.eval(Fraction(-7)) == -1
        assert act.eval(Fraction(1, 3)) == Fraction(1, 4)  # floor(8/3)/8


def relu_diamond() -> tuple[Network, Theta]:
    net = Network(
        [
            Vertex("s", "source"),
            Vertex("h1", "hidden", relu()),
            Vertex("h2", "hidden", leaky_relu(Fraction(1, 10))),
            Vertex("t", "target", IdentityActivation()),
        ],
        [
            Edge("e1", "s", "h1"),
            Edge("e2", "s", "h2"),
            Edge("e3", "h1", "t"),
            Edge("e4", "h2", "t"),
        ],
    )
    theta = Theta(
        {
            "e1": (Fraction(2), Fraction(1)),
            "e2": (Fraction(-1), Fraction(1, 2)),
            "e3": (Fraction(3), Fraction(0)),
            "e4": (Fraction(1, 3), Fraction(-2)),
        }
    )
    return net, theta


class TestGdStep:
    def test_single_relu_hand(self):
        # w=1, b=0, sample (2, 0), eta=1/2: grad w = (2-0)*1*2 = 4, new w = -1
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("r", "hidden", relu()),
                Vertex("t", "target", IdentityActivation()),
            ],
            [Edge("e1", "s", "r"), Edge("e2", "r", "t")],
        )
        theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(2)}, Fraction(0))]
        report = gd_step(net, theta, data, LossSpec("square", target="t"), Fraction(1, 2))
        assert report.weight_grad["e1"] == 4
        assert report.theta.weight("e1") == -1

    def test_dead_region_leaves_theta_unchanged(self):
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("r", "hidden", relu()),
                Vertex("t", "target", IdentityActivation()),
            ],
            [Edge("e1", "s", "r"), Edge("e2", "r", "t")],
        )
        theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(-5)}, Fraction(0))]
        report = gd_step(net, theta, data, LossSpec("square", target="t"), Fraction(1, 2))
        assert all(g == 0 for g in report.weight_grad.values())
        assert report.theta == theta

    def test_bit_bounded_forward_and_declared_derivative(self):
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("b", "hidden", BitBoundedActivation(IdentityActivation(), bits=2)),
                Vertex("t", "target", IdentityActivation()),
            ],
            [Edge("e1", "s", "b"), Edge("e2", "b", "t")],
        )
        theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(1), Fraction(0))})
        trace = forward(net, theta, {"s": Fraction(13, 10)})
        assert trace.values["b"] == Fraction(5, 4)
        data = [Sample({"s": Fraction(13, 10)}, Fraction(0))]
        report = gd_step(net, theta, data, LossSpec("square", target="t"), Fraction(1))
        # derivative oracle is the identity's slope 1
        assert report.weight_grad["e1"] == Fraction(5, 4) * Fraction(13, 10)

    def test_polynomial_activation_rejected(self):
        net = Network(
            [Vertex("s", "source"), Vertex("t", "target", PolyActivation(monomial(2)))],
            [Edge("e", "s", "t")],
        )
        theta = Theta({"e": (Fraction(1), Fraction(0))})
        with pytest.raises(NetworkError, match="vertex t: activation kind 'poly' is outside"):
            gd_step(net, theta, [], LossSpec("square", target="t"), Fraction(1))

    def test_bit_bounded_poly_is_in_the_step_family(self):
        # the wrapper is the step family, whatever its base
        act = BitBoundedActivation(PolyActivation(monomial(2)), bits=4)
        net = Network([Vertex("s", "source"), Vertex("t", "target", act)], [Edge("e", "s", "t")])
        theta = Theta({"e": (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(3, 2)}, Fraction(0))]
        report = gd_step(net, theta, data, LossSpec("square", target="t"), Fraction(1))
        # value round(9/4, 4 bits) = 9/4, slope 2 * 3/2: dL/dw = 9/4 * 3 * 3/2
        assert report.weight_grad["e"] == Fraction(81, 8)
        assert not report.discontinuous

    def test_discontinuous_flagged(self):
        step_act = PwlActivation(
            (Fraction(0),), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
        )
        # a bit-bounded wrapper reports its base's continuity
        for act in (step_act, BitBoundedActivation(step_act, bits=3)):
            net = Network(
                [Vertex("s", "source"), Vertex("t", "target", act)],
                [Edge("e", "s", "t")],
            )
            theta = Theta({"e": (Fraction(1), Fraction(0))})
            report = gd_step(
                net, theta, [Sample({"s": Fraction(1)}, Fraction(0))],
                LossSpec("square", target="t"), Fraction(1),
            )
            assert report.discontinuous

    def test_update_formula(self):
        net, theta = relu_diamond()
        data = [
            Sample({"s": Fraction(2)}, Fraction(1)),
            Sample({"s": Fraction(-1, 3)}, Fraction(0)),
        ]
        eta = Fraction(1, 8)
        report = gd_step(net, theta, data, LossSpec("square", target="t"), eta)
        for eid in theta.params:
            w, b = theta.params[eid]
            assert report.theta.params[eid] == (
                w - eta * report.weight_grad[eid],
                b - eta * report.bias_grad[eid],
            )


def region_safe_finite_difference(net, theta, data, spec, edge_id, coord):
    """Shrink h until theta +- h*e keeps every preactivation strictly
    inside its current piece for every sample; then the central
    difference is exact."""
    base_traces = [forward(net, theta, s.x) for s in data]

    def strictly_inside(alt_theta) -> bool:
        for s, base in zip(data, base_traces):
            alt = forward(net, alt_theta, s.x)
            for v in net.vertices:
                act = v.activation
                if not isinstance(act, PwlActivation):
                    continue
                z0, z1 = base.preactivations[v.id], alt.preactivations[v.id]
                if act.piece_index(z0) != act.piece_index(z1):
                    return False
                if z0 in act.breakpoints or z1 in act.breakpoints:
                    return False
        return True

    h = Fraction(1)
    for _ in range(80):
        kw = {coord: theta.params[edge_id][coord == "bias"] + h}
        up = theta.with_param(edge_id, **kw)
        kw = {coord: theta.params[edge_id][coord == "bias"] - h}
        down = theta.with_param(edge_id, **kw)
        if strictly_inside(up) and strictly_inside(down):
            lu = loss_total(net, up, data, spec)
            ld = loss_total(net, down, data, spec)
            return (lu - ld) / (2 * h)
        h /= 2
    return None


def random_pwl_network(rng: random.Random):
    width = rng.randint(1, 3)
    depth = rng.randint(1, 3)
    acts = [relu(), leaky_relu(Fraction(1, 10)), IdentityActivation()]
    vertices = [Vertex(f"s{i}", "source") for i in range(width)]
    prev = [f"s{i}" for i in range(width)]
    edges = []
    for layer in range(1, depth + 1):
        cur = []
        for i in range(width):
            vid = f"h{layer}_{i}"
            vertices.append(Vertex(vid, "hidden", rng.choice(acts)))
            cur.append(vid)
            for tail in prev:
                edges.append(Edge(f"{tail}->{vid}", tail, vid))
        prev = cur
    vertices.append(Vertex("t", "target", IdentityActivation()))
    for tail in prev:
        edges.append(Edge(f"{tail}->t", tail, "t"))
    net = Network(vertices, edges)

    def scalar():
        return Fraction(rng.randint(-64, 64), rng.choice((1, 3, 7, 11, 13)))

    theta = Theta({e.id: (scalar(), scalar()) for e in edges})
    data = [
        Sample({f"s{i}": scalar() for i in range(width)}, scalar())
        for _ in range(rng.randint(1, 3))
    ]
    return net, theta, data


class TestRegionExactFiniteDifferences:
    def test_random_networks(self):
        rng = random.Random(91)
        spec = LossSpec("square", target="t")
        checked = 0
        for _ in range(25):
            net, theta, data = random_pwl_network(rng)
            report = gradients(net, theta, data, spec)
            eid = rng.choice(net.edges).id
            for coord in ("weight", "bias"):
                fd = region_safe_finite_difference(net, theta, data, spec, eid, coord)
                if fd is None:
                    continue
                table = report.weight_grad if coord == "weight" else report.bias_grad
                assert table[eid] == fd
                checked += 1
        assert checked >= 30


class TestCostEnvelopes:
    def test_op_count_linear_in_samples_times_edges(self):
        rng = random.Random(92)
        spec = LossSpec("square", target="t")
        for _ in range(10):
            net, theta, data = random_pwl_network(rng)
            report = gd_step(net, theta, data, spec, Fraction(1, 2))
            n = sum(s.count for s in data)
            assert report.ops <= 16 * max(1, n) * len(net.edges) + 8 * len(net.edges)

    def test_gd_step_is_gradients_plus_four_ops_per_edge(self):
        rng = random.Random(94)
        for kind in ("square", "hinge") * 5:
            net, theta, data = random_pwl_network(rng)
            spec = LossSpec(kind, target="t")
            step = gd_step(net, theta, data, spec, Fraction(1, 2))
            grads = gradients(net, theta, data, spec)
            assert step.weight_grad == grads.weight_grad
            assert step.bias_grad == grads.bias_grad
            assert step.hinge_kinks == grads.hinge_kinks
            assert step.max_bits == grads.max_bits
            assert step.ops == grads.ops + 4 * len(net.edges)

    def test_gd_step_cost_of_one_seeded_net(self):
        net, theta, data = random_pwl_network(random.Random(95))
        report = gd_step(net, theta, data, LossSpec("square", target="t"), Fraction(1, 2))
        assert (len(net.edges), sum(s.count for s in data)) == (30, 2)
        assert (report.ops, report.max_bits) == (722, 122)

    def test_bit_length_quadratic_envelope(self):
        rng = random.Random(93)
        spec = LossSpec("square", target="t")
        for _ in range(10):
            net, theta, data = random_pwl_network(rng)
            from bitnets.instances import serialize_instance
            from bitnets.reductions import ErmInstance as EI

            inst = EI(net, theta, tuple(data), spec, (0, 1), {})
            size = len(serialize_instance(inst))
            report = gd_step(net, theta, data, spec, Fraction(1, 2))
            assert report.max_bits <= 2 * size * size


def tiny_instance() -> ErmInstance:
    net = Network(
        [Vertex("s", "source"), Vertex("t", "target", relu())],
        [Edge("e", "s", "t")],
    )
    theta = Theta({"e": (Fraction(0), Fraction(0))})
    data = (Sample({"s": Fraction(1)}, Fraction(0)),)
    return ErmInstance(net, theta, data, LossSpec("square", target="t"), (0, 1), {})


class TestWitnessVerifier:
    def test_accepts_zero_witness(self):
        inst = tiny_instance()
        verdict = verify_witness(inst, inst.theta_star, Fraction(0))
        assert verdict.verdict == ACCEPT
        assert verdict.accepted and verdict.loss == 0

    def test_rejects_loss_above_gamma(self):
        inst = tiny_instance()
        theta = Theta({"e": (Fraction(5), Fraction(0))})  # pred 5, loss 25/2
        verdict = verify_witness(inst, theta, Fraction(1))
        assert verdict.verdict == REJECT_LOSS
        assert verdict.loss == Fraction(25, 2)

    def test_rejects_oversized_encoding(self):
        inst = tiny_instance()
        from bitnets.instances import instance_size

        size = instance_size(inst)
        # cap = C1 * |I|**C2 = |I| bytes; a ~4*|I|-bit numerator overflows it
        huge = Theta({"e": (Fraction((1 << (4 * size)) + 1, 3), Fraction(0))})
        verdict = verify_witness(inst, huge, Fraction(10**9), enc_bound=(1, 1))
        assert verdict.verdict == REJECT_ENCODING
        assert verdict.encoding_length > verdict.encoding_cap
        assert verdict.loss is None

    def test_boundary_of_loss_threshold(self):
        inst = tiny_instance()
        theta = Theta({"e": (Fraction(1), Fraction(0))})  # loss 1/2 exactly
        assert verify_witness(inst, theta, Fraction(1, 2)).accepted
        assert not verify_witness(inst, theta, Fraction(49, 100)).accepted
