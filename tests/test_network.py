"""Exact forward evaluation, losses, and reverse-mode gradients."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitnets.network
from bitnets.network import (
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    NonDifferentiableLoss,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
    _horner,
    forward,
    gradients,
    loss_total,
)
from bitnets.product_identity import RationalPoly, monomial
from bitnets.rationals import BitBudgetError

SQUARE = PolyActivation(monomial(2))
IDENTITY = IdentityActivation()


def single_edge(activation) -> tuple[Network, str]:
    net = Network(
        [Vertex("s", "source"), Vertex("t", "target", activation)],
        [Edge("e", "s", "t")],
    )
    return net, "e"


rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)
polys = st.builds(
    RationalPoly,
    st.lists(st.one_of(st.just(0), st.just(Fraction(0)), rationals), max_size=7).map(tuple),
)


class TestHorner:
    """``_horner`` takes the coefficients leading first, as ``lower()`` stores
    them, starts at the leading one and skips the zero ones."""

    @settings(max_examples=300, deadline=None)
    @given(polys, st.one_of(rationals, rationals.map(Fraction)))
    def test_value_and_type(self, poly, z):
        coeffs = tuple(c.numerator if c.denominator == 1 else c
                       for c in reversed(poly.coefficients))
        value = _horner(coeffs, z)
        expected = sum((c * Fraction(z) ** k for k, c in enumerate(poly.coefficients)), Fraction(0))
        assert value == expected
        assert type(value) is (int if expected.denominator == 1 else Fraction)
        assert PolyActivation(poly).lower()[0](z) == value

    @pytest.mark.parametrize("z", [0, 3, Fraction(-5, 2), Fraction(4)])
    def test_empty_and_zero_polynomials(self, z):
        assert RationalPoly((0, Fraction(0))).coefficients == ()
        assert _horner((), z) == 0 and type(_horner((), z)) is int
        assert _horner((0, 0), z) == 0 and type(_horner((Fraction(0), 0), z)) is int

    def test_leading_rational_and_negative(self):
        assert _horner((Fraction(-1, 3), 0, 0), Fraction(3, 2)) == Fraction(-3, 4)
        assert _horner((Fraction(2, 3), 0, Fraction(1, 3)), 1) == 1
        assert type(_horner((Fraction(2, 3), 0, Fraction(1, 3)), 1)) is int
        assert _horner((-2, 0, 1, 0), Fraction(1, 2)) == Fraction(1, 4)


class TestForward:
    def test_single_poly_edge(self):
        net, e = single_edge(SQUARE)
        theta = Theta({e: (Fraction(2), Fraction(1))})
        trace = forward(net, theta, {"s": Fraction(3)})
        assert trace.values["t"] == 49  # (2*3 + 1)^2

    def test_identity_chain_passthrough(self):
        depth = 6
        vertices = [Vertex("n0", "source")]
        edges = []
        for i in range(1, depth + 1):
            role = "target" if i == depth else "hidden"
            vertices.append(Vertex(f"n{i}", role, IDENTITY))
            edges.append(Edge(f"e{i}", f"n{i-1}", f"n{i}"))
        net = Network(vertices, edges)
        theta = Theta({e.id: (Fraction(1), Fraction(0)) for e in edges})
        q = Fraction(22, 7)
        assert forward(net, theta, {"n0": q}).values[f"n{depth}"] == q

    def test_input_injects_at_every_vertex(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        trace = forward(net, theta, {"s": Fraction(2), "t": Fraction(10)})
        assert trace.values["t"] == 12

    def test_unspecified_inputs_default_to_zero(self):
        net, e = single_edge(SQUARE)
        theta = Theta({e: (Fraction(1), Fraction(1))})
        assert forward(net, theta, {}).values["t"] == 1

    def test_parallel_edges_sum(self):
        net = Network(
            [Vertex("s", "source"), Vertex("t", "target", IDENTITY)],
            [Edge("e1", "s", "t"), Edge("e2", "s", "t")],
        )
        theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(-3), Fraction(2))})
        assert forward(net, theta, {"s": Fraction(5)}).values["t"] == 5 - 15 + 2

    def test_cycle_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                [
                    Vertex("a", "source"),
                    Vertex("b", "hidden", IDENTITY),
                    Vertex("c", "hidden", IDENTITY),
                ],
                [Edge("e1", "b", "c"), Edge("e2", "c", "b"), Edge("e0", "a", "b")],
            )

    def test_edge_into_source_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                [Vertex("a", "source"), Vertex("b", "source")],
                [Edge("e", "a", "b")],
            )

    def test_bit_budget(self):
        vertices = [Vertex("n0", "source")]
        edges = []
        for i in range(1, 12):
            vertices.append(Vertex(f"n{i:02d}", "hidden" if i < 11 else "target", SQUARE))
            edges.append(Edge(f"e{i:02d}", f"n{i-1:02d}" if i > 1 else "n0", f"n{i:02d}"))
        net = Network(vertices, edges)
        theta = Theta({e.id: (Fraction(3), Fraction(0)) for e in edges})
        with pytest.raises(BitBudgetError):
            forward(net, theta, {"n0": Fraction(12345)}, max_bits=256)

    def test_determinism(self):
        net, e = single_edge(SQUARE)
        theta = Theta({e: (Fraction(2, 3), Fraction(-1, 7))})
        x = {"s": Fraction(355, 113)}
        t1 = forward(net, theta, x)
        t2 = forward(net, theta, x)
        assert t1.values == t2.values
        assert t1.node_bits == t2.node_bits


class TestLoss:
    def test_square(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        spec = LossSpec("square", target="t")
        data = [Sample({"s": Fraction(3)}, Fraction(-1))]
        assert loss_total(net, theta, data, spec) == 8  # (3 - (-1))^2 / 2

    def test_hinge(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        spec = LossSpec("hinge", target="t")
        assert loss_total(net, theta, [Sample({"s": Fraction(5)}, Fraction(1))], spec) == 0
        assert loss_total(net, theta, [Sample({"s": Fraction(-1)}, Fraction(1))], spec) == 2

    def test_bit01_on_sixteen(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(16)}, {})]
        assert loss_total(net, theta, data, LossSpec("bit01", "t", 4)) == 0
        assert loss_total(net, theta, data, LossSpec("bit01", "t", 3)) == 1

    def test_vector_equality_by_flag(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(2), Fraction(0))})
        spec = LossSpec("bit01", "t", 0)
        good = Sample({"s": Fraction(1)}, {"s": Fraction(1), "t": Fraction(2)}, flag=0)
        bad = Sample({"s": Fraction(1)}, {"s": Fraction(1), "t": Fraction(3)}, flag=0)
        assert loss_total(net, theta, [good], spec) == 0
        assert loss_total(net, theta, [bad], spec) == 1

    def test_count_multiplies(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        spec = LossSpec("square", target="t")
        data = [Sample({"s": Fraction(3)}, Fraction(-1), count=5)]
        assert loss_total(net, theta, data, spec) == 40


class TestGradients:
    def test_single_identity_edge_formula(self):
        # square loss, sample (x=a0, y=-a0), w=0: d/dw = (w*n + a0)*n = a0*n
        net, e = single_edge(IDENTITY)
        a0, upstream = Fraction(1), Fraction(5)
        theta = Theta({e: (Fraction(0), Fraction(0))})
        spec = LossSpec("square", target="t")
        data = [Sample({"s": upstream}, -a0)]
        assert gradients(net, theta, data, spec).weight_grad[e] == a0 * upstream

    def test_empty_dataset_gives_zero(self):
        net, e = single_edge(SQUARE)
        theta = Theta({e: (Fraction(2), Fraction(1))})
        assert gradients(net, theta, [], LossSpec("square", target="t")).weight_grad[e] == 0

    def test_central_difference_exact_for_quadratic(self):
        # loss quadratic in the queried weight: central difference is exact
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(3, 7), Fraction(2))})
        spec = LossSpec("square", target="t")
        data = [Sample({"s": Fraction(4, 3)}, Fraction(5, 2))]
        grad = gradients(net, theta, data, spec).weight_grad[e]
        for h in (Fraction(1), Fraction(1, 7), Fraction(13, 5)):
            up = loss_total(net, theta.with_param(e, weight=theta.weight(e) + h), data, spec)
            down = loss_total(net, theta.with_param(e, weight=theta.weight(e) - h), data, spec)
            assert (up - down) / (2 * h) == grad

    def test_bias_gradient(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        spec = LossSpec("square", target="t")
        data = [Sample({"s": Fraction(3)}, Fraction(1))]
        # d/db (x + b - y)^2/2 = x + b - y = 2
        assert gradients(net, theta, data, spec).bias_grad[e] == 2

    def test_poly_chain_matches_hand_chain_rule(self):
        # s -> h (T^2) -> t (id): f = w2 * (w1 x + b1)^2 + b2
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("h", "hidden", SQUARE),
                Vertex("t", "target", IDENTITY),
            ],
            [Edge("e1", "s", "h"), Edge("e2", "h", "t")],
        )
        w1, b1, w2, b2 = Fraction(2), Fraction(1), Fraction(3), Fraction(0)
        theta = Theta({"e1": (w1, b1), "e2": (w2, b2)})
        x, y = Fraction(3), Fraction(5)
        spec = LossSpec("square", target="t")
        data = [Sample({"s": x}, y)]
        pred = w2 * (w1 * x + b1) ** 2 + b2
        expected_e1 = (pred - y) * w2 * 2 * (w1 * x + b1) * x
        assert gradients(net, theta, data, spec).weight_grad["e1"] == expected_e1

    def test_hinge_kink_reported_with_subgradient_zero(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        spec = LossSpec("hinge", target="t")
        data = [Sample({"s": Fraction(1)}, Fraction(1))]  # margin exactly 0
        report = gradients(net, theta, data, spec)
        assert report.weight_grad[e] == 0
        assert report.hinge_kinks == 1

    def test_bit01_rejected(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        with pytest.raises(NonDifferentiableLoss):
            gradients(net, theta, [Sample({"s": Fraction(1)}, {})], LossSpec("bit01", "t", 0))

    def test_auxiliary_samples_rejected(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(1)}, {"t": Fraction(1)}, flag=0)]
        with pytest.raises(NonDifferentiableLoss):
            gradients(net, theta, data, LossSpec("square", target="t"))

    @pytest.mark.parametrize("kind", ["square", "hinge"])
    def test_vector_label_rejected(self, kind):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(1)}, {"t": Fraction(1)})]
        with pytest.raises(NetworkError, match=f"^{kind} loss needs a scalar label$"):
            gradients(net, theta, data, LossSpec(kind, target="t"))

    def test_forward_bits_geometric_for_square_linear_for_identity(self):
        # weight-3 chains on a 128-bit input: squaring nodes double the
        # bit-length per layer, identity nodes add a constant per layer
        def chain_max_bits(act, depth):
            vertices = [Vertex("n00", "source")]
            edges = []
            for i in range(1, depth + 1):
                role = "target" if i == depth else "hidden"
                vertices.append(Vertex(f"n{i:02d}", role, act))
                edges.append(Edge(f"e{i:02d}", f"n{i-1:02d}", f"n{i:02d}"))
            net = Network(vertices, edges)
            theta = Theta({e.id: (Fraction(3), Fraction(0)) for e in edges})
            x = {"n00": Fraction((1 << 63) + 1, 1 << 63)}
            return forward(net, theta, x, max_bits=1 << 22).max_bits

        square_bits = [chain_max_bits(SQUARE, d) for d in range(1, 9)]
        for prev, cur in zip(square_bits, square_bits[1:]):
            assert cur >= Fraction(19, 10) * prev
        identity_bits = [chain_max_bits(IDENTITY, d) for d in (1, 16, 64)]
        beta = 128
        for d, bits in zip((1, 16, 64), identity_bits):
            assert bits <= beta + 4 * d

    def test_gradients_bit_for_bit_reproducible(self):
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("h", "hidden", SQUARE),
                Vertex("t", "target", IDENTITY),
            ],
            [Edge("e1", "s", "h"), Edge("e2", "h", "t")],
        )
        theta = Theta({"e1": (Fraction(2, 3), Fraction(1)), "e2": (Fraction(-5, 7), Fraction(0))})
        data = [Sample({"s": Fraction(9, 4)}, Fraction(1, 3))]
        spec = LossSpec("square", target="t")
        a = gradients(net, theta, data, spec)
        b = gradients(net, theta, data, spec)
        assert a.weight_grad == b.weight_grad
        assert a.bias_grad == b.bias_grad
        assert a.ops == b.ops and a.max_bits == b.max_bits

    def test_chain_rule_locality(self):
        # an input feeding only zero-adjoint vertices leaves the gradient alone
        net = Network(
            [
                Vertex("s", "source"),
                Vertex("h", "hidden", IDENTITY),
                Vertex("t", "target", IDENTITY),
                Vertex("dead", "hidden", IDENTITY),
            ],
            [Edge("e1", "s", "h"), Edge("e2", "h", "t"), Edge("e3", "s", "dead")],
        )
        theta = Theta({e: (Fraction(2), Fraction(0)) for e in ("e1", "e2", "e3")})
        spec = LossSpec("square", target="t")
        with_dead = [Sample({"s": Fraction(3), "dead": Fraction(99)}, Fraction(0))]
        without = [Sample({"s": Fraction(3)}, Fraction(0))]
        g1 = gradients(net, theta, with_dead, spec)
        g2 = gradients(net, theta, without, spec)
        assert g1.weight_grad["e1"] == g2.weight_grad["e1"]
        assert g1.weight_grad["e2"] == g2.weight_grad["e2"]


class TestValidationErrors:
    def test_vertex_role_and_activation_checks(self):
        with pytest.raises(NetworkError):
            Vertex("v", "widget", IDENTITY)
        with pytest.raises(NetworkError):
            Vertex("v", "source", IDENTITY)
        with pytest.raises(NetworkError):
            Vertex("v", "hidden", None)

    def test_vertex_rejects_an_activation_that_is_not_an_activation(self):
        # a kind name is not an Activation; forward would die on ``.eval``
        with pytest.raises(NetworkError) as err:
            Vertex("t", "target", "relu")
        assert err.value.where == "activation"

    def test_instance_needs_exactly_one_target(self):
        from bitnets.reductions import ErmInstance

        net = Network(
            [
                Vertex("s", "source"),
                Vertex("t1", "target", IDENTITY),
                Vertex("t2", "target", IDENTITY),
            ],
            [Edge("e1", "s", "t1"), Edge("e2", "s", "t2")],
        )
        theta = Theta({e: (Fraction(1), Fraction(0)) for e in ("e1", "e2")})
        data = (Sample({"s": Fraction(1)}, Fraction(0)),)
        with pytest.raises(NetworkError, match="^expected one target vertex") as err:
            ErmInstance(net, theta, data, LossSpec("square", target="t1"), (0, 1), {})
        assert err.value.where == "vertices"

    def test_theta_check_against(self):
        net, e = single_edge(IDENTITY)
        with pytest.raises(NetworkError):
            Theta({}).check_against(net)
        with pytest.raises(NetworkError):
            Theta({e: (Fraction(1), Fraction(0)), "ghost": (Fraction(1), Fraction(0))}).check_against(net)

    @pytest.mark.parametrize("params, message", [
        ({}, "missing parameters for edges ['e']"),
        ({"e": (Fraction(1), Fraction(0)), "ghost": (Fraction(1), Fraction(0))},
         "parameters for unknown edges ['ghost']"),
    ])
    def test_engine_rejects_theta_not_matching_edges(self, params, message):
        from bitnets.pwl import gd_step

        net, _ = single_edge(IDENTITY)
        theta = Theta(params)
        data = [Sample({"s": Fraction(1)}, Fraction(1))]
        spec = LossSpec("square", target="t")
        calls = [
            lambda: forward(net, theta, {"s": Fraction(1)}),
            lambda: loss_total(net, theta, data, spec),
            lambda: gradients(net, theta, data, spec),
            lambda: gd_step(net, theta, data, spec, Fraction(1, 2)),
        ]
        for call in calls:
            with pytest.raises(NetworkError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("call", ["loss_total", "gradients", "gd_step"])
    def test_loss_target_outside_the_network_is_located(self, call):
        from bitnets.pwl import gd_step

        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(1)}, Fraction(1))]
        spec = LossSpec("square", target="ghost")
        calls = {
            "loss_total": lambda: loss_total(net, theta, data, spec),
            "gradients": lambda: gradients(net, theta, data, spec),
            "gd_step": lambda: gd_step(net, theta, data, spec, Fraction(1, 2)),
        }
        with pytest.raises(NetworkError) as err:
            calls[call]()
        assert str(err.value) == "loss target 'ghost' is not a vertex of the network"
        assert err.value.where == "target"

    def test_loss_spec_rejects_non_integer_bit_index(self):
        for j in ("3", 1.5, True, Fraction(3)):
            with pytest.raises(NetworkError) as err:
                LossSpec("bit01", target="t", bit_index=j)
            assert "bit index must be an integer" in str(err.value)
        assert LossSpec("bit01", target="t", bit_index=-2).bit_index == -2

    def test_scalar_loss_rejects_vector_label(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        data = [Sample({"s": Fraction(1)}, {"t": Fraction(1)}, flag=1)]
        with pytest.raises(NetworkError):
            loss_total(net, theta, data, LossSpec("square", target="t"))

    def test_loss_spec_validation(self):
        with pytest.raises(NetworkError):
            LossSpec("absolute", target="t")
        with pytest.raises(NetworkError):
            LossSpec("square")
        with pytest.raises(NetworkError):
            LossSpec("bit01", target="t")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(NetworkError):
            Network([Vertex("a", "source"), Vertex("a", "source")], [])
        with pytest.raises(NetworkError):
            Network(
                [Vertex("a", "source"), Vertex("b", "target", IDENTITY)],
                [Edge("e", "a", "b"), Edge("e", "a", "b")],
            )
        with pytest.raises(NetworkError):
            Network([Vertex("a", "source")], [Edge("e", "a", "ghost")])


BAD_VALUES = {"str": "1/2", "float": 0.25, "bool": True}


def refused(call):
    """The message and ``where`` of the ``NetworkError`` ``call()`` raises."""
    with pytest.raises(NetworkError) as err:
        call()
    return str(err.value), err.value.where


class TestSampleValueRule:
    """A sample, a ``forward`` input and ``Theta.with_param`` take only ``int``
    and ``Fraction`` values (a ``bool`` neither); any other value is refused
    at its field, never read as a number."""

    @pytest.mark.parametrize("kind", BAD_VALUES)
    def test_refused_at_its_field(self, kind):
        value, half = BAD_VALUES[kind], Fraction(1, 2)
        message = f"expected an int or a Fraction, got {kind}"
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        calls = {
            "x.s": lambda: forward(net, theta, {"s": value}),
            "x.t": lambda: Sample({"s": half, "t": value}, value),
            "y": lambda: Sample({"s": half}, value),
            "y.t": lambda: Sample({"s": half}, {"t": value}, flag=0),
            "theta.e.w": lambda: theta.with_param(e, weight=value),
            "theta.e.b": lambda: theta.with_param(e, bias=value),
        }
        for where, call in calls.items():
            assert refused(call) == (message, where)

    def test_rational_values_pass(self):
        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))}).with_param(e, weight=3, bias=Fraction(1, 2))
        assert theta.params[e] == (3, Fraction(1, 2)) and type(theta.params[e][0]) is int
        assert forward(net, theta, {"s": 2}).values["t"] == Fraction(13, 2)
        data = [Sample({"s": Fraction(1, 2)}, 1)]
        assert loss_total(net, theta, data, LossSpec("square", target="t")) == Fraction(1, 2)


class TestLabelFaultsAreLocated:
    """A label that does not fit the loss is refused at ``dataset[i].y`` by
    every call that scores a raw dataset."""

    @pytest.mark.parametrize("fault", ["scalar", "vector"])
    def test_each_call(self, fault):
        from types import SimpleNamespace

        from bitnets.pwl import gd_step, verify_witness

        net, e = single_edge(IDENTITY)
        theta = Theta({e: (Fraction(1), Fraction(0))})
        good = Sample({"s": Fraction(1)}, Fraction(1))
        if fault == "scalar":  # a square-loss main sample with a vector label
            bad = Sample({"s": Fraction(1)}, {"t": Fraction(1)})
            message = "square loss needs a scalar label"
        else:  # an auxiliary sample with a scalar label
            bad = Sample({"s": Fraction(1)}, Fraction(1), flag=0)
            message = "equality-checked sample needs a vector label"
        data, spec = (good, bad), LossSpec("square", target="t")
        raw = SimpleNamespace(network=net, theta_star=theta, dataset=data, loss=spec, gap=(0, 1),
                              provenance={})
        calls = {
            "loss_total": lambda: loss_total(net, theta, data, spec),
            "verify_witness": lambda: verify_witness(raw, theta, Fraction(0)),
        }
        if fault == "scalar":  # gradients refuse an auxiliary sample before its label
            calls["gradients"] = lambda: gradients(net, theta, data, spec)
            calls["gd_step"] = lambda: gd_step(net, theta, data, spec, Fraction(1, 2))
        for call in calls.values():
            assert refused(call) == (message, "dataset[1].y")


def kahn_min(net: Network) -> tuple[str, ...]:
    """Kahn's algorithm, taking the smallest ready id with ``min`` each step."""
    pending = {v.id: len(net.in_edges[v.id]) for v in net.vertices}
    ready = {vid for vid, deg in pending.items() if deg == 0}
    order = []
    while ready:
        vid = min(ready)
        ready.remove(vid)
        order.append(vid)
        for e in net.edges:
            if e.tail == vid:
                pending[e.head] -= 1
                if pending[e.head] == 0:
                    ready.add(e.head)
    return tuple(order)


@st.composite
def dags(draw):
    """A DAG on short ids, many of them ready at once, with repeated edges:
    each edge runs forward in a drawn hidden order."""
    ids = draw(st.lists(st.text("ab0", min_size=1, max_size=3), min_size=1, max_size=14,
                        unique=True))
    rank = draw(st.permutations(ids))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40))
    edges = [
        Edge(f"e{k}", *sorted((u, v), key=rank.index))
        for k, (u, v) in enumerate(pairs) if u != v
    ]
    return Network([Vertex(vid, "hidden", IDENTITY) for vid in ids], edges)


class TestTopologicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(dags())
    def test_pops_the_smallest_ready_id(self, net):
        assert net.topo_order == kahn_min(net)


class TestSeam:
    """Each module of the package imports only public names of the others,
    and ``pwl`` reaches the certificate through ``network`` alone."""

    def test_no_module_imports_another_modules_private_name(self):
        faults = []
        for path in sorted(Path(bitnets.network.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    if not (node.level or module.startswith("bitnets")):
                        continue
                    names = [alias.name for alias in node.names]
                    faults += [f"{path.name}: {module} {n}" for n in names if n.startswith("_")]
                    if path.name == "pwl.py" and "reductions" in [*module.split("."), *names]:
                        faults.append(f"pwl.py: {module} {names}")
                elif isinstance(node, ast.Import) and path.name == "pwl.py":
                    faults += [f"pwl.py: {a.name}" for a in node.names if "reductions" in a.name]
        assert faults == []
