"""Seeded cases and checks that more than one test module uses.

Each builder draws from the ``rng`` it is given, in a fixed order, so a
seed gives the same case in every module that asks for it.
"""

import random
from fractions import Fraction

from bitnets.network import (
    Edge,
    IdentityActivation,
    Network,
    Sample,
    Theta,
    Vertex,
    forward,
    loss_total,
)
from bitnets.product_identity import RationalPoly
from bitnets.pwl import PwlActivation, leaky_relu, relu


def random_poly(rng: random.Random, degree: int) -> RationalPoly:
    """A polynomial of exactly ``degree``, small rational coefficients."""
    coeffs = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
    return RationalPoly(tuple(coeffs) + (lead,))


def random_pwl_network(rng: random.Random, widths=(1, 3), samples=(1, 3), bound=64,
                       denominators=(1, 3, 7, 11, 13)):
    """A layered net: ``width`` sources, one to three hidden layers of ``width``
    ReLU, leaky-ReLU or identity vertices, each fed by the whole layer before,
    and an identity target t fed by the last.  Every weight, bias, input and
    label is ``n / d`` with ``|n| <= bound`` and ``d`` from ``denominators``;
    ``widths`` and ``samples`` bound the width and the number of samples."""
    width = rng.randint(*widths)
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
    edges.extend(Edge(f"{tail}->t", tail, "t") for tail in prev)
    net = Network(vertices, edges)

    def scalar():
        return Fraction(rng.randint(-bound, bound), rng.choice(denominators))

    theta = Theta({e.id: (scalar(), scalar()) for e in edges})
    data = [
        Sample({f"s{i}": scalar() for i in range(width)}, scalar())
        for _ in range(rng.randint(*samples))
    ]
    return net, theta, data


def region_safe_finite_difference(net, theta, data, spec, edge_id, coord, tries=80):
    """Halve h, at most ``tries`` times from 1, until theta +- h*e keeps every
    preactivation strictly inside its current piece for every sample; then
    the central difference is exact.  None if no h did."""
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
    for _ in range(tries):
        current = theta.params[edge_id][coord == "bias"]
        up = theta.with_param(edge_id, **{coord: current + h})
        down = theta.with_param(edge_id, **{coord: current - h})
        if strictly_inside(up) and strictly_inside(down):
            return (loss_total(net, up, data, spec) - loss_total(net, down, data, spec)) / (2 * h)
        h /= 2
    return None
