"""Plain reference evaluator for the pwl-verify oracle.

Recomputes, without the library, what two gradient-descent steps and the
exact square loss must give on a layered net.  Activations follow the
library's conventions: a breakpoint takes the piece to its right, so the
derivative of ReLU and leaky ReLU at 0 is 1.
"""

from __future__ import annotations

from fractions import Fraction

LEAK = Fraction(1, 10)
ACTS = {
    "identity": (lambda z: z, lambda z: Fraction(1)),
    "relu": (lambda z: z if z >= 0 else Fraction(0), lambda z: Fraction(1 if z >= 0 else 0)),
    "leaky": (lambda z: z if z >= 0 else LEAK * z, lambda z: Fraction(1) if z >= 0 else LEAK),
}


def forward(net, theta, x):
    """Values and preactivations; ``net`` is (order, acts, in_edges)."""
    order, acts, in_edges = net
    val, pre = {}, {}
    for v in order:
        z = x.get(v, Fraction(0))
        for eid, tail in in_edges.get(v, ()):
            w, b = theta[eid]
            z += w * val[tail] + b
        pre[v] = z
        val[v] = ACTS[acts[v]][0](z) if v in acts else z
    return val, pre


def gd_step(net, theta, samples, target, eta):
    order, acts, in_edges = net
    wg = {eid: Fraction(0) for eid in theta}
    bg = dict(wg)
    for x, y in samples:
        val, pre = forward(net, theta, x)
        adj = {v: Fraction(0) for v in order}
        adj[target] = val[target] - y
        for v in reversed(order):
            if v not in acts or adj[v] == 0:
                continue
            delta = adj[v] * ACTS[acts[v]][1](pre[v])
            for eid, tail in in_edges[v]:
                wg[eid] += delta * val[tail]
                bg[eid] += delta
                adj[tail] += delta * theta[eid][0]
    return {eid: (w - eta * wg[eid], b - eta * bg[eid]) for eid, (w, b) in theta.items()}


def square_loss(net, theta, samples, target):
    total = Fraction(0)
    for x, y in samples:
        diff = forward(net, theta, x)[0][target] - y
        total += diff * diff / 2
    return total
