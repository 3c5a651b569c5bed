"""A plain reference evaluator for the exact engine and its certificate.

The library lowers ``(network, theta)`` into an int-first plan, holds
every sum as an unreduced pair and scores auxiliary samples by local
equations (:mod:`bitnets.network`).  This module is the direct form that
``tests/test_engine_reference.py`` and ``tests/test_aux_certificate.py``
compare it against: a walk over dicts of ``Fraction`` in topological
order that adds every edge's ``w * f_u + b`` one at a time, the
reverse-mode loop over the same dicts, one full pass per sample in
dataset order, and a per-sample loss read straight off the values.  It
uses the library's data types, errors and activations, and none of its
evaluation code: it sums a polynomial and its derivative term by term and
calls no ``evaluate`` (``test_engine_reference.py::test_the_reference_stays_plain``
keeps that rule).  Like the library, it checks every label of a dataset
before its first pass.  Its errors carry the library's fields: a
``BitBudgetError``'s bits, cap and ``where``, and a ``NetworkError``'s text
and ``where``.

Each ``ref_*`` evaluator runs once per input, without a cap, and returns a
:class:`Record` of every bit check in order, as (bits, where), and of the
run's result or ``NetworkError``.  ``Record.at(cap)`` is the outcome at any
cap: the first check over it, else the uncapped result.  That is exact,
because a cap only stops a run, at its first check over the cap.
"""

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from bitnets.network import EvalTrace, GradientReport, NetworkError, PolyActivation, Sample
from bitnets.product_identity import RationalPoly
from bitnets.rationals import BitBudgetError


def bits(q):
    """The size of a reduced rational: numerator plus denominator bit length."""
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


class Record:
    """``run(check, *args)`` without a cap; ``check(q, where)`` records the
    bits of ``q`` and returns them."""

    def __init__(self, run, *args):
        self.checks = []
        self.value = self.error = None
        try:
            self.value = run(self.check, *args)
        except NetworkError as exc:
            self.error = ("network", str(exc), exc.where)

    def check(self, q, where):
        self.checks.append((bits(q), where))
        return self.checks[-1][0]

    @cached_property
    def peak(self):
        return max((b for b, _ in self.checks), default=1)

    def at(self, cap):
        """The outcome of the run under ``cap``, in the form of :func:`outcome`."""
        if cap < self.peak:
            for b, where in self.checks:
                if b > cap:
                    return ("bits", b, cap, where)
        return self.error or ("ok", plain(self.value))


def plain(result):
    """A result as plain data; every exact value a trace, a gradient report
    or a loss holds must be a ``Fraction``."""
    if isinstance(result, EvalTrace):
        assert all(type(q) is Fraction for q in [*result.values.values(),
                                                 *result.preactivations.values()])
        return ("trace", list(result.values.items()), list(result.preactivations.items()),
                list(result.node_bits.items()), result.max_bits, result.ops)
    if isinstance(result, GradientReport):
        assert all(type(q) is Fraction for q in [*result.weight_grad.values(),
                                                 *result.bias_grad.values()])
        return ("grad", list(result.weight_grad.items()), list(result.bias_grad.items()),
                result.hinge_kinks, result.max_bits, result.ops)
    assert type(result) is not int, f"{result!r} is an int, not a Fraction"
    return result


def outcome(fn, *args):
    """A call's result as plain data, or the fields of the error it raised."""
    try:
        return ("ok", plain(fn(*args)))
    except BitBudgetError as exc:
        return ("bits", exc.bits, exc.cap, exc.where)
    except NetworkError as exc:
        return ("network", str(exc), exc.where)


# ---------------------------------------------------------------------------
# evaluators


def _poly(coeffs, z):
    """The polynomial with ``coeffs``, constant first, at ``z``, summed term
    by term, ``c * z**k``, zero terms skipped."""
    return sum((c * Fraction(z)**k for k, c in enumerate(coeffs) if c), Fraction(0))


def _eval(act, z):
    """``act(z)``; a polynomial is summed term by term."""
    if isinstance(act, PolyActivation):
        return _poly(act.poly.coefficients, z)
    return act.eval(z)


def _slope(act, z):
    """``act``'s derivative at ``z``; a polynomial's is summed term by term,
    ``k * c * z**(k - 1)``."""
    if isinstance(act, PolyActivation):
        return _poly([k * c for k, c in enumerate(act.poly.coefficients)][1:], z)
    return act.derivative(z)


def _forward(check, net, theta, x):
    """One pass: each edge's ``w * f_u + b`` added to the vertex's input,
    zero terms skipped."""
    values, pre, node_bits, ops = {}, {}, {}, 0
    for vid in net.topo_order:
        act = net.vertex_map[vid].activation
        z = val = Fraction(x.get(vid, 0))
        if act is not None:
            for e in net.in_edges[vid]:
                w, b = theta.params[e.id]
                if w and values[e.tail]:
                    z += w * values[e.tail]
                if b:
                    z += b
                ops += 3
            check(z, f"preactivation {vid}")
            val = _eval(act, z)
            ops += 1
        values[vid], pre[vid] = val, z
        node_bits[vid] = check(val, f"vertex {vid}")
    return EvalTrace(values, pre, node_bits, max(node_bits.values(), default=1), ops)


def _check_labels(dataset, spec):
    """The first label that does not fit how ``spec`` scores its sample, in
    dataset order, raised before any pass: a vector when the sample is
    equality-checked, a scalar under square or hinge loss."""
    for i, sample in enumerate(dataset):
        vector = isinstance(sample.label, Mapping)
        if sample.flag == 0 or spec.kind == "vector-equality":
            if not vector:
                raise NetworkError("equality-checked sample needs a vector label",
                                   f"dataset[{i}].y")
        elif vector and spec.kind in ("square", "hinge"):
            raise NetworkError(f"{spec.kind} loss needs a scalar label", f"dataset[{i}].y")


def _sample_loss(net, spec, values, sample):
    """The one-copy loss of a sample whose label fits ``spec``."""
    label = sample.label
    if sample.flag == 0 or spec.kind == "vector-equality":
        return Fraction(any(values[vid] != label.get(vid, 0) for vid in net.vertex_map))
    pred = values[spec.target]
    if spec.kind == "square":
        return (pred - label) ** 2 / 2
    if spec.kind == "hinge":
        return max(Fraction(0), 1 - label * pred)
    u, v, j = abs(pred.numerator), pred.denominator, spec.bit_index  # bit01
    bit = (u // v) >> j if j >= 0 else (u << -j) // v
    return Fraction(1 - bit % 2)


def _loss(check, net, theta, dataset, spec):
    """The total in dataset order, the labels checked first; a failed
    auxiliary sample adds its count."""
    _check_labels(dataset, spec)
    total = Fraction(0)
    for i, s in enumerate(dataset):
        loss = _sample_loss(net, spec, _forward(check, net, theta, s.x).values, s)
        if s.flag:
            check(loss, f"loss of sample {i}")
        elif not loss:
            continue
        total += s.count * loss
        check(total, f"loss total after sample {i}")
    return total


def _check(check, inst, theta):
    """The first auxiliary sample off its label vector, by one pass each, the
    labels checked first."""
    _check_labels(inst.dataset, inst.loss)
    for s in inst.dataset:
        if s.flag == 0:
            values = _forward(check, inst.network, theta, s.x).values
            if _sample_loss(inst.network, inst.loss, values, s):
                return False, s
    return True, None


def _gradients(check, net, theta, dataset, spec):
    """The samples checked first, in dataset order: an auxiliary one is
    refused, as is a label before it that does not fit ``spec``.  Then per
    sample a pass and its adjoints; the sums are checked at the end."""
    aux = next((i for i, s in enumerate(dataset) if s.flag == 0), len(dataset))
    _check_labels(dataset[:aux], spec)
    if aux < len(dataset):
        raise NetworkError("auxiliary (flag 0) samples use the equality loss and have no gradient")
    wgrad = {e.id: Fraction(0) for e in net.edges}
    bgrad = {e.id: Fraction(0) for e in net.edges}
    kinks = peak = ops = 0
    for sample in dataset:
        trace = _forward(check, net, theta, sample.x)
        ops, peak = ops + trace.ops, max(peak, trace.max_bits)
        pred, y = trace.values[spec.target], Fraction(sample.label)
        if spec.kind == "square":
            seed, ops = pred - y, ops + 1
        else:
            margin, ops = 1 - y * pred, ops + 2
            kinks += margin == 0
            seed = -y if margin > 0 else Fraction(0)
        adjoint = {vid: Fraction(0) for vid in net.topo_order}
        adjoint[spec.target] = seed
        for vid in reversed(net.topo_order):
            vertex = net.vertex_map[vid]
            if adjoint[vid] == 0 or vertex.activation is None:
                continue
            delta = adjoint[vid] * _slope(vertex.activation, trace.preactivations[vid])
            ops += 2
            peak = max(peak, check(delta, f"adjoint {vid}"))
            for e in net.in_edges[vid]:
                wgrad[e.id] += sample.count * delta * trace.values[e.tail]
                bgrad[e.id] += sample.count * delta
                adjoint[e.tail] += delta * theta.params[e.id][0]
                ops += 6
    for e in net.edges:
        peak = max(peak, check(wgrad[e.id], f"weight gradient {e.id}"))
        check(bgrad[e.id], f"bias gradient {e.id}")
    return GradientReport(wgrad, bgrad, kinks, peak, ops)


def ref_forward(net, theta, x):
    """One forward pass: an ``EvalTrace``."""
    return Record(_forward, net, theta, x)


def ref_loss(net, theta, dataset, spec):
    """``loss_total``: one full pass per sample in dataset order; a main
    sample's one-copy loss and the total after each addition are checked."""
    return Record(_loss, net, theta, dataset, spec)


def ref_gradients(net, theta, dataset, spec):
    """``gradients``: a full pass per sample, then its adjoints in reverse
    topological order; the accumulators are checked after the last sample."""
    return Record(_gradients, net, theta, dataset, spec)


def ref_gd_step(net, theta, dataset, spec, eta):
    """``gd_step``: theta - eta * the reference gradients, in stdlib
    ``Fraction`` arithmetic, as the params dict, and the gradients' ops."""
    report = ref_gradients(net, theta, dataset, spec).value
    return {eid: (w - eta * report.weight_grad[eid], b - eta * report.bias_grad[eid])
            for eid, (w, b) in theta.params.items()}, report.ops


def ref_check(inst, theta):
    """``check_zero_aux_loss``: a full pass per auxiliary sample in dataset
    order, up to the first that does not reproduce its label vector."""
    return Record(_check, inst, theta)


def ref_decide(inst):
    """``decide_at_theta_star``: the loss at theta* against gap[0]."""
    return Record(lambda check: _loss(check, inst.network, inst.theta_star, inst.dataset,
                                      inst.loss) <= inst.gap[0])


def ref_peak(inst):
    """P*: the peak bits of the preactivations and values of a full pass of
    every auxiliary sample at theta*."""
    return Record(lambda check: [_forward(check, inst.network, inst.theta_star, s.x)
                                 for s in inst.dataset if s.flag == 0]).peak


# ---------------------------------------------------------------------------
# the certificate's derivations, each over every vertex


def ref_aux_samples(inst):
    """The compiler's auxiliary samples, each input computed over every vertex."""
    net, theta = inst.network, inst.theta_star
    sigma = RationalPoly.from_text(inst.provenance["sigma"])
    alpha1 = inst.provenance["alpha1"]
    is_sigma = {v.id: isinstance(v.activation, PolyActivation) for v in net.vertices}
    base_y = {v: _poly(sigma.coefficients, 0) if s else Fraction(0) for v, s in is_sigma.items()}

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
                y = {**base_y, e.tail: Fraction(tau), e.head: _poly(sigma.coefficients, tau)}
                pre = {e.tail: Fraction(tau), e.head: Fraction(tau)}
                samples.append(make(y, pre, f"sigma-edge {e.id} tau={tau}"))
        else:
            bump = _poly(sigma.coefficients, alpha1) if is_sigma[e.tail] else Fraction(1)
            y = {**base_y, e.tail: bump, e.head: theta.weight(e.id) * (bump - base_y[e.tail])}
            pre = {v: y[v] for v in net.vertex_map if not is_sigma[v]}
            pre[e.tail] = Fraction(alpha1) if is_sigma[e.tail] else bump
            samples.append(make(y, pre, f"id-edge {e.id}"))
    return samples


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


def failing(inst, loss):
    """The auxiliary samples that do not reproduce their label vector, read off
    ``loss``, the record of ``ref_loss`` on ``inst``'s dataset: each of them,
    and no other, adds to the total, which is then checked."""
    added = {where for _, where in loss.checks}
    return [s for i, s in enumerate(inst.dataset)
            if s.flag == 0 and f"loss total after sample {i}" in added]


def resumed_pass(inst, trace, sample, due):
    """Where ``sample``'s pass resumes and how many vertices it settles there,
    read off ``trace``, the record of its plain full pass: it resumes at the
    first vertex whose value is off its label and settles, from there on,
    every vertex in ``due`` and every vertex with a tail whose value is off
    its label."""
    net, order, values = inst.network, inst.network.topo_order, trace.value.values
    moved = {vid for vid in order if values[vid] != sample.label.get(vid, 0)}
    start = min(moved, key=order.index)
    rest = order[order.index(start):]
    return start, sum(
        vid in due or any(e.tail in moved for e in net.in_edges[vid]) for vid in rest)
