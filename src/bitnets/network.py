"""Exact semantics of feedforward DAG networks.

A network is a DAG whose non-source vertices carry an activation; every
edge carries a trainable (weight, bias) pair.  Inputs are vectors over
*all* vertices and inject additively: a source vertex returns its input
coordinate, every other vertex v computes

    f_v = act_v( x_v + sum over in-edges (u,v) of (w_uv * f_u + b_uv) )

All arithmetic is exact over rationals, every pass records bit-lengths,
and reverse-mode differentiation returns exact partial derivatives.
Evaluation order is the cached topological order (ties broken by vertex
id) so traces are bit-for-bit reproducible.

One engine does all of it.  Each call lowers ``(network, theta)`` once
into a private plan: the vertices in topological order, each with its
in-edges as (tail, edge id, weight), the *sum* of its in-edge biases
and its activation's ``lower()``.  ``forward``, ``loss_total`` and
``gradients`` run every sample on that plan, and the compiler of
:mod:`bitnets.reductions` uses its local equation
``act_v(x_v + b_v + sum of w * y_u)`` and its inverse.  Inside the
engine a scalar is an ``int`` while it is integral and a ``Fraction``
only once a denominator appears; results leave it as ``Fraction``.
Bits are checked with :func:`bitnets.rationals.check_bits` on each
vertex's reduced preactivation and value, on every backpropagated
adjoint, on the gradient accumulators after the last sample, and on
each main sample's loss and the running loss total.  A plan never
outlives the call that made it.

Every activation is an :class:`Activation`: the engine, ``pwl.gd_step``
and the instance writer ask it for ``lower()``, ``step_family``,
``is_continuous`` and ``to_doc()`` rather than test its type.

Auxiliary samples are scored by a local-equation certificate rather
than one forward pass each.  A sample reproduces its label vector y iff
every vertex satisfies ``act_v(x_v + sum of (w * y_u + b)) == y_v``
(``x_v == y_v`` at a source) with the tails' labels substituted, by
induction over the topological order.  The first auxiliary sample that
passes a full forward pass is the reference.  Every other one shares
its local equation at each vertex where neither x, y nor a tail's y
differs, so only the remaining few vertices are checked, in
topological order and with the bit checks of a forward pass: on a
compiled instance, O(|E|·mu) exact arithmetic for all of them rather
than O(|samples|·|E|).  A sample that fails its local check gets a full
forward pass, which keeps verdicts and bit-budget errors exactly those
of the full passes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .product_identity import RationalPoly
from .rationals import DEFAULT_MAX_BITS, bit_extract, check_bits, format_rational

ROLE_SOURCE = "source"
ROLE_HIDDEN = "hidden"
ROLE_TARGET = "target"
ROLES = (ROLE_SOURCE, ROLE_HIDDEN, ROLE_TARGET)

LOSS_KINDS = ("square", "hinge", "bit01", "vector-equality")


class NetworkError(ValueError):
    """Structurally invalid network, parameters or dataset.

    ``where`` locates a fault within the raising call's arguments, such
    as ``edges[3].head``, ``edges`` for a cycle or a ``Vertex``'s
    ``role``; it is empty otherwise.
    """

    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(message)
        self.where = where


class NonDifferentiableLoss(NetworkError):
    """Gradient requested for a loss with no derivative in the prediction."""


class Activation:
    """Base of every activation: a ``kind``, and ``eval``/``derivative`` on an
    ``int`` or a ``Fraction``.  ``lower()`` is the int-first (eval, derivative)
    pair the engine runs, (None, None) for a pass-through; ``to_doc()`` is the
    canonical JSON object; ``step_family`` says whether ``pwl.gd_step`` may run
    it and ``is_continuous`` whether its pieces meet at every breakpoint."""

    step_family = True
    is_continuous = True

    def lower(self) -> tuple[Callable | None, Callable | None]:
        return (lambda z: _int_first(self.eval(z))), (lambda z: _int_first(self.derivative(z)))

    def to_doc(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class IdentityActivation(Activation):
    kind = "identity"

    def eval(self, z: Fraction) -> Fraction:
        return z

    def derivative(self, z: Fraction) -> Fraction:
        return Fraction(1)

    def lower(self) -> tuple[None, None]:
        return None, None


@dataclass(frozen=True)
class PolyActivation(Activation):
    """Polynomial activation with rational coefficients."""

    poly: RationalPoly
    kind = "poly"
    step_family = False

    def eval(self, z: Fraction) -> Fraction:
        return self.poly.evaluate(z)

    def derivative(self, z: Fraction) -> Fraction:
        return self._deriv.evaluate(z)

    @cached_property
    def _deriv(self) -> RationalPoly:
        return self.poly.derivative()

    def lower(self) -> tuple[Callable, Callable]:
        values = tuple(_int_first(c) for c in reversed(self.poly.coefficients))
        slopes = tuple(_int_first(c) for c in reversed(self._deriv.coefficients))
        return (lambda z: _horner(values, z)), (lambda z: _horner(slopes, z))

    def to_doc(self) -> dict:
        return {"kind": self.kind, "coeffs": [format_rational(c) for c in self.poly.coefficients]}


@dataclass(frozen=True)
class Vertex:
    id: str
    role: str
    activation: Activation | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise NetworkError(f"vertex {self.id}: unknown role {self.role!r}", "role")
        if self.role == ROLE_SOURCE:
            if self.activation is not None:
                raise NetworkError(f"source {self.id} must not carry an activation", "activation")
        elif self.activation is None:
            raise NetworkError(f"vertex {self.id}: missing activation", "activation")
        elif not isinstance(self.activation, Activation):
            raise NetworkError(f"vertex {self.id}: activation is not an Activation", "activation")


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


class Network:
    """Immutable DAG; vertices and edges are normalized to id order."""

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[Edge]) -> None:
        by_id = {}
        for i, v in enumerate(vertices):
            if v.id in by_id:
                raise NetworkError(f"duplicate vertex id {v.id!r}", f"vertices[{i}].id")
            by_id[v.id] = v
        self.vertices: tuple[Vertex, ...] = tuple(
            sorted(by_id.values(), key=lambda v: v.id)
        )
        self.vertex_map: dict[str, Vertex] = {v.id: v for v in self.vertices}

        edge_ids = set()
        for i, e in enumerate(edges):
            if e.id in edge_ids:
                raise NetworkError(f"duplicate edge id {e.id!r}", f"edges[{i}].id")
            edge_ids.add(e.id)
            for end, vid in (("tail", e.tail), ("head", e.head)):
                if vid not in by_id:
                    raise NetworkError(
                        f"edge {e.id!r} references unknown vertex {vid!r}", f"edges[{i}].{end}"
                    )
            if by_id[e.head].role == ROLE_SOURCE:
                raise NetworkError(
                    f"edge {e.id!r} points into source {e.head!r}", f"edges[{i}].head"
                )
        self.edges: tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self.edge_map: dict[str, Edge] = {e.id: e for e in self.edges}

        grouped: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            grouped[e.head].append(e)
        self.in_edges: dict[str, tuple[Edge, ...]] = {
            vid: tuple(es) for vid, es in grouped.items()
        }

        self.topo_order: tuple[str, ...] = self._toposort()
        self.targets: tuple[str, ...] = tuple(
            v.id for v in self.vertices if v.role == ROLE_TARGET
        )

    def _toposort(self) -> tuple[str, ...]:
        pending = {v.id: len(self.in_edges[v.id]) for v in self.vertices}
        out: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e.head)
        ready = sorted(vid for vid, deg in pending.items() if deg == 0)
        order: list[str] = []
        while ready:
            vid = ready.pop(0)
            order.append(vid)
            changed = False
            for succ in out[vid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self.vertices):
            raise NetworkError("network graph contains a cycle", "edges")
        return tuple(order)

    @cached_property
    def heads(self) -> dict[str, set[str]]:
        """The out-neighbours of every vertex, built on first use: only the
        auxiliary-sample certificate and the compiler read them."""
        heads: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for e in self.edges:
            heads[e.tail].add(e.head)
        return heads

    @property
    def single_target(self) -> str:
        if len(self.targets) != 1:
            raise NetworkError(f"expected one target vertex, have {self.targets}", "vertices")
        return self.targets[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Network)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))


@dataclass(frozen=True)
class Theta:
    """Per-edge (weight, bias) assignment, keyed by edge id."""

    params: Mapping[str, tuple[Fraction, Fraction]]

    def weight(self, edge_id: str) -> Fraction:
        return self.params[edge_id][0]

    def bias(self, edge_id: str) -> Fraction:
        return self.params[edge_id][1]

    def with_param(
        self,
        edge_id: str,
        weight: Fraction | None = None,
        bias: Fraction | None = None,
    ) -> "Theta":
        w, b = self.params[edge_id]
        updated = dict(self.params)
        updated[edge_id] = (
            w if weight is None else Fraction(weight),
            b if bias is None else Fraction(bias),
        )
        return Theta(updated)

    def check_against(self, net: Network) -> None:
        """Require exactly one (weight, bias) pair per edge of ``net``."""
        missing = [e.id for e in net.edges if e.id not in self.params]
        if missing:
            raise NetworkError(f"missing parameters for edges {missing}")
        if len(self.params) != len(net.edges):
            extra = sorted(self.params.keys() - net.edge_map.keys())
            raise NetworkError(f"parameters for unknown edges {extra}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Theta) and dict(self.params) == dict(other.params)


@dataclass(frozen=True)
class Sample:
    """One dataset entry; ``count`` encodes replicated copies.

    ``label`` is a scalar for square/hinge main samples and a sparse
    vector (vertex id -> value, zeros omitted) for equality-checked
    samples.  ``flag`` 1 marks a main sample, 0 an auxiliary one.
    """

    x: Mapping[str, Fraction]
    label: Fraction | Mapping[str, Fraction]
    flag: int = 1
    count: int = 1
    note: str = ""


@dataclass(frozen=True)
class LossSpec:
    """Per-sample loss semantics.

    Auxiliary samples (flag 0) are always scored by exact equality of
    the full output vector against the label vector.  Main samples
    (flag 1) use ``kind``: ``square`` is (pred - y)^2 / 2, ``hinge`` is
    max(0, 1 - y*pred), ``bit01`` is the indicator that bit ``bit_index``
    of the target's value is not 1, and ``vector-equality`` scores main
    samples like auxiliary ones.  A negative ``bit_index`` queries a
    fractional binary position (scaled instances shift bits below the
    binary point).
    """

    kind: str
    target: str | None = None
    bit_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise NetworkError(f"unknown loss kind {self.kind!r}")
        if self.kind in ("square", "hinge", "bit01") and self.target is None:
            raise NetworkError(f"loss {self.kind!r} needs a target vertex")
        if self.kind == "bit01" and self.bit_index is None:
            raise NetworkError("bit01 loss needs a bit index")
        if self.bit_index is not None and type(self.bit_index) is not int:
            raise NetworkError(f"bit index must be an integer, got {self.bit_index!r}")


@dataclass(frozen=True)
class EvalTrace:
    """Forward pass record: exact node values plus size instrumentation."""

    values: dict[str, Fraction]
    preactivations: dict[str, Fraction]
    node_bits: dict[str, int]
    max_bits: int
    ops: int


def _int_first(q) -> int | Fraction:
    """``q`` as an ``int`` when it is integral, else as a reduced ``Fraction``."""
    if type(q) is not int:
        if type(q) is not Fraction:
            q = Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


def _as_fraction(q: int | Fraction) -> Fraction:
    return q if type(q) is Fraction else Fraction(q)


def _horner(coeffs: tuple, z: int | Fraction) -> int | Fraction:
    acc = 0
    for c in coeffs:
        acc = acc * z + c
    return _int_first(acc)


class _Plan:
    """``(net, theta)`` lowered for one call of the exact engine.

    ``node[vid]`` is ``(ins, bias, act, slope, pre_where, where)``: the
    in-edges as (tail, edge id, weight), the sum of their biases, the
    activation and its derivative (None for identity), and the bit-check
    locations.  A source has no in-edges and no ``pre_where``.  ``ops``
    is the operation count of one forward pass.  ``theta`` must hold
    exactly the edges of ``net`` (:meth:`Theta.check_against`).
    """

    def __init__(self, net: Network, theta: Theta) -> None:
        theta.check_against(net)
        self.order = net.topo_order
        self.node: dict[str, tuple] = {}
        self.ops = 0
        lowered: dict[int, tuple] = {}
        for vid in self.order:
            vertex = net.vertex_map[vid]
            if vertex.activation is None:
                self.node[vid] = ((), 0, None, None, None, f"vertex {vid}")
                continue
            ins, bias = [], 0
            for e in net.in_edges[vid]:
                w, b = theta.params[e.id]
                ins.append((e.tail, e.id, _int_first(w)))
                if b:
                    bias += b
            key = id(vertex.activation)
            if key not in lowered:
                lowered[key] = vertex.activation.lower()
            act, slope = lowered[key]
            self.node[vid] = (
                tuple(ins), _int_first(bias), act, slope, f"preactivation {vid}", f"vertex {vid}"
            )
            self.ops += 3 * len(ins) + 1

    def inflow(self, vid: str, y: Mapping) -> int | Fraction:
        """``b_v + sum of w * y_u`` over v's in-edges, the tails read from ``y``
        (missing means 0).  ``x_v = pre_v - inflow`` inverts the local equation."""
        ins, z = self.node[vid][:2]
        for tail, _, w in ins:
            q = y.get(tail, 0)
            if type(q) is Fraction and q.denominator == 1:
                q = q.numerator
            z += w * q
        return z if type(z) is int else _int_first(z)

    def settle(self, vid: str, x_v, y: Mapping, max_bits: int) -> tuple:
        """(preactivation, value, value bits) of v's local equation
        ``act_v(x_v + inflow)`` with the tails at ``y``; a source is ``x_v``."""
        ins, _, act, _, pre_where, where = self.node[vid]
        z = x_v if type(x_v) is int else _int_first(x_v)
        if pre_where is None:
            return z, z, check_bits(z, max_bits, where)
        z += self.inflow(vid, y)
        if type(z) is not int:
            z = _int_first(z)
        check_bits(z, max_bits, pre_where)
        value = z if act is None else act(z)
        return z, value, check_bits(value, max_bits, where)

    def run(self, x: Mapping, max_bits: int) -> tuple[dict, dict, dict]:
        """One forward pass: values, preactivations and value bits by vertex,
        in topological order."""
        values: dict = {}
        pre: dict = {}
        bits: dict = {}
        settle = self.settle
        for vid in self.order:
            pre[vid], values[vid], bits[vid] = settle(vid, x.get(vid, 0), values, max_bits)
        return values, pre, bits


def forward(
    net: Network,
    theta: Theta,
    x: Mapping[str, Fraction],
    max_bits: int = DEFAULT_MAX_BITS,
) -> EvalTrace:
    """Exact forward evaluation in topological order."""
    plan = _Plan(net, theta)
    values, pre, bits = plan.run(x, max_bits)
    return EvalTrace(
        {vid: _as_fraction(q) for vid, q in values.items()},
        {vid: _as_fraction(q) for vid, q in pre.items()},
        bits,
        max(bits.values(), default=1),
        plan.ops,
    )


def _vector_matches(
    net: Network, values: Mapping[str, Fraction], label: Mapping[str, Fraction]
) -> bool:
    for v in net.vertices:
        if values[v.id] != label.get(v.id, 0):
            return False
    return True


def check_label(spec: LossSpec, sample: Sample) -> None:
    """Require a label that fits how ``spec`` scores ``sample``: a vector when
    the sample is equality-checked, a scalar under square or hinge loss."""
    vector = isinstance(sample.label, Mapping)
    if sample.flag == 0 or spec.kind == "vector-equality":
        if not vector:
            raise NetworkError("equality-checked sample needs a vector label")
    elif vector and spec.kind in ("square", "hinge"):
        raise NetworkError(f"{spec.kind} loss needs a scalar label")


def sample_loss(
    net: Network,
    spec: LossSpec,
    values: Mapping[str, Fraction],
    sample: Sample,
) -> Fraction:
    """Exact per-sample loss (one copy, ignoring ``count``)."""
    check_label(spec, sample)
    if sample.flag == 0 or spec.kind == "vector-equality":
        return Fraction(0 if _vector_matches(net, values, sample.label) else 1)
    pred = values[spec.target]
    if spec.kind == "square":
        diff = pred - Fraction(sample.label)
        return diff * diff / 2
    if spec.kind == "hinge":
        margin = 1 - Fraction(sample.label) * pred
        return margin if margin > 0 else Fraction(0)
    # bit01: zero loss exactly when the queried bit is 1
    return Fraction(0 if bit_extract(pred, spec.bit_index) == 1 else 1)


def _differing(a: Mapping[str, Fraction], b: Mapping[str, Fraction]) -> set[str]:
    """Coordinates where two sparse vectors differ.  Compiled samples share
    their unchanged entries with the baseline, so identity settles most."""
    out = set()
    for k in a.keys() | b.keys():
        p, q = a.get(k, 0), b.get(k, 0)
        if p is not q and p != q:
            out.add(k)
    return out


def _aux_verdicts(
    net: Network, spec: LossSpec, dataset: Sequence[Sample], plan: _Plan, max_bits: int
) -> Iterator[tuple[Sample, bool | None]]:
    """Yield every sample in dataset order with whether it reproduces its
    label vector under the plan's theta, by the certificate of the module
    docstring; main samples yield None and are not evaluated.  A sample
    whose label is not a vector gets a full forward pass, so its error is
    that of a full pass too.
    """
    ref: Sample | None = None
    position: dict[str, int] = {}

    def passes_local(sample: Sample) -> bool:
        x, y = sample.x, sample.label
        relabelled = _differing(y, ref.label)
        stale = _differing(x, ref.x) | relabelled
        stale = stale.union(*(net.heads[u] for u in relabelled if u in position))
        for vid in sorted((v for v in stale if v in position), key=position.__getitem__):
            if plan.settle(vid, x.get(vid, 0), y, max_bits)[1] != y.get(vid, 0):
                return False
        return True

    for sample in dataset:
        if sample.flag != 0:
            yield sample, None
        elif ref is not None and isinstance(sample.label, Mapping) and passes_local(sample):
            yield sample, True
        else:
            values = plan.run(sample.x, max_bits)[0]
            ok = sample_loss(net, spec, values, sample) == 0
            if ok and ref is None:
                ref = sample
                position = {vid: i for i, vid in enumerate(plan.order)}
            yield sample, ok


def loss_total(
    net: Network,
    theta: Theta,
    dataset: Sequence[Sample],
    spec: LossSpec,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Fraction:
    """Exact empirical loss, summed in dataset order.

    Each main sample gets a full forward pass; each auxiliary (flag 0)
    sample adds its ``count`` when the certificate of the module
    docstring finds it does not reproduce its label vector.  On a
    compiled instance that costs O(|E|·mu) exact arithmetic for all
    auxiliary samples, mu being sigma's degree.  The total and any
    bit-budget error are those of one full forward pass per sample.
    Each main sample's one-copy loss, and the running total after each
    addition to it, are checked against ``max_bits``.
    """
    plan = _Plan(net, theta)
    total = Fraction(0)
    for i, (sample, ok) in enumerate(_aux_verdicts(net, spec, dataset, plan, max_bits)):
        if ok is None:
            values = plan.run(sample.x, max_bits)[0]
            loss = sample_loss(net, spec, values, sample)
            check_bits(loss, max_bits, f"loss of sample {i}")
            total += sample.count * loss
        elif ok:
            continue
        else:
            total += sample.count
        check_bits(total, max_bits, f"loss total after sample {i}")
    return total


@dataclass(frozen=True)
class GradientReport:
    """Exact per-edge gradients of the empirical loss, as :func:`gradients`
    returns them; ``pwl.GdStepReport`` is this report plus the step.

    ``hinge_kinks`` counts samples whose margin sat exactly on the hinge
    kink; those contribute the subgradient value 0.
    """

    weight_grad: dict[str, Fraction]
    bias_grad: dict[str, Fraction]
    hinge_kinks: int
    max_bits: int
    ops: int


def gradients(
    net: Network,
    theta: Theta,
    dataset: Sequence[Sample],
    spec: LossSpec,
    max_bits: int = DEFAULT_MAX_BITS,
) -> GradientReport:
    """Exact reverse-mode gradients of the total loss for every edge.

    Only square and hinge losses are differentiable in the prediction;
    bit01 / vector-equality specs and auxiliary (flag 0) samples are
    rejected.  Adjoints propagate in reverse topological order.  After
    the last sample every accumulator is checked against ``max_bits``
    (weight then bias, edge by edge); the reported ``max_bits`` is the
    peak over vertex values, adjoints and weight gradients.
    """
    if spec.kind not in ("square", "hinge"):
        raise NonDifferentiableLoss(f"loss {spec.kind!r} has no gradient")
    plan = _Plan(net, theta)
    wgrad = {e.id: 0 for e in net.edges}
    bgrad = {e.id: 0 for e in net.edges}
    kinks = 0
    peak = 1
    ops = 0
    for sample in dataset:
        if sample.flag == 0:
            raise NonDifferentiableLoss(
                "auxiliary (flag 0) samples use the equality loss and have no gradient"
            )
        values, pre, bits = plan.run(sample.x, max_bits)
        ops += plan.ops
        peak = max(peak, max(bits.values(), default=1))

        target = spec.target
        pred = values[target]
        y = _int_first(sample.label)
        if spec.kind == "square":
            seed = pred - y
            ops += 1
        else:
            margin = 1 - y * pred
            ops += 2
            if margin > 0:
                seed = -y
            else:
                if margin == 0:
                    kinks += 1
                seed = 0

        scale = sample.count
        adjoint = dict.fromkeys(plan.order, 0)
        adjoint[target] = _int_first(seed)
        for vid in reversed(plan.order):
            a = adjoint[vid]
            if a == 0:
                continue
            ins, _, _, slope, pre_where, _ = plan.node[vid]
            if pre_where is None:
                continue
            delta = a if slope is None else _int_first(a * slope(pre[vid]))
            ops += 2
            peak = max(peak, check_bits(delta, max_bits, f"adjoint {vid}"))
            scaled = scale * delta
            for tail, eid, w in ins:
                wgrad[eid] += scaled * values[tail]
                bgrad[eid] += scaled
                adjoint[tail] += delta * w
                ops += 6
    for eid in wgrad:
        peak = max(peak, check_bits(wgrad[eid], max_bits, f"weight gradient {eid}"))
        check_bits(bgrad[eid], max_bits, f"bias gradient {eid}")
    return GradientReport(
        {eid: _as_fraction(g) for eid, g in wgrad.items()},
        {eid: _as_fraction(g) for eid, g in bgrad.items()},
        kinks,
        peak,
        ops,
    )

