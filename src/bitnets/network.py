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
into a :class:`Plan`: the vertices in topological order, each with an
entry of four fields, ``(ins, bias, act, slope)``: its in-edges as
(tail, edge id, weight), the *sum* of its in-edge biases and its
activation's ``lower()`` pair (a source's ``ins`` is None).  A bit
check's ``where`` (``preactivation v``, ``vertex v``) is formatted only
when it raises.  ``Plan.run`` is one full forward pass; ``Plan.resume``
is the resumed pass of a violated sample (below), which settles only the
vertices still due, for their bit checks.  ``forward`` and ``gradients``
run every sample on their plan, ``loss_total`` and the checks of
:mod:`bitnets.reductions` are each one call on a ``Certificate``, which
lowers theta itself, and the compiler uses the plan's local equation
``act_v(x_v + b_v + sum of w * y_u)`` and its inverse.  Inside the
engine a scalar is an ``int`` while it is integral and a ``Fraction``
only once a denominator appears; results leave it as ``Fraction``.
Bits are checked with :func:`bitnets.rationals.check_bits` (a vertex
counts an ``int``'s inline, raising the same ``BitBudgetError``) on each
vertex's reduced preactivation and value, on every backpropagated
adjoint, on the gradient accumulators after the last sample, and on
each main sample's loss and the running loss total.  A sum is held as
an unreduced (numerator, denominator) pair over the lcm of its terms'
denominators and reduced only at the check that reads it, so every
value and bit count is the reduced one.  Every such pair is reduced by
:func:`bitnets.rationals.reduce_pair`, which takes the power of two out of
the gcd with bit operations and runs ``math.gcd`` only against the
denominator's odd part: the values are mostly dyadic, and most of a
denominator is often its power of two.  A reduced pair is unique, so the
result, and with it every bit count and error, is the one
``Fraction(num, den)`` gives.  The loss total is such a pair
too, read only by its budget check until the end, so the check judges
the pair's own size (its numerator's and denominator's bit lengths) and
reduces it only when that is over the budget.  That is exact: reducing
divides both by their gcd, so the reduced total has at most the pair's
bits ((0, d) has at least 1, as 0 has), and a pair over the budget is
reduced and judged as before, with the same error, bits and ``where``.
The in-edges of one vertex share its bias gradient, summed once per
vertex.  A plan lives for its call,
except the theta* plan a certificate keeps (below).

Every activation is an :class:`Activation`: the engine, ``pwl.gd_step``
and the instance writer ask it for ``lower()``, ``step_family``,
``is_continuous`` and ``to_doc()`` rather than test its type.

Auxiliary samples are scored by a local-equation certificate
(``Certificate``) rather than one forward pass each.  A sample
reproduces its label vector y iff every vertex satisfies
``act_v(x_v + sum of (w * y_u + b)) == y_v`` (``x_v == y_v`` at a
source) with the tails' labels substituted, by induction over the
topological order.  The first auxiliary sample that passes is the
reference.  The certificate's index lists, once per dataset and whatever
theta or budget, each auxiliary sample's stale vertices: where its x or
y differs from the first auxiliary sample with a vector label, and the
heads of the relabelled ones.  It holds the sample's x and y in engine
form, so checks compare ``int`` with ``int``, and it inverts the lists:
for each vertex, the dataset positions of the samples whose list holds
it.  A sample settles local equations in topological order, with the bit
checks of a forward pass.  Up to the reference it settles every vertex;
past it, the union of its list and the reference's (its own alone when
the reference's is empty), and at every other vertex it shares the
reference's local equation, which held in this call.  On a compiled
instance that is O(|E|·mu) exact arithmetic for all of them rather than
O(|samples|·|E|).

A sample whose local check fails at v is violated.  Its forward pass
then resumes at v (``Plan.resume``), for its bit checks only, and
settles just two kinds of vertex: those of the sample's check set from v
on, whose checks did not run, and those with a tail whose value moved
off its label.  Every other vertex keeps its label.  That is exact.  A
vertex the pass does not settle is in the check set before v, where its
check passed, or outside the set, where its local equation is the
reference's, which held in this call, or (under a budget of at least the
record P*, below) is unchanged and so theta*'s for this sample, which
held within P* bits.  By
induction over the order its tails keep their labels in a full pass, so
a full pass gives it its label within the budget, and each settle sees
the values a full pass sees and runs its bit checks: a sample raises the
bit-budget error of its full pass whether it passes or fails, and the
run that makes the record reads P* off its settles.  Before the
reference and without the record the check set is the whole order, so
the pass settles every vertex from v on.

A certificate given theta* (``reductions.ErmInstance`` keeps one) keeps
theta*'s plan.  A plan of another theta built against it takes the kept
entry of every vertex whose in-edge (weight, bias) pairs are the very
tuple objects the kept plan lowered and lowers the others again, listed
in topological order as ``changed``: a one-edge shift lowers one vertex.
Matching by identity needs no comparison of rationals and still holds if
theta*'s parameters are replaced.  The first check, whatever its theta,
also makes the record P*: the peak bits of the preactivations and values
one run of the kept plan settled at ``DEFAULT_MAX_BITS``, if every
auxiliary sample passed (no record otherwise).  Under a budget of at
least P* a check then looks only at ``changed``, a sample past the
reference only at those in its list or the reference's: elsewhere every
local equation, preactivation and value is one that held at theta*
within P* bits, or the reference's, which passed.  When no changed
vertex is in the reference's list, a sample past it that no changed
vertex lists has nothing to check, so the check visits only the listed
samples, the main ones and those with a scalar label.  A one-edge shift
so costs at most one local equation per sample it visits and one pass
resumed at the changed vertex, which settles it and the vertices its
change reaches; theta* itself, after the record, none.
All of this relies on the rule that an instance and its samples are not
changed after they are built.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush

from .product_identity import RationalPoly
from .rationals import (
    DEFAULT_MAX_BITS,
    BitBudgetError,
    add_pair,
    bit_extract,
    bit_length,
    check_bits,
    format_rational,
    reduce_pair,
)

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
    """Base of every activation: a ``kind``, and ``eval``/``derivative``, which
    take and return an ``int`` or a ``Fraction``.  ``lower()`` is the int-first
    (eval, derivative) pair the engine runs, (None, None) for a pass-through;
    ``to_doc()`` is the canonical JSON object; ``step_family`` says whether
    ``pwl.gd_step`` may run it and ``is_continuous`` whether its pieces meet at
    every breakpoint."""

    step_family = True
    is_continuous = True

    def lower(self) -> tuple[Callable | None, Callable | None]:
        return (lambda z: int_first(self.eval(z))), (lambda z: int_first(self.derivative(z)))

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
        values = tuple(int_first(c) for c in reversed(self.poly.coefficients))
        slopes = tuple(int_first(c) for c in reversed(self._deriv.coefficients))
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
        ready = [vid for vid, deg in pending.items() if deg == 0]
        heapify(ready)
        order: list[str] = []
        while ready:
            vid = heappop(ready)
            order.append(vid)
            for succ in out[vid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    heappush(ready, succ)
        if len(order) != len(self.vertices):
            raise NetworkError("network graph contains a cycle", "edges")
        return tuple(order)

    @cached_property
    def topo_position(self) -> dict[str, int]:
        """Each vertex's position in ``topo_order``, built on first use."""
        return {vid: k for k, vid in enumerate(self.topo_order)}

    @cached_property
    def heads(self) -> dict[str, set[str]]:
        """The out-neighbours of every vertex, built on first use: only the
        auxiliary-sample certificate and the compiler read them."""
        heads: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for e in self.edges:
            heads[e.tail].add(e.head)
        return heads

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
        weight: int | Fraction | None = None,
        bias: int | Fraction | None = None,
    ) -> "Theta":
        """A copy with edge ``edge_id``'s weight or bias replaced; a value that
        is not an ``int`` or a ``Fraction`` is refused at ``theta.<edge id>.w``
        or ``.b``."""
        w, b = self.params[edge_id]
        for field, q in (("w", weight), ("b", bias)):
            if q is not None and type(q) not in (int, Fraction):
                raise not_rational(q, f"theta.{edge_id}.{field}")
        updated = dict(self.params)
        updated[edge_id] = (w if weight is None else weight, b if bias is None else bias)
        return Theta(updated)

    def check_against(self, net: Network) -> None:
        """Require one (weight, bias) tuple per edge of ``net``, each value an
        ``int`` or a ``Fraction`` (not a ``bool``); a missing or unknown edge
        is at ``theta``, an entry that is not a pair at ``theta.<edge id>``,
        a value of another type at ``theta.<edge id>.w`` or ``.b``."""
        missing = [e.id for e in net.edges if e.id not in self.params]
        if missing:
            raise NetworkError(f"missing parameters for edges {missing}", "theta")
        if len(self.params) != len(net.edges):
            extra = sorted(self.params.keys() - net.edge_map.keys())
            raise NetworkError(f"parameters for unknown edges {extra}", "theta")
        for eid, pair in self.params.items():
            if (type(pair) is not tuple or len(pair) != 2
                    or type(pair[0]) not in (int, Fraction) or type(pair[1]) not in (int, Fraction)):
                _check_pair(eid, pair)  # raises; a call per edge would cost more than the check

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Theta) and dict(self.params) == dict(other.params)


def not_rational(value: object, where: str) -> NetworkError:
    """The error for a value at ``where`` that is not an ``int`` or a ``Fraction``."""
    return NetworkError(f"expected an int or a Fraction, got {type(value).__name__}", where)


def _check_values(vector: Mapping, where: str) -> None:
    """Refuse a value of ``vector`` that is not an ``int`` or a ``Fraction``
    (a ``bool`` neither), at ``where.<vertex id>``."""
    if not {Fraction, int}.issuperset(map(type, vector.values())):
        vid = min(v for v, q in vector.items() if type(q) not in (Fraction, int))
        raise not_rational(vector[vid], f"{where}.{vid}")


def _check_pair(eid: str, pair) -> None:
    """Raise the located error of the rule ``Theta.check_against`` applies to
    the entry of edge ``eid``, if the entry breaks it."""
    if type(pair) is not tuple or len(pair) != 2:
        raise NetworkError(
            f"parameters of edge {eid!r} must be a (weight, bias) pair", f"theta.{eid}"
        )
    for field, q in zip("wb", pair):
        if type(q) not in (int, Fraction):
            raise not_rational(q, f"theta.{eid}.{field}")


@dataclass(frozen=True)
class Sample:
    """One dataset entry; ``count`` (an int >= 1) encodes replicated copies.

    ``label`` is a scalar for square/hinge main samples and a sparse
    vector (vertex id -> value, zeros omitted) for equality-checked
    samples.  ``flag`` 1 marks a main sample, 0 an auxiliary one.
    ``x`` is a mapping; neither it nor a vector label is changed after
    the sample is built (an ``ErmInstance`` keeps an index of them).  Every
    value of ``x`` and of the label is an ``int`` or a ``Fraction``; another
    is refused at ``x.<vertex id>``, ``y.<vertex id>`` or ``y``.
    """

    x: Mapping[str, Fraction]
    label: Fraction | Mapping[str, Fraction]
    flag: int = 1
    count: int = 1
    note: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.x, Mapping):
            raise NetworkError(f"x must map vertex ids to values, got {type(self.x).__name__}", "x")
        if type(self.flag) is not int or self.flag not in (0, 1):
            raise NetworkError(f"flag must be 0 or 1, got {self.flag!r}", "flag")
        if type(self.count) is not int or self.count < 1:
            raise NetworkError(f"count must be >= 1, got {self.count!r}", "count")
        _check_values(self.x, "x")
        if isinstance(self.label, Mapping):
            _check_values(self.label, "y")
        elif type(self.label) not in (int, Fraction):
            raise not_rational(self.label, "y")


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


def int_first(q: int | Fraction) -> int | Fraction:
    """``q``, an ``int`` or a ``Fraction``, as an ``int`` when it is integral."""
    if type(q) is not int and q.denominator == 1:
        return q.numerator
    return q


def _as_fraction(q: int | Fraction) -> Fraction:
    return q if type(q) is Fraction else Fraction(q)


def _horner(coeffs: tuple, z: int | Fraction) -> int | Fraction:
    """The polynomial with ``coeffs`` (leading first) at ``z``, 0 for none.
    Horner's rule starts at the leading coefficient and adds no zero term."""
    terms = iter(coeffs)
    acc = next(terms, 0)
    for c in terms:
        acc *= z
        if c:
            acc += c
    return int_first(acc)


class Plan:
    """``(net, theta)`` lowered for the exact engine.

    ``node[vid]`` is ``(ins, bias, act, slope)``: the in-edges as (tail, edge
    id, weight numerator, weight denominator), the reduced sum of their biases
    as a pair, and the activation and its derivative (None for identity).  A
    source's ``ins`` is None.  ``ops`` is the operation count of one forward
    pass.  ``theta`` must hold exactly the edges of ``net``.

    ``pairs`` is a copy of ``theta.params``, the (weight, bias) tuples the
    plan lowered.  Given ``kept``, a plan of the same network, a vertex takes
    ``kept``'s entry when each of its in-edge pairs *is* the tuple object
    ``kept`` lowered, and is lowered again otherwise, in topological order;
    ``changed`` lists the vertices lowered again, in that order.  A whole
    plan, built without ``kept``, has ``changed`` None: all of them.  Against
    ``kept`` only the pairs that are not its objects are checked, by the rule
    of ``theta.check_against``, with the same error.
    """

    def __init__(self, net: Network, theta: Theta, kept: Plan | None = None) -> None:
        self.order, self.position = net.topo_order, net.topo_position
        self.pairs = dict(theta.params)
        if kept is None or self.pairs.keys() != kept.pairs.keys():
            theta.check_against(net)  # against kept, raises: an edge is missing or unknown
        if kept is not None:
            self.ops = kept.ops
            heads = set()
            for eid, pair in self.pairs.items():
                if pair is not kept.pairs[eid]:
                    _check_pair(eid, pair)
                    heads.add(net.edge_map[eid].head)
            self.changed = tuple(sorted(heads, key=self.position.__getitem__))
            self.node = dict(kept.node) if heads else kept.node
            for vid in self.changed:
                self.node[vid] = self._lower(net, vid, *kept.node[vid][2:])
            return
        self.changed: tuple[str, ...] | None = None
        self.node: dict[str, tuple] = {}
        self.ops = 0
        lowered: dict[int, tuple] = {}
        for vid in self.order:
            vertex = net.vertex_map[vid]
            if vertex.activation is None:
                self.node[vid] = (None, (0, 1), None, None)
                continue
            key = id(vertex.activation)
            if key not in lowered:
                lowered[key] = vertex.activation.lower()
            self.node[vid] = self._lower(net, vid, *lowered[key])
            self.ops += 3 * len(net.in_edges[vid]) + 1

    def _lower(self, net: Network, vid: str, act: Callable | None, slope: Callable | None) -> tuple:
        """The entry of non-source vertex ``vid`` under ``pairs``."""
        ins, num, den = [], 0, 1
        for e in net.in_edges[vid]:
            w, b = map(int_first, self.pairs[e.id])
            ins.append((e.tail, e.id, w.numerator, w.denominator))
            if b:
                num, den = add_pair(num, den, b.numerator, b.denominator)
        bias = reduce_pair(num, den)
        return tuple(ins), (bias.numerator, bias.denominator), act, slope

    def inflow(self, vid: str, y: Mapping) -> tuple[int, int]:
        """``b_v + sum of w * y_u`` over v's in-edges as an unreduced
        (numerator, denominator) pair, the tails read from ``y`` (missing
        means 0); a source has none.  ``x_v = pre_v - inflow`` inverts the
        local equation."""
        ins, (num, den) = self.node[vid][:2]
        for tail, _, wn, wd in ins or ():
            q = y.get(tail, 0)
            qn = q.numerator
            if qn:
                td = wd * q.denominator
                if td == den:  # all-integer nets stay here, without a call
                    num += wn * qn
                else:
                    num, den = add_pair(num, den, wn * qn, td)
        return num, den

    def settle(self, vid: str, x_v, y: Mapping, max_bits: int) -> tuple:
        """(preactivation, value, value bits) of v's local equation
        ``act_v(x_v + inflow)`` with the tails at ``y``; a source is ``x_v``.
        The preactivation is reduced once, where its bits are checked.  An
        ``int``'s bits are counted here, as ``check_bits`` would count them,
        and a ``BitBudgetError`` is located at ``preactivation v`` or
        ``vertex v``, formatted only when it is raised."""
        ins, _, act, _ = self.node[vid]
        pre = x_v if type(x_v) is int else int_first(x_v)
        if ins is not None:
            num, den = self.inflow(vid, y)
            if den == 1 and type(pre) is int:
                pre += num
            else:
                pre = reduce_pair(*add_pair(num, den, pre.numerator, pre.denominator))
            bits = pre.bit_length() + 1 if type(pre) is int else bit_length(pre)
            if bits > max_bits:
                raise BitBudgetError(bits, max_bits, f"preactivation {vid}")
            if act is None:
                return pre, pre, bits
        value = pre if act is None else act(pre)
        bits = value.bit_length() + 1 if type(value) is int else bit_length(value)
        if bits > max_bits:
            raise BitBudgetError(bits, max_bits, f"vertex {vid}")
        return pre, value, bits

    def run(self, x: Mapping, max_bits: int) -> tuple[dict, dict, dict]:
        """One full forward pass: values, preactivations and value bits by
        vertex, in topological order."""
        values: dict = {}
        pre: dict = {}
        bits: dict = {}
        settle = self.settle
        for vid in self.order:
            pre[vid], values[vid], bits[vid] = settle(vid, x.get(vid, 0), values, max_bits)
        return values, pre, bits

    def resume(self, x: Mapping, max_bits: int, start: str, y: Mapping, due: set,
               heads: Mapping) -> None:
        """A pass resumed at ``start``, for its bit checks only.  Every vertex
        takes its value from ``y`` (missing means 0) unless it is settled: the
        pass settles, from ``start`` on in topological order, only the vertices
        in ``due``, to which it adds the ``heads`` of each settled vertex whose
        value is not its ``y`` value."""
        values = dict(y)
        settle = self.settle
        for vid in self.order[self.position[start]:]:
            if vid in due:
                value = settle(vid, x.get(vid, 0), values, max_bits)[1]
                if value != values.get(vid, 0):
                    due.update(heads[vid])
                    values[vid] = value


def forward(
    net: Network,
    theta: Theta,
    x: Mapping[str, Fraction],
    max_bits: int = DEFAULT_MAX_BITS,
) -> EvalTrace:
    """Exact forward evaluation in topological order; a value of ``x`` that is
    not an ``int`` or a ``Fraction`` is refused at ``x.<vertex id>``."""
    _check_values(x, "x")
    plan = Plan(net, theta)
    values, pre, bits = plan.run(x, max_bits)
    return EvalTrace(
        {vid: _as_fraction(q) for vid, q in values.items()},
        {vid: _as_fraction(q) for vid, q in pre.items()},
        bits,
        max(bits.values(), default=1),
        plan.ops,
    )


def check_label(spec: LossSpec, sample: Sample, i: int) -> None:
    """Require a label that fits how ``spec`` scores ``sample``, dataset
    position ``i``: a vector when the sample is equality-checked, a scalar
    under square or hinge loss; a fault is at ``dataset[i].y``."""
    vector = isinstance(sample.label, Mapping)
    if sample.flag == 0 or spec.kind == "vector-equality":
        if not vector:
            raise NetworkError("equality-checked sample needs a vector label", f"dataset[{i}].y")
    elif vector and spec.kind in ("square", "hinge"):
        raise NetworkError(f"{spec.kind} loss needs a scalar label", f"dataset[{i}].y")


def _check_target(net: Network, spec: LossSpec) -> None:
    """Require ``spec``'s target, if it names one, to be a vertex of ``net``."""
    if spec.target is not None and spec.target not in net.vertex_map:
        raise NetworkError(f"loss target {spec.target!r} is not a vertex of the network", "target")


def sample_loss(
    net: Network,
    spec: LossSpec,
    values: Mapping[str, Fraction],
    sample: Sample,
) -> Fraction:
    """Exact per-sample loss (one copy, ignoring ``count``) of a sample whose
    label ``check_label`` has passed."""
    if sample.flag == 0 or spec.kind == "vector-equality":
        label = sample.label
        return Fraction(0 if all(values[v.id] == label.get(v.id, 0) for v in net.vertices) else 1)
    pred = values[spec.target]
    if spec.kind == "square":
        diff = pred - Fraction(sample.label)
        return diff ** 2 / 2
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


class Certificate:
    """The certificate of the module docstring for ``dataset`` on ``net``,
    main samples scored by ``spec``.  ``index`` is built on first use.
    ``violated`` and ``loss`` take a theta and lower it through ``plan``,
    the certificate's one lowering point.  Given ``theta_star``, ``plan``
    keeps theta*'s plan ``kept`` (unless one was handed over), makes the
    record ``star`` on its first call and lowers every theta against
    ``kept``; without it the certificate keeps no plan and no record, and
    each theta is lowered whole."""

    def __init__(self, net: Network, dataset: Sequence[Sample], spec: LossSpec,
                 theta_star: Theta | None = None) -> None:
        self.net, self.dataset, self.spec, self.theta_star = net, dataset, spec, theta_star
        self.kept: Plan | None = None
        self.star: int | None = None
        self.recorded = False

    @cached_property
    def index(self) -> tuple[tuple, dict[str, tuple[int, ...]], tuple[int, ...]]:
        """``(entries, listed, others)``.  By dataset position, ``entries``
        gives an auxiliary sample with a vector label ``(stale, x, y)``, its
        stale vertices in topological order and its input and label in engine
        form (``int_first``), each distinct value object lowered once and
        held, so that no later object takes its id; any other sample gets
        None.  ``listed[v]`` holds, in dataset order, the positions whose stale
        vertices include v; ``others`` the positions whose entry is None."""
        net, position = self.net, self.net.topo_position
        first: Sample | None = None
        lowered: dict[int, tuple[int | Fraction, Fraction]] = {}

        def lower(vector: Mapping) -> dict:
            out = {}
            for vid, q in vector.items():
                entry = lowered.get(id(q))
                if entry is None:
                    entry = lowered[id(q)] = (int_first(q), q)
                out[vid] = entry[0]
            return out

        entries: list[tuple | None] = []
        listed: dict[str, list[int]] = {}
        for i, sample in enumerate(self.dataset):
            y = sample.label
            if sample.flag != 0 or not isinstance(y, Mapping):
                entries.append(None)
                continue
            if first is None:
                first = sample
            relabelled = _differing(y, first.label)
            stale = _differing(sample.x, first.x) | relabelled
            stale = stale.union(*(net.heads[u] for u in relabelled if u in position))
            stale = tuple(sorted((v for v in stale if v in position), key=position.__getitem__))
            for vid in stale:
                listed.setdefault(vid, []).append(i)
            entries.append((stale, lower(sample.x), lower(y)))
        others = tuple(i for i, entry in enumerate(entries) if entry is None)
        return tuple(entries), {vid: tuple(ps) for vid, ps in listed.items()}, others

    def plan(self, theta: Theta) -> Plan:
        """``theta`` lowered against the kept theta* plan, or whole without
        theta*."""
        if self.theta_star is None:
            return Plan(self.net, theta)
        if not self.recorded:
            self.recorded = True
            if self.kept is None:
                self.kept = Plan(self.net, self.theta_star)
            with suppress(BitBudgetError):  # one check of theta*, to its first violation
                for i in self.verdicts(self.kept, DEFAULT_MAX_BITS):
                    if self.dataset[i].flag == 0:
                        break
        return Plan(self.net, theta, self.kept)

    def verdicts(self, plan: Plan, max_bits: int) -> Iterator[int]:
        """Yield, in dataset order, the positions of the main samples, which
        are not evaluated, and of the auxiliary samples that do not reproduce
        their label vector under ``plan``'s theta; a sample that does is not
        yielded.  An auxiliary sample settles the local equations of its check
        set in topological order: before the reference the whole scope
        (``plan.order``, or ``changed`` under the record), after it the
        scope's vertices in its list or the reference's.  A failed one
        resumes the pass there (``plan.resume``), settling the rest of the check set and the
        vertices that a moved value reaches.  A sample whose label is not a
        vector gets a full forward pass, so its error is that of a full pass
        too.  A run of ``kept`` that every auxiliary sample passes sets
        ``star``."""
        entries, listed, others = self.index
        settle, heads = plan.settle, self.net.heads
        changed = plan.changed if self.star is not None and max_bits >= self.star else None
        scope = plan.order if changed is None else changed
        peak = 1 if plan is self.kept else None
        ref: set[str] | None = None  # the reference's stale vertices
        todo = iter(range(len(entries)))  # the positions still to visit
        while (i := next(todo, None)) is not None:
            entry = entries[i]
            if entry is None:
                sample = self.dataset[i]
                if sample.flag != 0:
                    yield i
                    continue
                plan.run(sample.x, max_bits)  # a scalar label, refused after its full pass
                check_label(self.spec, sample, i)
            stale, x, y = entry
            if ref is None:
                check = scope
            elif changed is None and not ref:
                check = stale
            else:
                check = [vid for vid in scope if vid in stale or vid in ref]
            for k, vid in enumerate(check):
                pre, value, bits = settle(vid, x.get(vid, 0), y, max_bits)
                if value != y.get(vid, 0):
                    # the pass resumes at vid, for its bit checks, where a check
                    # is still due or a value moved
                    plan.resume(x, max_bits, vid, y, set(check[k:]), heads)
                    peak = None
                    yield i
                    break
                if peak is not None:
                    if bits > peak:
                        peak = bits
                    if pre is not value and bit_length(pre) > peak:
                        peak = bit_length(pre)
            else:
                if ref is None:
                    ref = set(stale)
                    if changed is not None and ref.isdisjoint(changed):
                        # past the reference only a sample listed under changed
                        # checks anything; the others pass without work
                        reach = set(others).union(*(listed.get(vid, ()) for vid in changed))
                        todo = iter(sorted(j for j in reach if j > i))
        if peak is not None:
            self.star = peak

    def violated(self, theta: Theta, max_bits: int) -> Sample | None:
        """The first auxiliary sample that does not reproduce its label
        vector under ``theta``, or None; ``theta`` is lowered by ``plan``."""
        for i in self.verdicts(self.plan(theta), max_bits):
            if self.dataset[i].flag == 0:
                return self.dataset[i]
        return None

    def loss(self, theta: Theta, max_bits: int) -> Fraction:
        """``loss_total`` under ``theta``, lowered by ``plan``.  The running
        total is an unreduced pair (an auxiliary sample's ``count`` adds
        ``count`` times its denominator), judged after each sample by its own
        size and reduced by ``reduce_pair``, then checked, only when that size
        exceeds ``max_bits``; it is reduced once more at the end and
        returned as a ``Fraction``."""
        plan = self.plan(theta)
        _check_target(self.net, self.spec)
        num, den = 0, 1
        for i in self.verdicts(plan, max_bits):
            sample = self.dataset[i]
            if sample.flag == 0:
                num += sample.count * den
            else:
                values = plan.run(sample.x, max_bits)[0]
                check_label(self.spec, sample, i)
                loss = sample_loss(self.net, self.spec, values, sample)
                check_bits(loss, max_bits, f"loss of sample {i}")
                num, den = add_pair(num, den, sample.count * loss.numerator, loss.denominator)
            if abs(num).bit_length() + den.bit_length() > max_bits:
                total = reduce_pair(num, den)
                check_bits(total, max_bits, f"loss total after sample {i}")
                num, den = total.numerator, total.denominator
        return _as_fraction(reduce_pair(num, den))


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
    docstring finds it does not reproduce its label vector.  The total
    and any bit-budget error are those of one full forward pass per
    sample.  Each main sample's one-copy loss, and the running total
    after each addition to it, are checked against ``max_bits``; the total
    is summed unreduced and reduced only where that check could fail, so
    it raises where a total reduced after every addition would.  A target
    of ``spec`` that is not a vertex of ``net`` raises ``NetworkError`` at
    ``target``.  The call keeps nothing: its certificate and plan are built
    for it alone.
    """
    return Certificate(net, dataset, spec).loss(theta, max_bits)


@dataclass(frozen=True)
class GradientReport:
    """Exact per-edge gradients of the empirical loss, as :func:`gradients`
    returns them; ``pwl.GdStepReport`` is this report plus the step.

    ``hinge_kinks`` counts samples whose margin sat exactly on the hinge
    kink; those contribute the subgradient value 0.  The in-edges of one
    vertex have one bias gradient, the sum of that vertex's deltas, so
    ``bias_grad`` gives each of them the same value.
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
    bit01 / vector-equality specs, auxiliary (flag 0) samples and vector
    labels are rejected, as is a target that is not a vertex of ``net``
    (``NetworkError`` at ``target``).  Adjoints propagate in reverse
    topological order.  Each accumulator is an unreduced pair across the
    samples, and the in-edges of one vertex share its bias gradient, one
    pair per vertex.  After the last sample every accumulator is reduced
    once by ``reduce_pair`` and checked against ``max_bits`` (weight then
    bias, edge by edge, so a bias gradient over the budget is reported at
    its vertex's first in-edge); the reported ``max_bits`` is the peak
    over vertex values, adjoints and weight gradients.
    """
    if spec.kind not in ("square", "hinge"):
        raise NonDifferentiableLoss(f"loss {spec.kind!r} has no gradient")
    plan = Plan(net, theta)
    _check_target(net, spec)
    wgrad = dict.fromkeys(net.edge_map, (0, 1))
    bsum = dict.fromkeys(plan.order, (0, 1))  # by head: its in-edges share it
    kinks = 0
    peak = 1
    ops = 0
    for i, sample in enumerate(dataset):
        if sample.flag == 0:
            raise NonDifferentiableLoss(
                "auxiliary (flag 0) samples use the equality loss and have no gradient"
            )
        check_label(spec, sample, i)
        values, pre, bits = plan.run(sample.x, max_bits)
        ops += plan.ops
        peak = max(peak, max(bits.values(), default=1))

        target = spec.target
        pred = values[target]
        y = int_first(sample.label)
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
        adjoint = dict.fromkeys(plan.order, (0, 1))
        adjoint[target] = (seed.numerator, seed.denominator)
        for vid in reversed(plan.order):
            ins, _, _, slope = plan.node[vid]
            if ins is None:
                continue
            a = reduce_pair(*adjoint[vid])
            if a == 0:
                continue
            delta = a if slope is None else int_first(a * slope(pre[vid]))
            ops += 2 + 6 * len(ins)
            peak = max(peak, check_bits(delta, max_bits, f"adjoint {vid}"))
            dn, dd = delta.numerator, delta.denominator
            sn = scale * dn
            bsum[vid] = add_pair(*bsum[vid], sn, dd)
            for tail, eid, wn, wd in ins:
                q = values[tail]
                qn = q.numerator
                if qn:
                    wgrad[eid] = add_pair(*wgrad[eid], sn * qn, dd * q.denominator)
                adjoint[tail] = add_pair(*adjoint[tail], dn * wn, dd * wd)
    bias = {vid: _as_fraction(reduce_pair(*pair)) for vid, pair in bsum.items()}
    bgrad = {}
    for eid, pair in wgrad.items():
        wgrad[eid] = _as_fraction(reduce_pair(*pair))
        peak = max(peak, check_bits(wgrad[eid], max_bits, f"weight gradient {eid}"))
        bgrad[eid] = bias[net.edge_map[eid].head]
        check_bits(bgrad[eid], max_bits, f"bias gradient {eid}")
    return GradientReport(wgrad, bgrad, kinks, peak, ops)
