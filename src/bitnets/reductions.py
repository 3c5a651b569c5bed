"""Compilers from straight-line programs to training-problem instances.

An SLP is turned into a network that simulates it gate by gate under a
distinguished parameter vector theta*: addition and subtraction gates
become identity vertices with unit weights, and each multiplication
gate becomes a gadget that recovers the product x*y from shifted
evaluations of the polynomial activation via the lambda coefficients of
:mod:`bitnets.product_identity`.  Auxiliary samples with an exact
equality loss force any zero-auxiliary-loss parameter vector to agree
with theta* up to activation symmetries, so the instance's optimum
value reflects a bit (or the sign) of the program's output.

Three instance families are emitted, each a different head on the same
simulation (``_CircuitBuilder.build``, which also marks the last gate's
role): bit-query ERM instances and hinge-loss sign instances for the
derived value 2*n_P - 1, which share the forcing-sample tail
(``_forcing_instance``) and differ only in their main sample and loss,
and gradient (backprop sign / bit) instances, which append one free
distinguished edge to a fresh target and have no forcing samples.

Auxiliary samples are scored by the local-equation certificate of
:mod:`bitnets.network`, which an ``ErmInstance`` keeps.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .network import (
    Certificate,
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    Plan,
    PolyActivation,
    ROLE_HIDDEN,
    ROLE_SOURCE,
    ROLE_TARGET,
    Sample,
    Theta,
    Vertex,
    check_label,
    gradients,
    int_first,
)
from .product_identity import LambdaCoeffs, RationalPoly, solve_lambda
from .rationals import DEFAULT_MAX_BITS, bit_length, format_rational, reduce_pair
from .slp import Gate, NormalizedSlp, Slp, normalize_bn, parse_slp

_IDENTITY = IdentityActivation()


class CompileError(ValueError):
    """Input only a compiler can get wrong: no gates, a constant sigma, j < 0, a
    program constant other than 1, the a0 mode, or the sign variant without
    the unit constant.  A bad gap or query is the instance's ``NetworkError``."""


def _check_instance(inst: ErmInstance | BackpropInstance) -> None:
    """The rules both instance kinds keep, each fault's ``where`` the field a
    file names: one target, scored by the loss; theta* on exactly the edges
    (``Theta.check_against``); sample vectors on vertices only; every label
    fits the loss; the provenance is JSON.  A ``Sample`` refuses a value that
    is not an ``int`` or a ``Fraction`` itself."""
    net, loss = inst.network, inst.loss
    if len(net.targets) != 1:
        raise NetworkError(f"expected one target vertex, have {net.targets}", "vertices")
    target = net.targets[0]
    if loss.target is not None and loss.target != target:
        raise NetworkError(f"{loss.target!r} is not the target {target!r}", "loss.target")
    inst.theta_star.check_against(net)
    for i, sample in enumerate(inst.dataset):
        for field, vector in (("x", sample.x), ("y", sample.label)):
            if isinstance(vector, Mapping) and not vector.keys() <= net.vertex_map.keys():
                vid = min(vector.keys() - net.vertex_map.keys())
                raise NetworkError(f"unknown vertex {vid!r}", f"dataset[{i}].{field}.{vid}")
        check_label(loss, sample, i)
    try:
        json.dumps(inst.provenance, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"provenance is not JSON-serialisable: {exc}", "provenance") from None


def _check_gap(gap: tuple[int, int]) -> None:
    """An ERM gap is a pair of integers a, b with 0 <= a < b."""
    if not (isinstance(gap, tuple) and len(gap) == 2 and all(type(g) is int for g in gap)):
        raise NetworkError("expected [a, b] with integer thresholds", "gap")
    if not 0 <= gap[0] < gap[1]:
        raise NetworkError(f"need naturals a < b, got {list(gap)}", "gap")


def _check_query(variant: str, promise: int | None, bit_index: int | None) -> None:
    """A gradient query is ``sign``, with an integer promise >= 1 and no bit
    index, or ``bit``, with an integer bit index and no promise."""
    if variant == "sign":
        if type(promise) is not int or promise < 1:
            raise NetworkError(
                f"sign variant needs an integer promise >= 1, got {promise!r}", "promise"
            )
        if bit_index is not None:
            raise NetworkError("sign variant takes no bit index", "bit_index")
    elif variant == "bit":
        if type(bit_index) is not int:
            raise NetworkError(
                f"bit variant needs an integer bit index, got {bit_index!r}", "bit_index"
            )
        if promise is not None:
            raise NetworkError("bit variant takes no promise", "promise")
    else:
        raise NetworkError(f"unknown variant {variant!r}", "variant")


@dataclass(frozen=True)
class ErmInstance:
    """Promise gap (a, b): is the optimum loss at most a or at least b?
    Construction checks the instance rules and the gap (``NetworkError``).

    An instance is not changed after it is built, nor are its samples'
    vectors: the checks above hold only for the fields they saw, and the
    instance keeps the certificate of :mod:`bitnets.network`, built on
    first use with its theta*.  ``dataclasses.replace`` makes a new
    instance with a new certificate.
    """

    network: Network
    theta_star: Theta
    dataset: tuple[Sample, ...]
    loss: LossSpec
    gap: tuple[int, int]
    provenance: dict

    def __post_init__(self) -> None:
        _check_instance(self)
        _check_gap(self.gap)

    @cached_property
    def _cert(self) -> Certificate:
        return Certificate(self.network, self.dataset, self.loss, self.theta_star)


def _cert_of(inst) -> Certificate:
    """The certificate ``inst`` keeps if it is an ``ErmInstance``; any other
    object, whose fields may have been swapped, gets one that keeps nothing."""
    if isinstance(inst, ErmInstance):
        return inst._cert
    return Certificate(inst.network, inst.dataset, inst.loss)


@dataclass(frozen=True)
class BackpropInstance:
    """Gradient-query instance: all parameters pinned except edge_star's weight.

    For the bit variant, ``bit_index`` is the index to query in the
    exact gradient; under bounded-norm compilation it is the requested
    bit of n_P shifted by the scale exponent and may be negative
    (a fractional position).
    """

    network: Network
    theta_star: Theta
    dataset: tuple[Sample, ...]
    loss: LossSpec
    variant: str
    edge_star: str
    promise: int | None
    bit_index: int | None
    provenance: dict

    def __post_init__(self) -> None:
        _check_instance(self)
        if self.edge_star not in self.network.edge_map:
            raise NetworkError(f"unknown edge {self.edge_star!r}", "edge_star")
        _check_query(self.variant, self.promise, self.bit_index)


class _CircuitBuilder:
    """Accumulates vertices, edges and theta* for the gate-by-gate simulation."""

    def __init__(self, sigma: RationalPoly) -> None:
        self.sigma = sigma
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []
        self.theta: dict[str, tuple[Fraction, Fraction]] = {}
        self._edge_ids: set[str] = set()

    def vertex(self, vid: str, role: str, activation) -> str:
        self.vertices.append(Vertex(vid, role, activation))
        return vid

    def edge(self, tail: str, head: str, w: Fraction, b: Fraction) -> str:
        eid = f"{tail}->{head}"
        n = 2
        while eid in self._edge_ids:
            eid = f"{tail}->{head}#{n}"
            n += 1
        self._edge_ids.add(eid)
        self.edges.append(Edge(eid, tail, head))
        self.theta[eid] = (Fraction(w), Fraction(b))
        return eid

    def build(self, p: Slp, out_role: str) -> str:
        """Emit the simulation core, the last gate's vertex in ``out_role``;
        returns that vertex's id.  The lambda coefficients are kept in
        ``self.lam``."""
        if p.n_gates == 0:
            raise CompileError("program must have at least one gate")
        self.lam = solve_lambda(self.sigma)
        mu = self.sigma.degree
        lam_prime = self.lam.integer_lambdas
        inv_d = Fraction(1, self.lam.common_denominator)
        sigma_act = PolyActivation(self.sigma)  # one object, so a plan lowers sigma once
        gate_vertex = [self.vertex("v0", ROLE_SOURCE, None)]
        for i, g in enumerate(p.gates, start=1):
            vid = f"v{i}"
            role = out_role if i == p.n_gates else ROLE_HIDDEN
            vj, vk = gate_vertex[g.left], gate_vertex[g.right]
            if g.op in ("add", "sub"):
                self.vertex(vid, role, _IDENTITY)
                self.edge(vj, vid, Fraction(1), Fraction(0))
                self.edge(vk, vid, Fraction(1) if g.op == "add" else Fraction(-1), Fraction(0))
            else:
                zid = self.vertex(f"z{i}", ROLE_HIDDEN, _IDENTITY)
                for r in range(mu + 1):
                    l1 = self.vertex(f"L1_{i}_{r}", ROLE_HIDDEN, _IDENTITY)
                    l2 = self.vertex(f"L2_{i}_{r}", ROLE_HIDDEN, _IDENTITY)
                    l3 = self.vertex(f"L3_{i}_{r}", ROLE_HIDDEN, _IDENTITY)
                    u1 = self.vertex(f"U1_{i}_{r}", ROLE_HIDDEN, sigma_act)
                    u2 = self.vertex(f"U2_{i}_{r}", ROLE_HIDDEN, sigma_act)
                    u3 = self.vertex(f"U3_{i}_{r}", ROLE_HIDDEN, sigma_act)
                    # Shift bias r rides on the left-operand edge.
                    self.edge(vj, l1, Fraction(1), Fraction(r))
                    self.edge(vk, l1, Fraction(1), Fraction(0))
                    self.edge(vj, l2, Fraction(1), Fraction(r))
                    self.edge(vk, l3, Fraction(1), Fraction(r))
                    for l, u in ((l1, u1), (l2, u2), (l3, u3)):
                        self.edge(l, u, Fraction(1), Fraction(0))
                    self.edge(u1, zid, Fraction(lam_prime[r]), Fraction(0))
                    self.edge(u2, zid, Fraction(-lam_prime[r]), Fraction(0))
                    self.edge(u3, zid, Fraction(-lam_prime[r]), Fraction(0))
                self.vertex(vid, role, _IDENTITY)
                self.edge(zid, vid, inv_d, Fraction(0))
            gate_vertex.append(vid)
        return gate_vertex[-1]


def _sparse(vec: dict[str, Fraction]) -> dict[str, Fraction]:
    return {k: v for k, v in vec.items() if v != 0}


def _aux_samples(
    net: Network,
    plan: Plan,
    sigma: RationalPoly,
    alpha1: int,
    replication: int,
) -> list[Sample]:
    """The forcing samples under ``plan``, theta*'s plan: baseline, one per
    identity-head edge, and one per sigma-edge and shift value.  Each
    appears ``replication`` times (encoded as the sample count).

    A sample with labels y and preactivations pre gets the input
    ``x_v = pre_v - sum over in-edges (u,v) of (w * y_u + b)``.  Every
    sample after the baseline changes y and pre at one edge's tail and
    head only, so its x differs from the baseline's at those two
    vertices and their heads, and only those are recomputed.

    Labels, preactivations and inputs are computed in the engine form of
    :mod:`bitnets.network`, an ``int`` while integral (``int_first``).
    Each nonzero coordinate leaves as the ``Fraction`` this call keeps for
    its value, so equal values in the samples are one object."""
    sigma_of = PolyActivation(sigma).lower()[0]
    sigma_at = [sigma_of(tau) for tau in range(sigma.degree + 1)]
    is_sigma = {v.id: isinstance(v.activation, PolyActivation) for v in net.vertices}
    base_y = {vid: sigma_at[0] if s else 0 for vid, s in is_sigma.items()}
    base_nonzero = {vid: q for vid, q in base_y.items() if q}
    shared: dict[int | Fraction, Fraction] = {}

    def put(vec: dict[str, Fraction], vid: str, q: int | Fraction) -> None:
        """Set one coordinate of a sparse vector to the call's object for
        ``q``, dropping it when ``q`` is zero."""
        if q:
            vec[vid] = shared.get(q) or shared.setdefault(q, Fraction(q))
        else:
            vec.pop(vid, None)

    def x_at(vid: str, labels: dict, pre: dict) -> int | Fraction:
        return pre.get(vid, 0) - reduce_pair(*plan.inflow(vid, labels))

    base_x, base_label = {}, {}
    for vid, q in base_y.items():
        put(base_x, vid, x_at(vid, base_nonzero, {}))
        put(base_label, vid, q)

    def make(y: dict, pre: dict, note: str) -> Sample:
        """The baseline with labels ``y`` and preactivations ``pre`` at
        the vertices they name (the same two vertices in both)."""
        x, label = dict(base_x), dict(base_label)
        labels = {**base_nonzero, **y}
        for vid in set(y).union(*(net.heads[u] for u in y)):
            put(x, vid, x_at(vid, labels, pre))
        for vid, q in y.items():
            put(label, vid, q)
        return Sample(x, label, flag=0, count=replication, note=note)

    samples = [make({}, {}, "baseline")]
    for e in net.edges:
        if is_sigma[e.head]:
            # sigma-edge: pin sigma(w z + b) == sigma(z) at mu+1 points
            for tau, sigma_tau in enumerate(sigma_at):
                y = {e.tail: tau, e.head: sigma_tau}
                pre = {e.tail: tau, e.head: tau}
                samples.append(make(y, pre, f"sigma-edge {e.id} tau={tau}"))
        else:
            # identity-head edge: pin the edge weight (and bias sums)
            bump = sigma_of(alpha1) if is_sigma[e.tail] else 1
            y = {
                e.tail: bump,
                e.head: int_first(plan.pairs[e.id][0] * (bump - base_y[e.tail])),
            }
            pre = {
                e.tail: alpha1 if is_sigma[e.tail] else bump,
                e.head: y[e.head],
            }
            samples.append(make(y, pre, f"id-edge {e.id}"))
    return samples


def _forcing_instance(
    prog: Slp,
    sigma: RationalPoly,
    gap: tuple[int, int],
    label: Fraction | dict[str, Fraction],
    loss: Callable[[str], LossSpec],
    **provenance,
) -> ErmInstance:
    """The ERM instance around the simulation of ``prog``: the forcing
    samples, then one main sample (input the program's constant, label
    ``label``) scored by ``loss(target)``, with the front's ``provenance``.

    Auxiliary samples are replicated gap[1]+1 times and the main sample
    gap[1] times, so any parameter vector within the gap has zero
    auxiliary loss and therefore reproduces the program exactly.
    """
    _check_gap(gap)  # before the counts are taken from it
    builder = _CircuitBuilder(sigma)
    target = builder.build(prog, ROLE_TARGET)
    net = Network(builder.vertices, builder.edges)
    theta_star = Theta(builder.theta)
    alpha1 = _pick_alpha1(sigma)
    plan = Plan(net, theta_star)
    dataset = _aux_samples(net, plan, sigma, alpha1, gap[1] + 1)
    dataset.append(
        Sample(_sparse({"v0": prog.constant}), label, flag=1, count=gap[1], note="main")
    )
    provenance = _provenance(prog, sigma, builder.lam) | provenance | {"alpha1": alpha1}
    inst = ErmInstance(net, theta_star, tuple(dataset), loss(target), gap, provenance)
    inst._cert.kept = plan  # so theta* is lowered once per compiled instance
    return inst


def compile_erm(
    p: Slp,
    sigma: RationalPoly,
    j: int,
    gap: tuple[int, int] = (0, 1),
) -> ErmInstance:
    """Compile a bit-query instance: optimum <= gap[0] iff bit j of n_P is 1."""
    if j < 0:
        raise CompileError(f"bit index must be non-negative, got {j}")
    return _forcing_instance(
        p, sigma, gap, {}, lambda target: LossSpec("bit01", target=target, bit_index=j),
        bit_index=j,
    )


def _pick_alpha1(sigma: RationalPoly) -> int:
    sigma_zero = sigma.evaluate(Fraction(0))
    for candidate in range(1, sigma.degree + 2):
        if sigma.evaluate(Fraction(candidate)) != sigma_zero:
            return candidate
    raise CompileError("no shift separates sigma from sigma(0); sigma is constant?")


def _provenance(p: Slp, sigma: RationalPoly, lam: LambdaCoeffs) -> dict:
    return {
        "slp": p.to_text(),
        "sigma": sigma.to_text(),
        "lambdas": [format_rational(x) for x in lam.lambdas],
        "lambda_prime": list(lam.integer_lambdas),
        "common_denominator": lam.common_denominator,
        "mul_gates": sum(1 for g in p.gates if g.op == "mul"),
    }


def check_zero_aux_loss(
    inst: ErmInstance, theta: Theta, max_bits: int = DEFAULT_MAX_BITS
) -> tuple[bool, Sample | None]:
    """True iff every auxiliary sample reproduces its label exactly under theta.

    On failure, the first violated sample (with its identifying note) is
    returned alongside False.  Samples are checked in dataset order by
    the certificate ``loss_total`` uses (see :mod:`bitnets.network`),
    stopping at the first violation.  Verdicts, returned samples and
    bit-budget errors are those of one full forward pass per auxiliary
    sample in dataset order.
    """
    violated = _cert_of(inst).violated(theta, max_bits)
    return violated is None, violated


def decide_at_theta_star(inst: ErmInstance, max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """YES (True) iff the instance's total loss at theta*, ``loss_total``,
    is at most gap[0]."""
    return _cert_of(inst).loss(inst.theta_star, max_bits) <= inst.gap[0]


def compile_backprop(
    p: Slp,
    sigma: RationalPoly,
    variant: str,
    promise: int | None = None,
    bit_index: int | None = None,
    a0_mode: str = "unit",
) -> BackpropInstance:
    """Compile a gradient-query instance around the simulation core.

    A fresh identity target is appended behind the distinguished edge
    e*, whose weight is the only coordinate queried; at theta* (where
    w_e* = 0) the exact partial derivative equals copies * a0 * n_P for
    the main sample's count ``copies``, the compiled program's constant
    a0 and its output n_P.

    Variant ``sign`` asks for the derivative's sign under a promise gap
    ``promise`` (copies = promise, unit constant 1 only); variant
    ``bit`` asks for one bit (copies = 1).  With
    ``a0_mode="bn-normalized"`` the program is rewritten in bounded-norm
    form first and the queried bit index shifts down by the scale
    exponent (fractional positions are negative indices).
    """
    if p.constant != 1:
        raise CompileError("backprop compilation expects a constant-1 program")
    if a0_mode not in ("unit", "bn-normalized"):
        raise CompileError(f"unknown a0 mode {a0_mode!r}")

    _check_query(variant, promise, bit_index)
    if variant == "sign" and a0_mode != "unit":
        raise CompileError("sign promise gap requires the unit constant")
    copies = promise if variant == "sign" else 1

    shift = 0
    prog = p
    norm: NormalizedSlp | None = None
    if a0_mode == "bn-normalized":
        norm = normalize_bn(p)
        prog = norm.program
        shift = norm.gate_count + norm.scale_exponent

    builder = _CircuitBuilder(sigma)
    last = builder.build(prog, ROLE_HIDDEN)
    out = builder.vertex("out", ROLE_TARGET, _IDENTITY)
    edge_star = builder.edge(last, out, Fraction(0), Fraction(0))
    net = Network(builder.vertices, builder.edges)
    theta_star = Theta(builder.theta)

    a0 = prog.constant
    dataset = (
        Sample(_sparse({"v0": a0}), -a0, flag=1, count=copies, note="main"),
    )
    provenance = _provenance(prog, sigma, builder.lam)
    provenance["a0_mode"] = a0_mode
    provenance["copies"] = copies
    if norm is not None:
        provenance["source_slp"] = p.to_text()
        provenance["bn_gate_count"] = norm.gate_count
        provenance["bn_scale_exponent"] = norm.scale_exponent
    if variant == "bit":
        provenance["requested_bit"] = bit_index
    return BackpropInstance(
        network=net,
        theta_star=theta_star,
        dataset=dataset,
        loss=LossSpec("square", target=out),
        variant=variant,
        edge_star=edge_star,
        promise=promise,
        bit_index=None if variant == "sign" else bit_index - shift,
        provenance=provenance,
    )


def backprop_gradient(
    inst: BackpropInstance, max_bits: int = DEFAULT_MAX_BITS
) -> Fraction:
    """The exact distinguished partial derivative at the instance's theta*."""
    report = gradients(inst.network, inst.theta_star, inst.dataset, inst.loss, max_bits)
    return report.weight_grad[inst.edge_star]


def compile_hinge_posslp(
    p: Slp,
    sigma: RationalPoly,
    copies: int = 1,
    low: int = 0,
) -> ErmInstance:
    """Sign-query instance under the standard hinge loss.

    The compiled network evaluates the derived value 2*n_P - 1, which is
    never zero for integer outputs; with labels +1 the per-sample hinge
    loss at theta* is 0 when n_P > 0 and at least 2 otherwise.  The
    instance's promise gap is (low, copies): the positive side costs 0
    and the other side at least 2*copies.
    """
    if p.constant != 1:
        raise CompileError("hinge compilation expects a constant-1 program")
    n = p.n_gates
    doubled = Slp(
        p.constant,
        p.gates + (Gate("add", n, n), Gate("sub", n + 1, 0)),
    )
    return _forcing_instance(
        doubled, sigma, (low, copies), Fraction(1), lambda t: LossSpec("hinge", target=t),
        derived_output="2*n_P-1", source_slp=p.to_text(),
    )


@dataclass(frozen=True)
class GadgetReport:
    """Size accounting for a compiled instance."""

    add_gates: int
    sub_gates: int
    mul_gates: int
    vertices: int
    edges: int
    aux_vertices_per_mul: int
    distinct_samples: int
    sample_entries: int
    theta_entry_bits: tuple[int, ...]

    @property
    def max_theta_bits(self) -> int:
        return max(self.theta_entry_bits)


def gadget_report(inst: ErmInstance | BackpropInstance) -> GadgetReport:
    p = parse_slp(inst.provenance["slp"])
    mu = RationalPoly.from_text(inst.provenance["sigma"]).degree
    ops = [g.op for g in p.gates]
    theta_bits = tuple(
        bit_length(value)
        for eid in sorted(inst.theta_star.params)
        for value in inst.theta_star.params[eid]
    )
    return GadgetReport(
        add_gates=ops.count("add"),
        sub_gates=ops.count("sub"),
        mul_gates=ops.count("mul"),
        vertices=len(inst.network.vertices),
        edges=len(inst.network.edges),
        aux_vertices_per_mul=6 * (mu + 1) + 1,
        distinct_samples=len(inst.dataset),
        sample_entries=sum(s.count for s in inst.dataset),
        theta_entry_bits=theta_bits,
    )
