"""Piecewise-linear activations, bit-bounded wrappers, one exact
gradient-descent step, and the restricted-ERM witness verifier.

Piecewise-linear activations keep bit-lengths additive instead of
multiplicative, so a full forward/backward pass over rationals runs in
polynomial time; :func:`gd_step` instruments the operation count and
peak bit-length to make that bound checkable.  :func:`verify_witness`
is the NP-verification side: given an instance, a candidate parameter
vector and a loss threshold, it checks the encoding-length bound and
the exact loss.

Both activation classes here subclass :class:`bitnets.network.Activation`
and are in its ``step_family``, a bit-bounded wrapper whatever its base;
``gd_step`` asks each activation for ``step_family`` and
``is_continuous`` rather than test its type.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .network import (
    Activation,
    GradientReport,
    LossSpec,
    Network,
    NetworkError,
    Sample,
    Theta,
    gradients,
    int_first,
    loss_total,
    not_rational,
)
from .rationals import (
    DEFAULT_MAX_BITS,
    add_reduced,
    bit_length,
    format_rational,
    mul_reduced,
    round_to_dyadic,
)


@dataclass(frozen=True)
class PwlActivation(Activation):
    """Piecewise-linear map with rational breakpoints, slopes and intercepts.

    ``pieces[i]`` is the (slope, intercept) pair on the i-th interval;
    there is one more piece than breakpoints.  The value at a breakpoint
    comes from the piece to its right.  Continuity is not required.
    ``kink_slope`` picks which piece's slope the derivative reports
    exactly at a breakpoint ("right" by default).
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]
    kink_slope: str = "right"
    kind = "pwl"

    def __post_init__(self) -> None:
        bps = tuple(Fraction(b) for b in self.breakpoints)
        pcs = tuple((Fraction(a), Fraction(c)) for a, c in self.pieces)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise NetworkError("breakpoints must be strictly increasing")
        if len(pcs) != len(bps) + 1:
            raise NetworkError(
                f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, got {len(pcs)}"
            )
        if self.kink_slope not in ("right", "left"):
            raise NetworkError("kink_slope must be 'right' or 'left'")

    @property
    def is_continuous(self) -> bool:
        for i, b in enumerate(self.breakpoints):
            al, cl = self.pieces[i]
            ar, cr = self.pieces[i + 1]
            if al * b + cl != ar * b + cr:
                return False
        return True

    def piece_index(self, z: int | Fraction) -> int:
        """Index of the piece supplying the value at z (right-closed rule)."""
        return bisect_right(self.breakpoints, z)

    def eval(self, z: int | Fraction) -> Fraction:
        a, c = self.pieces[self.piece_index(z)]
        return a * z + c

    def derivative(self, z: int | Fraction) -> Fraction:
        idx = self.piece_index(z)
        if self.kink_slope == "left" and idx > 0 and self.breakpoints[idx - 1] == z:
            idx -= 1
        return self.pieces[idx][0]

    def lower(self) -> tuple[Callable, Callable]:
        """The int-first (eval, derivative) pair, in integer arithmetic.  A z
        is placed by the sign of its numerator first, so a breakpoint of 0
        takes no comparison, then among the breakpoints of its sign.  A
        piece of slope 1 and intercept 0 returns z, one of slope 0 its
        intercept, any other ``a * z + c`` by ``mul_reduced`` and
        ``add_reduced``."""
        bps, left = self.breakpoints, self.kink_slope == "left"
        neg, pos = bisect_left(bps, 0), bisect_right(bps, 0)  # bps[:neg] < 0 < bps[pos:]
        slopes = [int_first(a) for a, _ in self.pieces]
        values = [_affine(a, int_first(c)) for a, (_, c) in zip(slopes, self.pieces)]

        def index(z: int | Fraction) -> int:
            n = z.numerator
            if n > 0:
                return bisect_right(bps, z, pos)
            return pos if n == 0 else bisect_right(bps, z, 0, neg)

        def slope(z: int | Fraction) -> int | Fraction:
            i = index(z)
            if left and i and bps[i - 1] == z:
                i -= 1
            return slopes[i]

        return (lambda z: values[index(z)](z)), slope

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [[format_rational(a), format_rational(c)] for a, c in self.pieces],
            "kink_slope": self.kink_slope,
        }


def _affine(a: int | Fraction, c: int | Fraction) -> Callable:
    """``z -> a * z + c`` on int-first values: z itself for slope 1 and
    intercept 0, c for slope 0, else the crosswise product and Henrici's sum."""
    if a == 0:
        return lambda z: c
    if a == 1 and c == 0:
        return lambda z: z
    an, ad, cn, cd = a.numerator, a.denominator, c.numerator, c.denominator
    return lambda z: add_reduced(*mul_reduced(an, ad, z.numerator, z.denominator), cn, cd)


def relu() -> PwlActivation:
    return PwlActivation((Fraction(0),), ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))


def leaky_relu(negative_slope: Fraction) -> PwlActivation:
    return PwlActivation(
        (Fraction(0),),
        ((Fraction(negative_slope), Fraction(0)), (Fraction(1), Fraction(0))),
    )


@dataclass(frozen=True)
class BitBoundedActivation(Activation):
    """Wrapper that rounds a base activation's outputs to k-bit dyadics.

    The base is clipped to ``clip`` (when given) before rounding, so
    outputs always have denominator dividing ``2**bits``.  The backprop
    rule is the declared derivative oracle; the default is the
    unwrapped base derivative.
    """

    base: Activation
    bits: int
    clip: tuple[Fraction, Fraction] | None = None
    kind = "bitbounded"

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise NetworkError("bit-bounded activation needs bits >= 1")
        # a finer rounding than the default bit budget only yields values above it
        if self.bits > DEFAULT_MAX_BITS:
            raise NetworkError(f"bit-bounded activation needs bits <= {DEFAULT_MAX_BITS}")
        if self.clip is not None:
            lo, hi = self.clip
            if lo > hi:
                raise NetworkError("clip interval is empty")
            object.__setattr__(self, "clip", (Fraction(lo), Fraction(hi)))

    def eval(self, z: Fraction) -> Fraction:
        y = self.base.eval(z)
        if self.clip is not None:
            lo, hi = self.clip
            y = min(max(y, lo), hi)
        return round_to_dyadic(y, self.bits)

    def derivative(self, z: Fraction) -> Fraction:
        return self.base.derivative(z)

    @property
    def is_continuous(self) -> bool:
        return self.base.is_continuous

    def to_doc(self) -> dict:
        clip = {} if self.clip is None else {"clip": [format_rational(q) for q in self.clip]}
        return {"kind": self.kind, "base": self.base.to_doc(), "bits": self.bits, **clip}


@dataclass(frozen=True)
class GdStepReport(GradientReport):
    """The gradients of one exact descent step, the updated ``theta`` and
    whether an activation is discontinuous; ``ops`` includes the update's
    four per edge."""

    theta: Theta
    discontinuous: bool


def gd_step(
    net: Network,
    theta: Theta,
    dataset: Sequence[Sample],
    spec: LossSpec,
    eta: Fraction,
    max_bits: int = DEFAULT_MAX_BITS,
) -> GdStepReport:
    """theta <- theta - eta * grad(total loss), exactly.

    Every activation must be in the ``step_family`` (piecewise-linear,
    identity, bit-bounded): its backward pass is polynomial-time in the
    bit model.  The report flags an activation that is not ``is_continuous``,
    since the derivative convention at its breakpoints is ours, not intrinsic.
    ``eta`` must be an ``int`` or a ``Fraction``, else ``NetworkError`` at
    ``eta``.  Each step ``-eta * g`` is formed reduced, by cancelling eta's
    small terms crosswise against g (``rationals.mul_reduced``), and added to
    the reduced parameter by Henrici's rule (``rationals.add_reduced``), whose
    gcds run against the denominators' shared factor only.  The in-edges of a
    vertex share one bias gradient, so its step is formed once per vertex.
    A zero gradient keeps its parameter.
    """
    inner = [v for v in net.vertices if v.activation is not None]
    for v in inner:
        if not v.activation.step_family:
            raise NetworkError(
                f"vertex {v.id}: activation kind {v.activation.kind!r} is outside "
                "the polynomial-time step families (pwl/identity/bit-bounded)"
            )
    discontinuous = not all(v.activation.is_continuous for v in inner)

    if type(eta) not in (int, Fraction):
        raise not_rational(eta, "eta")
    en, ed = eta.numerator, eta.denominator
    report = gradients(net, theta, dataset, spec, max_bits)

    def step(g: Fraction) -> tuple[int, int]:
        """``-eta * g`` as a reduced pair."""
        return mul_reduced(-en, ed, g.numerator, g.denominator)

    def descend(q: Fraction, delta: tuple[int, int]) -> Fraction:
        """``q`` plus the reduced pair ``delta``."""
        if not delta[0]:
            return Fraction(q)
        return Fraction(add_reduced(q.numerator, q.denominator, *delta))

    bias_steps = {}  # by head vertex: its in-edges share one bias gradient
    updated: dict[str, tuple[Fraction, Fraction]] = {}
    for e in net.edges:
        w, b = theta.params[e.id]
        if e.head not in bias_steps:
            bias_steps[e.head] = step(report.bias_grad[e.id])
        updated[e.id] = (descend(w, step(report.weight_grad[e.id])), descend(b, bias_steps[e.head]))
    fields = vars(report) | {"ops": report.ops + 4 * len(net.edges)}
    return GdStepReport(**fields, theta=Theta(updated), discontinuous=discontinuous)


ACCEPT = "accept"
REJECT_LOSS = "reject(loss too high)"
REJECT_ENCODING = "reject(encoding too long)"


@dataclass(frozen=True)
class WitnessVerdict:
    verdict: str
    encoding_length: int
    encoding_cap: int
    loss: Fraction | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT


def _encoding_cap(c1: int, size: int, c2: int) -> int:
    """``c1 * size**c2`` for a size >= 1, or ``ValueError`` when its
    ``bit_length`` exceeds ``DEFAULT_MAX_BITS``.  The power is built only
    after its bit length is bounded from those of ``c1`` and ``size``, so a
    huge exponent is refused at once rather than computed."""
    if c1 == 0:
        return 0
    # the product has at least (c1.bit_length() - 1) + c2 * (size.bit_length() - 1) + 1
    # binary digits; bit_length counts one more, for the denominator 1
    if c1.bit_length() + c2 * (size.bit_length() - 1) + 1 <= DEFAULT_MAX_BITS:
        cap = c1 * size**c2  # at most 3 * DEFAULT_MAX_BITS bits
        if bit_length(cap) <= DEFAULT_MAX_BITS:
            return cap
    raise ValueError(
        f"encoding cap C1 * |I|**C2 has more than {DEFAULT_MAX_BITS} bits (|I| = {size})"
    )


def verify_witness(
    inst,
    theta: Theta,
    gamma: Fraction,
    enc_bound: tuple[int, int] = (4, 2),
    max_bits: int = DEFAULT_MAX_BITS,
) -> WitnessVerdict:
    """Check a candidate parameter vector against an instance.

    A ``gamma`` that is not an ``int`` or a ``Fraction`` is refused first, by
    a ``NetworkError`` at ``gamma``.  A theta that is not one (weight, bias) pair of ``int`` or ``Fraction``
    values per edge of the network raises the located ``NetworkError`` of
    ``Theta.check_against`` before its encoding is measured.  The witness
    encoding length is the byte length of the canonical serialized theta,
    counted from digit counts without rendering it; it must not exceed
    C1 * |I|**C2 where |I| is the canonical instance byte length;
    ``enc_bound`` (C1, C2) must be two non-negative ``int`` values, and the
    cap must have at most ``DEFAULT_MAX_BITS`` bits whatever ``max_bits``
    the loss runs under, else ``ValueError``.  Within the bound, the witness
    loss is ``loss_total`` of the instance's network, dataset and loss,
    which scores it on a fresh certificate of :mod:`bitnets.network`, and
    is compared against gamma.  A witness is a trained vector, not a shift
    of theta*, so it is lowered whole, and the call reads and keeps nothing
    of the certificate an ``ErmInstance`` keeps.  Always returns a
    three-way verdict.
    """
    from .instances import instance_size, theta_size

    if type(gamma) not in (int, Fraction):
        raise not_rational(gamma, "gamma")
    try:
        c1, c2 = enc_bound
    except (TypeError, ValueError):
        c1 = c2 = None
    if not all(type(c) is int and c >= 0 for c in (c1, c2)):
        raise ValueError(f"enc_bound must be two non-negative integers, got {enc_bound!r}")
    cap = _encoding_cap(c1, instance_size(inst), c2)
    theta.check_against(inst.network)
    enc_len = theta_size(theta)
    if enc_len > cap:
        return WitnessVerdict(REJECT_ENCODING, enc_len, cap)
    loss = loss_total(inst.network, theta, inst.dataset, inst.loss, max_bits)
    if loss > gamma:
        return WitnessVerdict(REJECT_LOSS, enc_len, cap, loss)
    return WitnessVerdict(ACCEPT, enc_len, cap, loss)
