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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .network import (
    Activation,
    GradientReport,
    LossSpec,
    Network,
    NetworkError,
    Sample,
    Theta,
    gradients,
    loss_total,
)
from .rationals import DEFAULT_MAX_BITS, format_rational, round_to_dyadic


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

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [[format_rational(a), format_rational(c)] for a, c in self.pieces],
            "kink_slope": self.kink_slope,
        }


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
    """
    inner = [v for v in net.vertices if v.activation is not None]
    for v in inner:
        if not v.activation.step_family:
            raise NetworkError(
                f"vertex {v.id}: activation kind {v.activation.kind!r} is outside "
                "the polynomial-time step families (pwl/identity/bit-bounded)"
            )
    discontinuous = not all(v.activation.is_continuous for v in inner)

    eta = Fraction(eta)
    report = gradients(net, theta, dataset, spec, max_bits)
    updated: dict[str, tuple[Fraction, Fraction]] = {}
    for e in net.edges:
        w, b = theta.params[e.id]
        updated[e.id] = (
            w - eta * report.weight_grad[e.id],
            b - eta * report.bias_grad[e.id],
        )
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


def verify_witness(
    inst,
    theta: Theta,
    gamma: Fraction,
    enc_bound: tuple[int, int] = (4, 2),
    max_bits: int = DEFAULT_MAX_BITS,
) -> WitnessVerdict:
    """Check a candidate parameter vector against an instance.

    The witness encoding length is the byte length of the canonical
    serialized theta, counted from digit counts without rendering it; it
    must not exceed C1 * |I|**C2 where |I| is the canonical instance byte
    length.  Within the bound, the exact total loss is compared against
    gamma.  Always returns a three-way verdict.
    """
    from .instances import instance_size, theta_size

    c1, c2 = enc_bound
    cap = c1 * instance_size(inst) ** c2
    enc_len = theta_size(theta)
    if enc_len > cap:
        return WitnessVerdict(REJECT_ENCODING, enc_len, cap)
    loss = loss_total(inst.network, theta, inst.dataset, inst.loss, max_bits)
    if loss > Fraction(gamma):
        return WitnessVerdict(REJECT_LOSS, enc_len, cap, loss)
    return WitnessVerdict(ACCEPT, enc_len, cap, loss)
