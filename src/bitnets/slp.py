"""Numeric straight-line programs.

An SLP is a constant gate followed by gates that add, subtract or
multiply two earlier gates.  This module holds the text format, the
exact gate-by-gate evaluator (the brute-force ground truth for bit and
sign queries on desk-scale instances), and the bounded-norm rewrite
that scales a constant-1 program so every intermediate value lands in
``[-1, 1]``.

Text format (``.slp`` files)::

    # comment
    const 1          # gate 0 holds the constant
    add 0 0          # gate 1 = gate0 + gate0
    mul 1 1          # gate 2 = gate1 * gate1

Operand indices refer to gate 0 or to earlier gates only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import (
    DEFAULT_MAX_BITS,
    bit_extract,
    check_bits,
    format_rational,
    parse_rational,
)

OPS = ("add", "sub", "mul")


class SlpError(ValueError):
    """Invalid straight-line program."""


class SlpSyntaxError(SlpError):
    """Malformed program text; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Gate:
    op: str
    left: int
    right: int


@dataclass(frozen=True)
class Slp:
    """A validated program: gate 0 is ``constant``, gate i is ``gates[i-1]``."""

    constant: Fraction
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        for i, g in enumerate(self.gates, start=1):
            if g.op not in OPS:
                raise SlpError(f"gate {i}: unknown op {g.op!r}")
            if not (0 <= g.left < i and 0 <= g.right < i):
                raise SlpError(
                    f"gate {i}: operands must reference earlier gates, "
                    f"got ({g.left}, {g.right})"
                )

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def to_text(self) -> str:
        lines = [f"const {format_rational(self.constant)}"]
        lines.extend(f"{g.op} {g.left} {g.right}" for g in self.gates)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SlpValueReport:
    """Exact evaluation result with per-gate size instrumentation.

    ``gate_bits[i]`` is the bit-length of the reduced value at gate i
    (entry 0 is the constant).
    """

    value: Fraction
    gate_bits: tuple[int, ...]
    max_bits: int


def parse_slp(text: str) -> Slp:
    """Parse program text; ``#`` starts a comment, blank lines are skipped."""
    constant: Fraction | None = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if constant is None:
            if parts[0] != "const" or len(parts) != 2:
                raise SlpSyntaxError(line_no, "expected 'const <rational>'")
            try:
                constant = parse_rational(parts[1])
            except ValueError as exc:
                raise SlpSyntaxError(line_no, str(exc)) from None
            continue
        if parts[0] not in OPS or len(parts) != 3:
            raise SlpSyntaxError(line_no, "expected '<add|sub|mul> <j> <k>'")
        try:
            left, right = int(parts[1]), int(parts[2])
        except ValueError:
            raise SlpSyntaxError(line_no, "operand indices must be integers") from None
        idx = len(gates) + 1
        if not (0 <= left < idx and 0 <= right < idx):
            raise SlpSyntaxError(
                line_no, f"gate {idx} references undefined gate (forward reference)"
            )
        gates.append(Gate(parts[0], left, right))
    if constant is None:
        raise SlpSyntaxError(0, "missing 'const' line")
    return Slp(constant, tuple(gates))


def eval_slp(p: Slp, max_bits: int = DEFAULT_MAX_BITS) -> SlpValueReport:
    """Evaluate every gate exactly.

    Raises :class:`~bitnets.rationals.BitBudgetError` as soon as any
    intermediate reduced value exceeds ``max_bits``; such an instance is
    beyond desk scale for the brute-force oracle.
    """
    values = [p.constant]
    bits = [check_bits(p.constant, max_bits, "gate 0")]
    for i, g in enumerate(p.gates, start=1):
        a, b = values[g.left], values[g.right]
        if g.op == "add":
            v = a + b
        elif g.op == "sub":
            v = a - b
        else:
            v = a * b
        values.append(v)
        bits.append(check_bits(v, max_bits, f"gate {i}"))
    return SlpValueReport(values[-1], tuple(bits), max(bits))


def bit_of_slp(p: Slp, j: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """The j-th LSB binary digit of the program's value (brute force)."""
    return bit_extract(eval_slp(p, max_bits).value, j)


def sign_of_slp(p: Slp, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Exact sign of the program's value: -1, 0 or 1."""
    v = eval_slp(p, max_bits).value
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class NormalizedSlp:
    """Result of :func:`normalize_bn`.

    ``program`` has constant ``2**-gate_count`` and satisfies
    ``eval(program) == 2**-scale_exponent * eval(original)`` with every
    intermediate gate value in ``[-1, 1]``.
    """

    program: Slp
    gate_count: int
    scale_exponent: int


def normalize_bn(p: Slp) -> NormalizedSlp:
    """Rewrite a constant-1 program into its bounded-norm form.

    The emitted gates depend only on the exponent bookkeeping, never on
    the constant's value, so they are emitted once and their number m
    fixes the constant ``2**-m``.
    """
    if p.constant != 1:
        raise SlpError(
            f"bounded-norm rewrite requires constant 1, got {format_rational(p.constant)}"
        )
    gates = _bn_emit(p)
    m = len(gates)
    return NormalizedSlp(Slp(Fraction(1, 1 << m), gates), m, m << p.n_gates)


@dataclass
class _BnBuilder:
    gates: list[Gate]

    def new_gate(self, op: str, left: int, right: int) -> int:
        self.gates.append(Gate(op, left, right))
        return len(self.gates)

    def times_b0_pow(self, src: int, t: int) -> int:
        """Multiply gate ``src`` by b0**t with O(log t) gates.

        Squares gate 0 repeatedly to get b0**(2**r), then multiplies the
        powers selected by t's binary digits into ``src``.
        """
        if t == 0:
            return src
        top = t.bit_length() - 1
        powers = [0]
        for _ in range(top):
            powers.append(self.new_gate("mul", powers[-1], powers[-1]))
        out = src
        for r in range(top + 1):
            if (t >> r) & 1:
                out = self.new_gate("mul", out, powers[r])
        return out


def _bn_emit(p: Slp) -> tuple[Gate, ...]:
    b = _BnBuilder([])
    # idx[i] = gate of the rewritten program holding b0**exp[i] * value(gate i).
    idx = [0]
    exp = [1]
    for g in p.gates:
        ej, ek = exp[g.left], exp[g.right]
        if g.op == "mul":
            idx.append(b.new_gate("mul", idx[g.left], idx[g.right]))
            exp.append(ej + ek)
        else:
            aligned = max(ej, ek)
            lj = b.times_b0_pow(idx[g.left], aligned - ej)
            lk = b.times_b0_pow(idx[g.right], aligned - ek)
            idx.append(b.new_gate(g.op, lj, lk))
            exp.append(aligned)
    # Final alignment raises the output's exponent to exactly 2**n.
    b.times_b0_pow(idx[-1], (1 << p.n_gates) - exp[-1])
    return tuple(b.gates)
