"""Straight-line programs: parsing, exact evaluation, bounded-norm rewrite."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitnets.rationals import BitBudgetError
from bitnets.slp import (
    Gate,
    Slp,
    SlpError,
    SlpSyntaxError,
    bit_of_slp,
    eval_slp,
    normalize_bn,
    parse_slp,
    sign_of_slp,
)


def squaring_chain(length: int) -> Slp:
    """const 1; add 0 0; then length-1 squarings: value 2**(2**(length-1))."""
    gates = [Gate("add", 0, 0)]
    for i in range(1, length):
        gates.append(Gate("mul", i, i))
    return Slp(Fraction(1), tuple(gates))


def random_slp(rng: random.Random, n_gates: int, constant=Fraction(1)) -> Slp:
    gates = []
    for i in range(1, n_gates + 1):
        gates.append(
            Gate(rng.choice(("add", "sub", "mul")), rng.randrange(i), rng.randrange(i))
        )
    return Slp(constant, tuple(gates))


def gate_values(p: Slp) -> list[Fraction]:
    """Every gate's value, constant first."""
    values = [p.constant]
    for g in p.gates:
        a, b = values[g.left], values[g.right]
        values.append(a + b if g.op == "add" else a - b if g.op == "sub" else a * b)
    return values


class TestParsing:
    def test_single_add(self):
        p = parse_slp("const 1\nadd 0 0\n")
        assert p.constant == 1
        assert p.gates == (Gate("add", 0, 0),)

    def test_squaring_chain_text(self):
        p = parse_slp("const 1\nadd 0 0\nmul 1 1\nmul 2 2\n")
        assert p.n_gates == 3

    def test_comments_and_blank_lines(self):
        p = parse_slp("# header\n\nconst 1/2  # the constant\nmul 0 0\n")
        assert p.constant == Fraction(1, 2)

    def test_forward_reference_rejected(self):
        with pytest.raises(SlpSyntaxError) as err:
            parse_slp("const 1\nadd 2 0\n")
        assert "line 2" in str(err.value)

    def test_missing_const(self):
        with pytest.raises(SlpSyntaxError):
            parse_slp("add 0 0\n")

    def test_bad_op(self):
        with pytest.raises(SlpSyntaxError) as err:
            parse_slp("const 1\ndiv 0 0\n")
        assert "line 2" in str(err.value)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_slp(rng, rng.randint(1, 12))
            assert parse_slp(p.to_text()) == p

    def test_constructor_validates(self):
        with pytest.raises(SlpError):
            Slp(Fraction(1), (Gate("add", 0, 1),))


class TestEvaluation:
    def test_squaring_chain_value(self):
        report = eval_slp(squaring_chain(3))
        assert report.value == 16

    def test_squaring_chain_growth(self):
        # gate i holds 2**(2**(i-1)): numerator bit-length 2**(i-1) + 1,
        # doubling at every multiplication gate; exact up to length 20
        for length in (4, 8, 12, 16, 20):
            report = eval_slp(squaring_chain(length))
            assert report.value == Fraction(2) ** (2 ** (length - 1))
            for i in range(1, length + 1):
                expected_num_bits = 2 ** (i - 1) + 1
                assert report.gate_bits[i] == expected_num_bits + 1  # +1 denominator

    def test_fraction_constant(self):
        assert eval_slp(parse_slp("const 1/2\nmul 0 0\n")).value == Fraction(1, 4)

    def test_direct_big_integer_oracle(self):
        # independent oracle: evaluate with raw ints for integer programs
        rng = random.Random(23)
        for _ in range(50):
            p = random_slp(rng, rng.randint(1, 10))
            ints = [1]
            for g in p.gates:
                a, b = ints[g.left], ints[g.right]
                ints.append(a + b if g.op == "add" else a - b if g.op == "sub" else a * b)
            assert eval_slp(p).value == ints[-1]

    def test_bit_budget(self):
        with pytest.raises(BitBudgetError):
            eval_slp(squaring_chain(8), max_bits=64)


class TestBitAndSign:
    def test_bits_of_sixteen(self):
        p = squaring_chain(3)
        assert bit_of_slp(p, 4) == 1
        assert bit_of_slp(p, 3) == 0

    def test_bit_of_fraction(self):
        p = parse_slp("const 11/4\nadd 0 0\nsub 1 0\n")  # value 11/4
        assert bit_of_slp(p, 0) == 0  # floor(11/4) = 2

    def test_signs(self):
        assert sign_of_slp(parse_slp("const 1\nsub 0 0\n")) == 0
        assert sign_of_slp(parse_slp("const 1\nadd 0 0\n")) == 1
        assert sign_of_slp(parse_slp("const 1\nsub 0 0\nsub 1 0\n")) == -1


class TestBoundedNorm:
    def test_single_add_example(self):
        result = normalize_bn(parse_slp("const 1\nadd 0 0\n"))
        n = 1
        assert result.program.constant == Fraction(1, 1 << result.gate_count)
        assert result.scale_exponent == result.gate_count * 2**n
        value = eval_slp(result.program).value
        assert value == Fraction(2, 1 << result.scale_exponent)

    def test_power_gadget_decomposition(self):
        # multiplying by b0**5 with b0 = 1/2 divides by 32 (5 = 101 binary)
        from bitnets.slp import _BnBuilder

        builder = _BnBuilder([])
        out = builder.times_b0_pow(0, 5)
        program = Slp(Fraction(1, 2), tuple(builder.gates))
        assert eval_slp(program).value == Fraction(1, 2) * Fraction(1, 32)
        assert out == len(builder.gates)

    def test_requires_constant_one(self):
        with pytest.raises(SlpError):
            normalize_bn(parse_slp("const 2\nadd 0 0\n"))

    def test_oracle_consistency_random(self):
        # eval(Q) * 2**(m * 2**n) == eval(P) exactly, all gates in [-1, 1]
        rng = random.Random(5)
        for _ in range(30):
            p = random_slp(rng, rng.randint(1, 12))
            n_p = eval_slp(p).value
            result = normalize_bn(p)
            report = eval_slp(result.program)
            assert report.value * Fraction(2) ** result.scale_exponent == n_p
            assert all(-1 <= v <= 1 for v in gate_values(result.program))

    def test_gate_count_quadratic_bound(self):
        # emitted gate count stays within 6*n^2 + 4n (measured envelope)
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 14)
            p = random_slp(rng, n)
            result = normalize_bn(p)
            assert result.gate_count <= 6 * n * n + 4 * n

    def test_count_matches_emission(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_slp(rng, rng.randint(1, 10))
            result = normalize_bn(p)
            assert result.program.n_gates == result.gate_count

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_normalize_property(self, data):
        # any constant-1 program of at most 8 gates
        n = data.draw(st.integers(0, 8))
        p = Slp(Fraction(1), tuple(
            Gate(data.draw(st.sampled_from(("add", "sub", "mul"))),
                 data.draw(st.integers(0, i - 1)), data.draw(st.integers(0, i - 1)))
            for i in range(1, n + 1)
        ))
        result = normalize_bn(p)
        values = gate_values(result.program)
        assert values[-1] * 2**result.scale_exponent == eval_slp(p).value
        assert all(-1 <= v <= 1 for v in values)
        assert result.program.n_gates == result.gate_count

    def test_gateless_program(self):
        result = normalize_bn(Slp(Fraction(1)))
        assert result.gate_count == 0
        assert eval_slp(result.program).value == 1

    def test_bit_queries_shift_to_fractional_positions(self):
        # scaling by 2**-s moves bit j of the original value to position
        # j - s of the normalized value, readable via negative indices
        rng = random.Random(8)
        for _ in range(10):
            p = random_slp(rng, rng.randint(1, 8))
            result = normalize_bn(p)
            s = result.scale_exponent
            for j in range(0, 9, 3):
                assert bit_of_slp(result.program, j - s) == bit_of_slp(p, j)


class TestMoreParsing:
    def test_bad_const_literal(self):
        with pytest.raises(SlpSyntaxError) as err:
            parse_slp("const 2/4\nadd 0 0\n")
        assert "line 1" in str(err.value)

    def test_non_integer_operands(self):
        with pytest.raises(SlpSyntaxError):
            parse_slp("const 1\nadd x 0\n")

    def test_unknown_op_in_constructor(self):
        with pytest.raises(SlpError):
            Slp(Fraction(1), (Gate("pow", 0, 0),))

    def test_bit_and_sign_propagate_budget_error(self):
        from bitnets.rationals import BitBudgetError

        deep = squaring_chain(10)
        with pytest.raises(BitBudgetError):
            bit_of_slp(deep, 0, max_bits=64)
        with pytest.raises(BitBudgetError):
            sign_of_slp(deep, max_bits=64)
