"""Command-line front end.

Subcommands mirror the library surface: ``slp`` (evaluate / bit / sign
/ normalize), ``lambda`` (product-identity coefficients), ``compile``
(erm / backprop instances), ``net`` (forward / gradient on instance
files), ``verify`` (witness checking), ``pwl`` (one exact GD step),
``pac`` (lower-bound simulation) and ``bench`` (depth-growth CSV).

Exit codes: 0 success or YES/accept, 1 NO/reject, 2 usage error,
3 bit budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bench import ACTIVATIONS, depth_growth_experiment, rows_to_csv
from .instances import (
    SchemaError,
    parse_instance,
    parse_theta,
    serialize_instance,
    serialize_theta,
)
from .network import NetworkError, forward, gradients
from .pac import LEARNERS, simulate_lower_bound
from .product_identity import (
    RationalPoly,
    solve_lambda,
    verify_product_identity,
)
from .pwl import gd_step, verify_witness
from .rationals import (
    DEFAULT_MAX_BITS,
    BitBudgetError,
    format_rational,
    parse_rational,
)
from .reductions import compile_backprop, compile_erm, compile_hinge_posslp
from .slp import bit_of_slp, eval_slp, normalize_bn, parse_slp, sign_of_slp

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BIT_BUDGET = 3


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _sigma(text: str) -> RationalPoly:
    try:
        return RationalPoly.from_text(text)
    except ValueError as exc:
        raise UsageError(f"bad --sigma/--poly value: {exc}") from None


def _load_slp(path: str):
    return parse_slp(_read(path))


# ---------------------------------------------------------------------------
# slp


def cmd_slp_eval(args) -> int:
    report = eval_slp(_load_slp(args.file), args.max_bits)
    print(f"value {format_rational(report.value)}")
    print(f"max-bits {report.max_bits}")
    print(f"gate-bits {' '.join(map(str, report.gate_bits))}")
    return EXIT_OK


def cmd_slp_bit(args) -> int:
    bit = bit_of_slp(_load_slp(args.file), args.j, args.max_bits)
    print(f"bit[{args.j}] {bit}")
    return EXIT_OK if bit == 1 else EXIT_NO


def cmd_slp_sign(args) -> int:
    sign = sign_of_slp(_load_slp(args.file), args.max_bits)
    print({1: "positive", 0: "zero", -1: "negative"}[sign])
    return EXIT_OK if sign > 0 else EXIT_NO


def cmd_slp_normalize(args) -> int:
    result = normalize_bn(_load_slp(args.file))
    _write(args.output, result.program.to_text())
    print(f"gates {result.gate_count}")
    print(f"scale-exponent {result.scale_exponent}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lambda


def cmd_lambda_solve(args) -> int:
    lam = solve_lambda(_sigma(args.poly))
    print("lambda " + " ".join(format_rational(x) for x in lam.lambdas))
    print(f"D {lam.common_denominator}")
    print("lambda-int " + " ".join(map(str, lam.integer_lambdas)))
    return EXIT_OK


def cmd_lambda_verify(args) -> int:
    sigma = _sigma(args.poly)
    lam = solve_lambda(sigma)
    report = verify_product_identity(sigma, lam, args.trials, args.seed)
    print(report.message)
    return EXIT_OK if report.passed else EXIT_NO


# ---------------------------------------------------------------------------
# compile


def cmd_compile_erm(args) -> int:
    program = _load_slp(args.input)
    sigma = _sigma(args.sigma)
    if args.loss == "bit01":
        if args.j is None:
            raise UsageError("--j is required for the bit01 loss")
        inst = compile_erm(program, sigma, args.j, tuple(args.gap))
    else:
        if args.j is not None:
            raise UsageError("--j does not apply to the hinge loss (sign query)")
        inst = compile_hinge_posslp(
            program, sigma, copies=args.gap[1], low=args.gap[0]
        )
    _write(args.output, serialize_instance(inst))
    print(f"wrote {args.output}: {len(inst.network.vertices)} vertices, "
          f"{len(inst.network.edges)} edges, {len(inst.dataset)} samples")
    return EXIT_OK


def cmd_compile_backprop(args) -> int:
    program = _load_slp(args.input)
    sigma = _sigma(args.sigma)
    mode = "bn-normalized" if args.bn else "unit"
    if args.variant == "sign":
        if args.j is not None:
            raise UsageError("--j does not apply to the sign variant")
        inst = compile_backprop(
            program, sigma, "sign", promise=1 if args.copies is None else args.copies,
            a0_mode=mode,
        )
    else:
        if args.j is None:
            raise UsageError("--j is required for the bit variant")
        if args.copies is not None:
            raise UsageError("--copies does not apply to the bit variant")
        inst = compile_backprop(
            program, sigma, "bit", bit_index=args.j, a0_mode=mode
        )
    _write(args.output, serialize_instance(inst))
    print(f"wrote {args.output}: edge-star {inst.edge_star}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# net


def _parse_inputs(pairs, vertices) -> dict[str, Fraction]:
    x = {}
    for item in pairs or ():
        if "=" not in item:
            raise UsageError(f"--input expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in vertices:
            raise UsageError(f"--input names unknown vertex {name!r}")
        x[name] = parse_rational(value)
    return x


def cmd_net_eval(args) -> int:
    inst = parse_instance(_read(args.instance))
    if args.input:
        x = _parse_inputs(args.input, inst.network.vertex_map)
    elif inst.dataset:
        x = inst.dataset[0].x
    else:
        x = {}
    trace = forward(inst.network, inst.theta_star, x, args.max_bits)
    for target in inst.network.targets:
        print(f"{target} {format_rational(trace.values[target])}")
    print(f"max-bits {trace.max_bits}")
    return EXIT_OK


def cmd_net_grad(args) -> int:
    inst = parse_instance(_read(args.instance))
    edge = args.edge or getattr(inst, "edge_star", None)
    if edge is None:
        raise UsageError("--edge is required for ERM instances")
    if edge not in inst.network.edge_map:
        raise UsageError(f"unknown edge {edge!r}")
    report = gradients(inst.network, inst.theta_star, inst.dataset, inst.loss, args.max_bits)
    table = report.weight_grad if args.wrt == "weight" else report.bias_grad
    print(f"d/d{args.wrt}[{edge}] {format_rational(table[edge])}")
    if report.hinge_kinks:
        print(f"hinge-kinks {report.hinge_kinks} (subgradient 0 used)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / pwl


def cmd_verify_erm(args) -> int:
    inst = parse_instance(_read(args.instance))
    theta = parse_theta(_read(args.theta))
    verdict = verify_witness(
        inst, theta, parse_rational(args.gamma), tuple(args.enc_bound)
    )
    print(verdict.verdict)
    print(f"enc-length {verdict.encoding_length} cap {format_rational(verdict.encoding_cap)}")
    if verdict.loss is not None:
        print(f"loss {format_rational(verdict.loss)}")
    return EXIT_OK if verdict.accepted else EXIT_NO


def cmd_pwl_step(args) -> int:
    inst = parse_instance(_read(args.instance))
    theta = parse_theta(_read(args.theta)) if args.theta else inst.theta_star
    report = gd_step(
        inst.network, theta, inst.dataset, inst.loss, parse_rational(args.eta),
        args.max_bits,
    )
    for eid in sorted(report.weight_grad):
        print(
            f"{eid} dw {format_rational(report.weight_grad[eid])} "
            f"db {format_rational(report.bias_grad[eid])}"
        )
    print(f"ops {report.ops} max-bits {report.max_bits}")
    if args.output:
        _write(args.output, serialize_theta(report.theta))
        print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pac / bench


def cmd_pac_simulate(args) -> int:
    report = simulate_lower_bound(
        args.q, args.m, args.trials, args.learner, args.seed
    )
    line = (
        f"{report.q},{report.m},{report.trials},{report.learner},"
        f"{report.failure_rate:.6f},{float(report.floor):.6f},{report.sample_bound:.3f}"
    )
    header = "q,m,trials,learner,empirical_rate,floor,bound"
    print(header)
    print(line)
    if args.csv:
        _write(args.csv, header + "\n" + line + "\n")
    return EXIT_OK


def cmd_bench_depth_growth(args) -> int:
    rows = depth_growth_experiment(
        args.max_depth, args.activation, seed=args.seed, max_bits=args.max_bits
    )
    csv = rows_to_csv(rows)
    print(csv, end="")
    if args.csv:
        _write(args.csv, csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_max_bits(parser) -> None:
    parser.add_argument(
        "--max-bits", type=_positive_int, default=DEFAULT_MAX_BITS,
        help="bit-length budget for intermediate values (a positive integer)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitnets",
        description="Exact SLP evaluation, gadget compilation and bit-model training tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    slp = sub.add_parser("slp", help="straight-line program tools").add_subparsers(
        dest="subcommand", required=True
    )
    p = slp.add_parser("eval", help="evaluate exactly")
    p.add_argument("file")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_slp_eval)
    p = slp.add_parser("bit", help="query one output bit")
    p.add_argument("file")
    p.add_argument("--j", type=int, required=True)
    _add_max_bits(p)
    p.set_defaults(fn=cmd_slp_bit)
    p = slp.add_parser("sign", help="query the output sign")
    p.add_argument("file")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_slp_sign)
    p = slp.add_parser("normalize", help="bounded-norm rewrite")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_slp_normalize)

    lam = sub.add_parser("lambda", help="product-identity coefficients").add_subparsers(
        dest="subcommand", required=True
    )
    p = lam.add_parser("solve", help="solve for the coefficients")
    p.add_argument("--poly", required=True, help="comma-separated coefficients, constant first")
    p.set_defaults(fn=cmd_lambda_solve)
    p = lam.add_parser("verify", help="randomized exact identity check")
    p.add_argument("--poly", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_lambda_verify)

    comp = sub.add_parser("compile", help="SLP-to-instance compilers").add_subparsers(
        dest="subcommand", required=True
    )
    p = comp.add_parser("erm", help="bit-query or hinge ERM instance")
    p.add_argument("input")
    p.add_argument("--sigma", required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--gap", type=int, nargs=2, default=(0, 1), metavar=("A", "B"))
    p.add_argument("--loss", choices=("bit01", "hinge"), default="bit01")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_compile_erm)
    p = comp.add_parser("backprop", help="gradient sign/bit instance")
    p.add_argument("input")
    p.add_argument("--sigma", required=True)
    p.add_argument("--variant", choices=("sign", "bit"), required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--copies", type=int, help="promise gap b for the sign variant (default 1)")
    p.add_argument("--bn", action="store_true", help="compile the bounded-norm rewrite")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_compile_backprop)

    net = sub.add_parser("net", help="instance evaluation").add_subparsers(
        dest="subcommand", required=True
    )
    p = net.add_parser("eval", help="forward pass at the stored parameters")
    p.add_argument("instance")
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_net_eval)
    p = net.add_parser("grad", help="one exact gradient coordinate")
    p.add_argument("instance")
    p.add_argument("--edge", help="defaults to the instance's distinguished edge")
    p.add_argument("--wrt", choices=("weight", "bias"), default="weight")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_net_grad)

    ver = sub.add_parser("verify", help="witness verification").add_subparsers(
        dest="subcommand", required=True
    )
    p = ver.add_parser("erm", help="check a parameter vector against a threshold")
    p.add_argument("instance")
    p.add_argument("--theta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--enc-bound", type=int, nargs=2, default=(4, 2), metavar=("C1", "C2"))
    p.set_defaults(fn=cmd_verify_erm)

    pwl = sub.add_parser("pwl", help="piecewise-linear training step").add_subparsers(
        dest="subcommand", required=True
    )
    p = pwl.add_parser("step", help="one exact gradient-descent step")
    p.add_argument("instance")
    p.add_argument("--theta", help="parameter file; defaults to the instance's theta")
    p.add_argument("--eta", required=True)
    p.add_argument("-o", "--output")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_pwl_step)

    pac = sub.add_parser("pac", help="sample-complexity simulation").add_subparsers(
        dest="subcommand", required=True
    )
    p = pac.add_parser("simulate", help="adversarial pair Monte-Carlo")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--learner", choices=LEARNERS, default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_pac_simulate)

    bench = sub.add_parser("bench", help="growth experiments").add_subparsers(
        dest="subcommand", required=True
    )
    p = bench.add_parser("depth-growth", help="gradient bit-length versus depth")
    p.add_argument("--activation", choices=ACTIVATIONS, required=True)
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    _add_max_bits(p)
    p.set_defaults(fn=cmd_bench_depth_growth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BitBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BIT_BUDGET
    except NetworkError as exc:  # located like a SchemaError, e.g. at theta.<edge id>
        print(f"error: {exc.where}: {exc}" if exc.where else f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
