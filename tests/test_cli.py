"""Command-line front end: exit codes, file IO, end-to-end flows."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bitnets
from bitnets.cli import main
from bitnets.instances import instance_size, parse_instance, serialize_theta, theta_size
from bitnets.rationals import parse_rational

CHAIN16 = "const 1\nadd 0 0\nmul 1 1\nmul 2 2\n"


@pytest.fixture
def slp_file(tmp_path):
    path = tmp_path / "chain.slp"
    path.write_text(CHAIN16)
    return str(path)


class TestSlpCommands:
    def test_eval(self, slp_file, capsys):
        assert main(["slp", "eval", slp_file]) == 0
        out = capsys.readouterr().out
        assert "value 16" in out

    def test_bit_yes_and_no(self, slp_file, capsys):
        assert main(["slp", "bit", slp_file, "--j", "4"]) == 0
        assert main(["slp", "bit", slp_file, "--j", "3"]) == 1

    def test_sign(self, slp_file, tmp_path, capsys):
        assert main(["slp", "sign", slp_file]) == 0
        zero = tmp_path / "zero.slp"
        zero.write_text("const 1\nsub 0 0\n")
        assert main(["slp", "sign", str(zero)]) == 1
        assert "zero" in capsys.readouterr().out

    def test_bit_budget_exit_code(self, tmp_path):
        chain = "const 1\nadd 0 0\n" + "\n".join(
            f"mul {i} {i}" for i in range(1, 30)
        )
        path = tmp_path / "deep.slp"
        path.write_text(chain + "\n")
        assert main(["slp", "eval", str(path), "--max-bits", "4096"]) == 3

    def test_normalize_round_trip(self, slp_file, tmp_path, capsys):
        out = tmp_path / "bn.slp"
        assert main(["slp", "normalize", slp_file, "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "scale-exponent" in stdout
        assert main(["slp", "eval", str(out)]) == 0

    def test_syntax_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.slp"
        bad.write_text("const 1\nadd 5 0\n")
        assert main(["slp", "eval", str(bad)]) == 2


class TestLambdaCommands:
    def test_solve_square(self, capsys):
        assert main(["lambda", "solve", "--poly", "0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "lambda 1/2 0 0" in out
        assert "D 2" in out

    def test_verify(self, capsys):
        assert main(["lambda", "verify", "--poly", "0,0,0,1", "--trials", "25"]) == 0

    def test_degree_error_is_usage(self, capsys):
        assert main(["lambda", "solve", "--poly", "0,1"]) == 2


class TestCompileAndNet:
    def test_erm_compile_eval_grad(self, slp_file, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main([
            "compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "4",
            "-o", str(inst_path),
        ]) == 0
        inst = parse_instance(inst_path.read_bytes())
        assert inst.gap == (0, 1)

        capsys.readouterr()
        assert main(["net", "eval", str(inst_path), "--input", "v0=1"]) == 0
        out = capsys.readouterr().out
        assert "v3 16" in out

    def test_net_eval_defaults_to_first_sample(self, slp_file, tmp_path, capsys):
        inst_path = tmp_path / "bp.json"
        main(["compile", "backprop", slp_file, "--sigma", "0,0,1",
              "--variant", "bit", "--j", "0", "-o", str(inst_path)])
        capsys.readouterr()
        assert main(["net", "eval", str(inst_path)]) == 0
        out = capsys.readouterr().out
        # theta* has w_e* = 0: the appended target reads 0 on the main input
        assert "out 0" in out

    def test_backprop_compile_and_grad(self, slp_file, tmp_path, capsys):
        inst_path = tmp_path / "bp.json"
        assert main([
            "compile", "backprop", slp_file, "--sigma", "0,0,1",
            "--variant", "bit", "--j", "4", "-o", str(inst_path),
        ]) == 0
        capsys.readouterr()
        assert main(["net", "grad", str(inst_path)]) == 0
        out = capsys.readouterr().out
        assert "16" in out

    def test_hinge_compile(self, slp_file, tmp_path):
        inst_path = tmp_path / "hinge.json"
        assert main([
            "compile", "erm", slp_file, "--sigma", "0,0,1", "--loss", "hinge",
            "--gap", "0", "2", "-o", str(inst_path),
        ]) == 0
        inst = parse_instance(inst_path.read_bytes())
        assert inst.loss.kind == "hinge"
        assert inst.gap == (0, 2)

    def test_missing_j_is_usage_error(self, slp_file, tmp_path):
        assert main([
            "compile", "erm", slp_file, "--sigma", "0,0,1",
            "-o", str(tmp_path / "x.json"),
        ]) == 2


def run_capped(*argv, timeout=120):
    """``bitnets <argv>`` in a child process whose address space is capped at 1 GiB,
    killed after ``timeout`` seconds."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(bitnets.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; from bitnets.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=timeout, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestVerifyAndStep:
    def test_verify_accept_and_reject(self, slp_file, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "4",
              "-o", str(inst_path)])
        inst = parse_instance(inst_path.read_bytes())
        theta_path = tmp_path / "theta.json"
        theta_path.write_bytes(serialize_theta(inst.theta_star))

        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0"]) == 0
        capsys.readouterr()
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "-1"]) == 1
        assert "loss too high" in capsys.readouterr().out

    @pytest.fixture
    def witness(self, slp_file, tmp_path):
        """A compiled bit01 instance file and its theta* file."""
        inst_path, theta_path = tmp_path / "inst.json", tmp_path / "theta.json"
        main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "4",
              "-o", str(inst_path)])
        theta_path.write_bytes(serialize_theta(parse_instance(inst_path.read_bytes()).theta_star))
        return inst_path, theta_path

    def test_verify_theta_star_output(self, witness, capsys):
        inst_path, theta_path = witness
        argv = ["verify", "erm", str(inst_path), "--theta", str(theta_path), "--gamma", "0"]
        inst = parse_instance(inst_path.read_bytes())
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"accept\nenc-length {theta_size(inst.theta_star)} "
            f"cap {4 * instance_size(inst) ** 2}\nloss 0\n"
        )

    @pytest.mark.parametrize("j", [1 << 40, -(1 << 40)])
    def test_verify_far_bit_index_in_bounded_memory(self, witness, j):
        """A bit01 index of 2**40 or -2**40 is answered without building 2**|j|,
        in a child process whose address space is capped at 1 GiB."""
        inst_path, theta_path = witness
        doc = json.loads(inst_path.read_bytes())
        doc["loss"]["j"] = j
        inst_path.write_text(json.dumps(doc))
        run = run_capped("verify", "erm", str(inst_path), "--theta", str(theta_path),
                         "--gamma", "0")
        assert run.returncode in (0, 1) and run.stderr == ""
        # 16 has no bit 2**40 and no fractional bits: the main sample costs its count
        assert run.stdout.startswith("reject(loss too high)\n")

    def test_huge_rounding_precision_rejected_in_bounded_memory(self, witness):
        """A bit-bounded activation with bits = 2**40 is a located schema error
        (exit 2), not a 2**40-bit rounding scale, under a 1 GiB cap."""
        inst_path, _ = witness
        doc = json.loads(inst_path.read_bytes())
        at = next(i for i, v in enumerate(doc["vertices"]) if v["id"] == "v1")
        doc["vertices"][at]["activation"] = {
            "kind": "bitbounded", "base": {"kind": "identity"}, "bits": 1 << 40
        }
        inst_path.write_text(json.dumps(doc))
        run = run_capped("net", "eval", str(inst_path), "--max-bits", "64")
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith(f"error: $.vertices[{at}].activation: ")
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("bound", [("4", "-1"), ("-1", "2"), ("-3", "-3")])
    def test_negative_enc_bound_is_usage_error(self, witness, bound, capsys):
        inst_path, theta_path = witness
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0", "--enc-bound", *bound]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: enc_bound must be two non-negative integers, got ({bound[0]}, {bound[1]})\n"
        )

    def test_zero_enc_bound_rejects_the_encoding(self, witness, capsys):
        inst_path, theta_path = witness
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0", "--enc-bound", "0", "2"]) == 1
        assert capsys.readouterr().out.startswith("reject(encoding too long)\n")

    def test_huge_enc_bound_exponent_is_refused_at_once(self, witness):
        """C1 * |I|**C2 with C2 = 10**9 would have about 10**10 bits: it is a
        usage error (exit 2), found from bit lengths before any power is built."""
        inst_path, theta_path = witness
        run = run_capped("verify", "erm", str(inst_path), "--theta", str(theta_path),
                         "--gamma", "0", "--enc-bound", "1", "1000000000", timeout=30)
        size = instance_size(parse_instance(inst_path.read_bytes()))
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == (
            f"error: encoding cap C1 * |I|**C2 has more than {1 << 20} bits (|I| = {size})\n"
        )

    def test_zero_c1_with_huge_exponent_is_cap_zero(self, witness):
        inst_path, theta_path = witness
        run = run_capped("verify", "erm", str(inst_path), "--theta", str(theta_path),
                         "--gamma", "0", "--enc-bound", "0", "1000000000", timeout=30)
        assert run.returncode == 1 and run.stderr == ""
        assert run.stdout.startswith("reject(encoding too long)\nenc-length ")
        assert run.stdout.endswith(" cap 0\n")

    def test_cap_past_the_int_text_limit_is_printed_whole(self, tmp_path):
        """A cap of more decimal digits than CPython's int-to-text limit (4300)
        is printed in full: verdict, enc-length/cap and loss lines, exit 0."""
        slp = tmp_path / "p.slp"
        slp.write_text("const 1\nmul 0 0\nadd 1 0\nsub 2 1\n")
        inst_path, theta_path = tmp_path / "c.json", tmp_path / "theta.json"
        assert main(["compile", "erm", str(slp), "--sigma", "0,0,1", "--j", "0",
                     "-o", str(inst_path)]) == 0
        inst = parse_instance(inst_path.read_bytes())
        theta_path.write_bytes(serialize_theta(inst.theta_star))
        run = run_capped("verify", "erm", str(inst_path), "--theta", str(theta_path),
                         "--gamma", "0", "--enc-bound", "1", "2000")
        assert run.returncode == 0 and run.stderr == ""
        verdict, bound, loss = run.stdout.splitlines()
        assert verdict == "accept" and loss == "loss 0"
        enc, cap = re.fullmatch(r"enc-length (\d+) cap (\d+)", bound).groups()
        assert int(enc) == theta_size(inst.theta_star)
        assert len(cap) > 4300
        assert parse_rational(cap) == instance_size(inst) ** 2000

    def test_pwl_step(self, tmp_path, capsys):
        from bitnets.instances import serialize_instance

        inst = relu_instance()
        inst_path = tmp_path / "pwl.json"
        inst_path.write_bytes(serialize_instance(inst))
        out_path = tmp_path / "updated.json"
        assert main(["pwl", "step", str(inst_path), "--eta", "1/2",
                     "-o", str(out_path)]) == 0
        from bitnets.instances import parse_theta

        updated = parse_theta(out_path.read_bytes())
        assert updated.weight("e1") == -1



def relu_instance():
    """s -> h (relu) -> t (identity), one square-loss sample: a net ``pwl
    step`` runs on."""
    from fractions import Fraction

    from bitnets.network import Edge, IdentityActivation, LossSpec, Network, Sample, Theta, Vertex
    from bitnets.pwl import relu
    from bitnets.reductions import ErmInstance

    net = Network(
        [Vertex("s", "source"), Vertex("h", "hidden", relu()),
         Vertex("t", "target", IdentityActivation())],
        [Edge("e1", "s", "h"), Edge("e2", "h", "t")],
    )
    theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(1), Fraction(0))})
    return ErmInstance(net, theta, (Sample({"s": Fraction(2)}, Fraction(0)),),
                       LossSpec("square", target="t"), (0, 1), {})


class TestThetaFileFaults:
    """A theta file that does not fit the instance's edges is reported at
    ``theta`` (an edge missing or unknown) or ``theta.<edge id>`` (an entry
    that is not a (w, b) pair), with exit 2 and nothing on stdout."""

    @pytest.fixture(params=["verify", "step"])
    def command(self, request, slp_file, tmp_path):
        """The argv of ``verify erm`` on a compiled 3-gate instance or of
        ``pwl step`` on a relu net, less the theta file, and theta*."""
        from bitnets.instances import serialize_instance

        inst_path = tmp_path / "c.json"
        if request.param == "verify":
            main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "4",
                  "-o", str(inst_path)])
            argv = ["verify", "erm", str(inst_path), "--gamma", "0"]
        else:
            inst_path.write_bytes(serialize_instance(relu_instance()))
            argv = ["pwl", "step", str(inst_path), "--eta", "1/2"]
        return argv, json.loads(serialize_theta(parse_instance(inst_path.read_bytes()).theta_star))

    @pytest.mark.parametrize("fault", ["missing", "extra", "not a pair"])
    def test_fault_is_located(self, command, fault, tmp_path, capsys):
        argv, doc = command
        first = min(doc)
        if fault == "missing":
            del doc[first]
            expected = f"error: theta: missing parameters for edges [{first!r}]\n"
        elif fault == "extra":
            doc["ghost"] = {"w": "1", "b": "0"}
            expected = "error: theta: parameters for unknown edges ['ghost']\n"
        else:
            doc[first] = ["1", "0"]
            expected = f"error: theta.{first}: expected an object, got list\n"
        theta_path = tmp_path / "t.json"
        theta_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(argv + ["--theta", str(theta_path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == expected

class TestPacAndBench:
    def test_pac_simulate_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "pac.csv"
        assert main(["pac", "simulate", "--q", "1", "--m", "1", "--trials", "500",
                     "--seed", "3", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "q,m,trials,learner,empirical_rate,floor,bound"
        assert lines[1].startswith("1,1,500,min,")

    def test_bench_csv(self, tmp_path):
        csv_path = tmp_path / "growth.csv"
        assert main(["bench", "depth-growth", "--activation", "relu",
                     "--max-depth", "2", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "depth,activation,grad_bitlen,log10_proxy,runtime_ms"
        assert len(lines) == 4


class TestNetGrad:
    """``net grad`` on a one-edge hinge instance whose only sample sits on
    the kink: theta = (1, 0), x_s = 1, y = 1, so the margin is exactly 0."""

    @pytest.fixture
    def kink_file(self, tmp_path):
        from fractions import Fraction

        from bitnets.instances import serialize_instance
        from bitnets.network import Edge, IdentityActivation, LossSpec, Network, Sample, Theta, Vertex
        from bitnets.reductions import ErmInstance

        net = Network(
            [Vertex("s", "source"), Vertex("t", "target", IdentityActivation())],
            [Edge("e", "s", "t")],
        )
        inst = ErmInstance(
            net, Theta({"e": (Fraction(1), Fraction(0))}),
            (Sample({"s": Fraction(1)}, Fraction(1)),),
            LossSpec("hinge", target="t"), (0, 1), {},
        )
        path = tmp_path / "kink.json"
        path.write_bytes(serialize_instance(inst))
        return str(path)

    def test_weight_coordinate_reports_the_kink(self, kink_file, capsys):
        assert main(["net", "grad", kink_file, "--edge", "e"]) == 0
        out = capsys.readouterr()
        assert out.out == "d/dweight[e] 0\nhinge-kinks 1 (subgradient 0 used)\n"
        assert out.err == ""

    def test_bias_coordinate(self, kink_file, capsys):
        assert main(["net", "grad", kink_file, "--edge", "e", "--wrt", "bias"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "d/dbias[e] 0"

    def test_unknown_edge(self, kink_file, capsys):
        assert main(["net", "grad", kink_file, "--edge", "ghost"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: unknown edge 'ghost'\n"

    def test_unknown_coordinate_is_an_argparse_error(self, kink_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["net", "grad", kink_file, "--edge", "e", "--wrt", "slope"])
        assert exc.value.code == 2
        assert "invalid choice: 'slope'" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self):
        assert main(["slp", "eval", "/nonexistent/file.slp"]) == 2


class TestMaxBitsOption:
    COMMANDS = [
        ["slp", "eval", "p.slp"],
        ["slp", "bit", "p.slp", "--j", "0"],
        ["slp", "sign", "p.slp"],
        ["net", "eval", "inst.json"],
        ["net", "grad", "inst.json"],
        ["pwl", "step", "inst.json", "--eta", "1"],
        ["bench", "depth-growth", "--activation", "relu", "--max-depth", "1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
    @pytest.mark.parametrize("value", ["-5", "0", "x", "1.5"])
    def test_must_be_a_positive_integer(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--max-bits={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-bits: expected a positive integer, got {value!r}" in err

    def test_one_bit_is_a_budget(self, slp_file, capsys):
        assert main(["slp", "eval", slp_file, "--max-bits", "1"]) == 3
        assert "cap 1" in capsys.readouterr().err


class TestMoreUsageErrors:
    def test_hinge_rejects_bit_index(self, slp_file, tmp_path):
        assert main([
            "compile", "erm", slp_file, "--sigma", "0,0,1", "--loss", "hinge",
            "--j", "4", "-o", str(tmp_path / "x.json"),
        ]) == 2

    def test_bad_input_pair(self, slp_file, tmp_path):
        inst = tmp_path / "inst.json"
        main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "0",
              "-o", str(inst)])
        assert main(["net", "eval", str(inst), "--input", "v0"]) == 2

    def test_input_names_unknown_vertex(self, slp_file, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "0",
              "-o", str(inst)])
        capsys.readouterr()
        assert main(["net", "eval", str(inst), "--input", "v0=1",
                     "--input", "ghost=1"]) == 2
        out = capsys.readouterr()
        assert "'ghost'" in out.err and out.out == ""

    def test_grad_needs_edge_for_erm(self, slp_file, tmp_path):
        inst = tmp_path / "inst.json"
        main(["compile", "erm", slp_file, "--sigma", "0,0,1", "--j", "0",
              "-o", str(inst)])
        assert main(["net", "grad", str(inst)]) == 2

    def test_bad_sigma(self, slp_file, tmp_path):
        assert main([
            "compile", "erm", slp_file, "--sigma", "0;0;1", "--j", "0",
            "-o", str(tmp_path / "x.json"),
        ]) == 2
