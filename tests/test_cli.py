"""Command-line front end: exit codes, file IO, end-to-end flows."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bitnets
from bitnets.cli import main
from bitnets.instances import instance_size, parse_instance, serialize_theta, theta_size

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

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(bitnets.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from bitnets.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "verify", "erm", str(inst_path), "--theta", str(theta_path), "--gamma", "0"],
            capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode in (0, 1) and run.stderr == ""
        # 16 has no bit 2**40 and no fractional bits: the main sample costs its count
        assert run.stdout.startswith("reject(loss too high)\n")

    def test_pwl_step(self, tmp_path, capsys):
        from fractions import Fraction

        from bitnets.instances import serialize_instance
        from bitnets.network import Edge, IdentityActivation, LossSpec, Network, Sample, Theta, Vertex
        from bitnets.pwl import relu
        from bitnets.reductions import ErmInstance

        net = Network(
            [Vertex("s", "source"), Vertex("h", "hidden", relu()),
             Vertex("t", "target", IdentityActivation())],
            [Edge("e1", "s", "h"), Edge("e2", "h", "t")],
        )
        theta = Theta({"e1": (Fraction(1), Fraction(0)), "e2": (Fraction(1), Fraction(0))})
        inst = ErmInstance(
            net, theta, (Sample({"s": Fraction(2)}, Fraction(0)),),
            LossSpec("square", target="t"), (0, 1), {},
        )
        inst_path = tmp_path / "pwl.json"
        inst_path.write_bytes(serialize_instance(inst))
        out_path = tmp_path / "updated.json"
        assert main(["pwl", "step", str(inst_path), "--eta", "1/2",
                     "-o", str(out_path)]) == 0
        from bitnets.instances import parse_theta

        updated = parse_theta(out_path.read_bytes())
        assert updated.weight("e1") == -1


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


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self):
        assert main(["slp", "eval", "/nonexistent/file.slp"]) == 2


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
