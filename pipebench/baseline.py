#!/usr/bin/env python3
"""Record baseline results: every workload, plain and traced, on two seeds.

    python3 pipebench/baseline.py

Runs ``run.py`` once per (workload, seed, trace) in sequence, for
``run_seconds`` from BENCHMARK.json each, checks that
the plain and the traced run of one seed report the same model-cost
digest, and writes ``pipebench/baseline/results.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("erm-decide", "forcing", "pwl-verify")
SEEDS = (0, 7)  # the default seed and the held-out seed


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return {"workload": workload, "seed": seed, "trace": trace, "digest": digest,
            "result": json.loads(lines[-1])}


def main() -> int:
    results = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            pair = [run_once(workload, seed, trace) for trace in (0, 1)]
            if pair[0]["digest"] != pair[1]["digest"]:
                print(f"{workload} seed {seed}: digests differ {pair}", file=sys.stderr)
                return 1
            results += pair
            print(workload, seed, [r["result"]["failed"] for r in pair], pair[0]["digest"], flush=True)
    out = HERE / "baseline" / "results.json"
    out.parent.mkdir(exist_ok=True)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"environment": environment(), "seconds": seconds, "results": results}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
