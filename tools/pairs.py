"""Compare two trees on one benchmark workload by alternating pairs of runs.

Each pair runs ``pipebench/run.py`` once from the parent tree and once from
the change tree, with the same workload and seed, tracing off and the run
length (``run_seconds``) that the change tree's ``BENCHMARK.json`` fixes;
even pairs run the parent first, odd pairs the change, so that a drift of
the host's speed favours neither side.  Every run is printed.
When the two sides' model-cost digests differ, the runs did different work
and nothing is reported (exit 1).  Otherwise, for each end-to-end metric of
the change tree's ``BENCHMARK.json``, it prints each side's median and
quartiles, the change of the medians, the number of pairs the change won
(ties count for neither side) and whether the medians differ by more than
the parent's interquartile range.  Only the standard library is used.

Run from anywhere, giving the two checkouts:

    python3 tools/pairs.py PARENT CHANGE --workload pwl-verify --seed 0 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run from ``tree``: its metrics, digest and failures."""
    cmd = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next((m.group(1) for m in map(re.compile(r"^digest (\w+)$").match, lines) if m), None)
    return {"metrics": {n: m["value"] for n, m in result["metrics"].items()},
            "digest": digest, "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric over the pairs."""
    out = []
    n = len(runs["parent"])
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        vals = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        won = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        rel = (c2 - p2) / p2 if p2 else float("nan")
        out.append(
            f"{name} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']:g}): "
            f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"median {rel:+.2%}  won {won}/{n}  "
            f"gap over parent IQR: {'yes' if abs(c2 - p2) > p3 - p1 else 'no'}"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    print(f"workload {args.workload} seed {args.seed} seconds {seconds:g} pairs {args.pairs}")
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(trees[side], args.workload, args.seed, seconds)
            runs[side].append(run)
            values = " ".join(f"{n} {v:.6g}" for n, v in run["metrics"].items())
            print(f"pair {i} {side}: {values}; digest {run['digest']}; "
                  f"failed {run['failed']}/{run['attempted']}", flush=True)

    digests = {side: {r["digest"] for r in runs[side]} for side in SIDES}
    if len(digests["parent"] | digests["change"]) != 1:
        print(f"digests differ: parent {sorted(digests['parent'])}, "
              f"change {sorted(digests['change'])}; the runs did different work, no report")
        return 1
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        print(f"{side}: failed {failed}/{sum(r['attempted'] for r in runs[side])} queries")
    print("\n".join(summary(runs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
