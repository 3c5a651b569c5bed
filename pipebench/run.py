#!/usr/bin/env python3
"""Pipeline benchmark for bitnets: compile -> decide/verify, end to end and per layer.

Run from the repository root:

    python3 pipebench/run.py --workload erm-decide --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: each query runs once plain and
once traced, and the spans give per-layer busy times, the counts and the
tracing overhead.  End-to-end times are scaled to a reference machine
speed (see ``normalise``); per-layer times are plain wall clock.
Human-readable lines come first; the last line of
standard output is one JSON object with the metrics named in
BENCHMARK.json.  The library is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "out"

from tracing import NullTracer, Tracer, layer_times  # noqa: E402
from workloads import ErmDecide, Forcing, PwlVerify  # noqa: E402

# End-to-end runs go on past ``--seconds`` until p90 has ten queries beyond it.
MIN_QUERIES = 100

# A typical ``probe`` time on the machine the baseline was recorded on.
# End-to-end times are reported as if every probe had taken this long.
PROBE_REF_S = 2e-3

# The library's modules that the workloads call, as ``lib.<module>``.
MODULES = ("slp", "product_identity", "reductions", "instances", "network", "pwl")

LAYER_SPANS = (
    "reductions.check_zero_aux_loss",
    "reductions.decide_at_theta_star",
    "reductions.compile_erm",
    "slp.parse_slp",
    "instances.serialize_instance",
    "instances.parse_instance",
    "pwl.gd_step",
    "pwl.verify_witness.accept",
    "pwl.verify_witness.reject_loss",
    "pwl.verify_witness.reject_encoding",
)


class MissingLibrary(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import bitnets from ``src/`` afresh, so repeated set-ups pay the import."""
    for name in [m for m in sys.modules if m == "bitnets" or m.startswith("bitnets.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("bitnets")
    except ImportError as exc:
        raise MissingLibrary(f"cannot import bitnets from {SRC}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise MissingLibrary(f"bitnets resolved to {pkg.__file__}, not under {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bitnets.{m}") for m in MODULES})


class Run:
    """Counters shared by the plain and the traced run of one workload."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.costs: list = []

    def attempt(self, lib, st, item, tr):
        """Run one query; returns (seconds, output or None on an exception)."""
        t0 = perf_counter()
        try:
            with tr.span("query"):
                out = self.wl.query(lib, st, item, tr)
        except Exception:
            self.report("query raised")
            return perf_counter() - t0, None
        return perf_counter() - t0, out

    def judge(self, lib, st, i, item, out) -> None:
        self.attempted += 1
        cost = None
        if out is not None:
            try:
                cost = self.wl.check(lib, st, item, out)
            except Exception:
                self.report("wrong answer")
        if cost is None:
            self.failed += 1
        if i < self.wl.window:
            self.costs.append(cost)

    def report(self, what: str) -> None:
        if self.failed < 3:
            print(f"{self.wl.name}: {what}:\n{traceback.format_exc()}", file=sys.stderr)

    def model_cost(self, lib, st) -> tuple[dict, str]:
        """Counts over the first ``window`` queries and a digest of their costs."""
        ok = [c for c in self.costs if c is not None]
        counts = self.wl.counts(lib, st, ok)
        blob = json.dumps([counts, self.costs], sort_keys=True).encode()
        return counts, hashlib.sha256(blob).hexdigest()[:16]


def probe() -> float:
    """Seconds for a fixed, stdlib-only Fraction loop: the machine's current speed.

    The collector is paused so that the probe never pays for the garbage
    of the query before it; that cost stays with the queries.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        return perf_counter() - t0
    finally:
        gc.enable()


def normalise(times: list[float], probes: list[float]) -> list[float]:
    """Scale each time to the reference machine speed.

    ``probes[i]`` ran just before ``times[i]`` and ``probes[i + 1]`` just
    after it.  On a shared host the speed of the whole machine swings by
    tens of percent for seconds at a time; dividing by the median of the
    three probes before and the three after each time cancels those
    swings, while any change in the library still shows in full, since
    the probe calls no library code.
    """
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, i - 2):i + 4])
        for i, t in enumerate(times)
    ]


def run_plain(wl, seed: int, seconds: float) -> tuple[Run, dict, str]:
    setups, setup_probes = [], [probe()]
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        lib = import_library()
        st = wl.setup(lib, seed, NullTracer())
        setups.append(perf_counter() - t0)
        setup_probes.append(probe())
    run, null, latencies, probes = Run(wl), NullTracer(), [], [probe()]
    deadline = perf_counter() + seconds
    i = 0
    while i < max(wl.window, MIN_QUERIES) or perf_counter() < deadline:
        item = wl.item(lib, st, i)
        dt, out = run.attempt(lib, st, item, null)
        probes.append(probe())
        latencies.append(dt)
        run.judge(lib, st, i, item, out)
        i += 1
    counts, digest = run.model_cost(lib, st)
    n = len(latencies)
    lat = normalise(latencies, probes)
    metrics = {
        "setup_s": statistics.median(normalise(setups, setup_probes)),
        "queries_per_s": n / sum(lat),
        "query_s.p50": statistics.median(lat),
        "query_s.p90": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = (
        f"set-ups {len(setups)} (median reported); queries {n}, "
        f"{n - int(0.9 * n)} beyond p90; failed_frac {run.failed / n:g} ({run.failed}/{n})\n"
        f"wall clock before normalising: setup_s {statistics.median(setups):.6g}, "
        f"queries_per_s {n / sum(latencies):.6g}, query_s.p50 {statistics.median(latencies):.6g}, "
        f"query_s.p90 {statistics.quantiles(latencies, n=10)[8]:.6g}; "
        f"probe median {statistics.median(probes) * 1e3:.4g} ms (reference {PROBE_REF_S * 1e3:g} ms)"
    )
    return run, metrics, f"{notes}\ncounts {json.dumps(counts)}\ndigest {digest}"


def run_traced(wl, seed: int, seconds: float) -> tuple[Run, dict, str]:
    tracer = Tracer()
    tracer.query = "setup"
    lib = import_library()
    st = wl.setup(lib, seed, tracer)
    run, null, plain = Run(wl), NullTracer(), []
    traced_s = 0.0
    deadline = perf_counter() + seconds
    i = 0
    while i < wl.window or perf_counter() < deadline:
        item = wl.item(lib, st, i)
        tracer.query = i
        # Alternate which copy runs first so warm-up favours neither.
        if i % 2:
            dt_t, out = run.attempt(lib, st, item, tracer)
            dt_p, _ = run.attempt(lib, st, item, null)
        else:
            dt_p, _ = run.attempt(lib, st, item, null)
            dt_t, out = run.attempt(lib, st, item, tracer)
        plain.append(dt_p)
        traced_s += dt_t
        run.judge(lib, st, i, item, out)
        i += 1
    tracer.write(WORKDIR / f"trace-{wl.name}-seed{seed}.jsonl")
    busy, query_self = layer_times(tracer.spans, i)
    counts, digest = run.model_cost(lib, st)
    metrics = {f"{name}.busy_s": busy.get(name, 0.0) for name in LAYER_SPANS}
    metrics["query.self_s"] = query_self
    metrics.update(counts)
    metrics["trace.overhead_frac"] = traced_s / sum(plain) - 1
    # Plain copies' wall clock, not normalised: a slowdown of the whole
    # interpreter that the probe cancels in the end-to-end figures shows here.
    metrics["query.wall_s.p50"] = statistics.median(plain)
    metrics["query.wall_per_s"] = len(plain) / sum(plain)
    notes = f"traced queries {i}; spans {len(tracer.spans)}; failed {run.failed}/{i}"
    return run, metrics, f"{notes}\ndigest {digest}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("erm-decide", "forcing", "pwl-verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    wl = {"erm-decide": ErmDecide(WORKDIR), "forcing": Forcing(), "pwl-verify": PwlVerify()}[
        args.workload
    ]
    try:
        run, values, notes = (run_traced if args.trace else run_plain)(wl, args.seed, args.seconds)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(notes)
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
