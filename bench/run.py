#!/usr/bin/env python3
"""Benchmark for trawlprice: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload reference-bootstrap --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

One run makes the workload's inputs from ``--seed``, times identical
rounds of it for about ``--seconds`` seconds in this single process
(no worker pool), checks the outputs, and prints a summary followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds plus the traced
to untraced wall-time ratio.  ``--write-benchmark-json`` rewrites
BENCHMARK.json from :data:`SPEC`.  See bench/README.md.
"""

from __future__ import annotations

import os

# pin the numeric libraries to one thread before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "reference-bootstrap",
         "why": "paper's estimate-plus-standard-errors chain via the CLI: nearly all fits and signatures"},
        {"name": "heavy-tail-mc",
         "why": "sup-GIG Monte Carlo study: bisection quantile draws, return_pmf and the 2-D/3-D fits"},
        {"name": "raw-feed",
         "why": "millisecond trade-and-quote feed through clean, fit and signature: cleaning, path CSV I/O, "
                "fine-window memory"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            ("model.lifetime_quantile.self_s", "s", "lower"),
            ("model.residual_quantile.self_s", "s", "lower"),
            ("model.quantile.draws", "count", "lower"),
            ("model.increment.calls", "count", "lower"),
            ("model.increment.self_s", "s", "lower"),
            ("simulate.simulate_path.self_s", "s", "lower"),
            ("simulate.simulate_path.events", "count", "higher"),
            ("simulate.write_path_csv.self_s", "s", "lower"),
            ("simulate.read_path_csv.self_s", "s", "lower"),
            ("simulate.path_csv.bytes", "bytes", "lower"),
            ("estimate.variance_grid.self_s", "s", "lower"),
            ("estimate.variance_grid.windows", "count", "lower"),
            ("estimate.fit_signature.exponential.self_s", "s", "lower"),
            ("estimate.fit_signature.sup-gamma.self_s", "s", "lower"),
            ("estimate.fit_signature.sup-gig.self_s", "s", "lower"),
            ("estimate.fit_signature.calls", "count", "lower"),
            ("estimate.bootstrap.self_s", "s", "lower"),
            ("estimate.bootstrap.replicas", "count", "higher"),
            ("estimate.nonparametric_trawl.self_s", "s", "lower"),
            ("theory.return_pmf.self_s", "s", "lower"),
            ("theory.return_pmf.points", "count", "lower"),
            ("clean.read_raw_csv.self_s", "s", "lower"),
            ("clean.clean_ticks.self_s", "s", "lower"),
            ("clean.records", "count", "higher"),
            ("clean.diagnostics", "count", "lower"),
            ("cli.simulate.self_s", "s", "lower"),
            ("cli.clean.self_s", "s", "lower"),
            ("cli.fit.self_s", "s", "lower"),
            ("cli.signature.self_s", "s", "lower"),
            ("cli.bootstrap.self_s", "s", "lower"),
            ("cli.output.bytes", "bytes", "lower"),
            ("trace.wall_ratio", "ratio", "lower"),
        ]
    ],
}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import trawlprice."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import trawlprice"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": med(r.wall_s for r in rounds),
        "fit_s": med(r.fit_s for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": med(r.items / r.items_s for r in rounds),
    }


def per_layer(tracers, traced_rounds, plain_rounds) -> dict:
    """Self times are medians over traced rounds; counts come from the first."""
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.wall_ratio":
            out[name] = statistics.median(r.wall_s for r in traced_rounds) / statistics.median(
                r.wall_s for r in plain_rounds)
        elif name.endswith(".self_s"):
            out[name] = statistics.median(t.self_s(name[: -len(".self_s")]) for t in tracers)
        elif name == "model.increment.calls":
            out[name] = tracers[0].calls("model.increment")
        else:
            out[name] = tracers[0].counts.get(name, 0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload, print its summary, then its result as the last line."""
    import workloads
    from tracing import NullTracer, Tracer

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=RUNS)
    try:
        setup_s = measure_setup()
        wl = workloads.WORKLOADS[name](workdir, seed)
        wl.prepare()
        plain, traced, tracers, prints = [], [], [], set()
        start = time.perf_counter()
        while True:
            tracing_now = trace and len(plain) > len(traced)
            tracer = Tracer().install() if tracing_now else NullTracer()
            try:
                rnd = wl.run_round(tracer)
            finally:
                if tracing_now:
                    tracer.uninstall()
            (traced if tracing_now else plain).append(rnd)
            if tracing_now:
                tracers.append(tracer)
            prints.add(wl.fingerprint())
            enough = bool(plain) and (bool(traced) or not trace)
            if enough and time.perf_counter() - start + rnd.wall_s > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(prints) != 1:
        problems.append(f"rounds on the same inputs gave {len(prints)} different outputs")
    rounds = plain + traced
    values = per_layer(tracers, traced, plain) if trace else end_to_end(plain, setup_s, peak_rss_mb)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    print(f"# {name} seed={seed} rounds={len(rounds)} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for key, value in values.items():
        alias = f" ({wl.items_label})" if key == "items_per_s" else ""
        print(f"#   {key}{alias} = {value:.6g} {UNITS[key]}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if not (SRC / "trawlprice" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no trawlprice package under {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    sys.path[:0] = [str(SRC), str(BENCH)]
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
