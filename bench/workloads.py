"""The benchmark's workloads: inputs, one timed round, and output checks.

A workload makes its inputs once from the seed (:meth:`prepare`), then
runs identical rounds (:meth:`run_round`), each returning its timings and
operation counts.  :meth:`fingerprint` digests a round's outputs so the
runner can confirm every round produced the same thing, and
:meth:`check` compares the outputs with computations from
:mod:`independent` or with properties the method must have.  Checks
return a list of problems; an empty list means the outputs passed.

The check functions take output files or objects as arguments so the
benchmark's tests can hand them deliberately corrupted outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import independent as ind
import trawlprice
from trawlprice import cli as tp_cli


@dataclass(frozen=True)
class Round:
    """Timings (seconds) and operation counts of one round."""

    wall_s: float
    fit_s: float
    items: int  # what items_per_s counts
    items_s: float  # time the items took
    attempted: int
    failed: int


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def run_cli(tracer, argv: list[str]) -> int:
    """``trawlprice.cli.main(argv)`` with its summary line kept off stdout."""
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
        code = tp_cli.main(argv)
    out = argv[argv.index("--output") + 1]
    manifest = f"{out}.manifest.json"
    if os.path.exists(manifest):
        with open(manifest) as fh:
            files = json.load(fh)["outputs"] + [manifest]
        tracer.count("cli.output.bytes", sum(os.path.getsize(f) for f in files if os.path.exists(f)))
    return code


def digest_files(*files: str) -> str:
    h = hashlib.sha256()
    for f in files:
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _grid_problems(deltas, grid) -> list[str]:
    if np.shape(deltas) != np.shape(grid) or not np.allclose(deltas, grid, rtol=1e-14, atol=0.0):
        return [f"signature grid differs from the requested one ({np.size(deltas)} vs {np.size(grid)} points)"]
    return []


def _objective_problems(label, reported, recomputed, at_truth) -> list[str]:
    out = []
    if not abs(reported - recomputed) <= 1e-6 * abs(reported) + 1e-300:
        out.append(f"{label}: reported objective {reported:.10g} != {recomputed:.10g} at its own parameters")
    if not reported <= at_truth * (1.0 + 1e-9):
        out.append(f"{label}: objective {reported:.6g} above the objective at the truth {at_truth:.6g}")
    return out


# ---------------------------------------------------------------------------
# reference-bootstrap
# ---------------------------------------------------------------------------

REFERENCE = {"b": 0.396, "lambda": 0.681, "nu": {1: 0.0138, -1: 0.0131}, "span": 75527.97, "v0": 7486}
CLI_GRID = (0.1, 60.0, 60)  # the CLI's default signature grid
BOOT_Z = 5.0  # Monte Carlo SEs allowed between bootstrap means and the drawing parameters
B_SE_REF, B_SE_FACTOR = 0.014, 2.0


def check_reference(path_csv, fit_json, boot_json, truth=REFERENCE) -> list[str]:
    """Checks of the simulate -> fit -> bootstrap chain's files."""
    problems = []
    path = ind.read_path(path_csv)
    nu = truth["nu"]
    ok, msg = ind.event_count_ok(path.times.size, (2.0 - truth["b"]) * sum(nu.values()), path.span)
    if not ok:
        problems.append(f"simulated event count off: {msg}")
    fit = _load(fit_json)
    sig = ind.read_signature_csv(f"{fit_json}.signature.csv")
    grid = np.geomspace(*CLI_GRID)
    problems += _grid_problems(sig["delta"], grid)
    if problems:
        return problems
    problems += ind.signature_mismatch(grid, sig["empirical"], path)
    var, _, _ = ind.signature(path.t_start, path.t_end, path.times, path.jumps, grid)
    emp = var / grid
    s0 = ind.second_moment_rate(path.jumps, path.span)
    b, lam = float(fit["b"]), float(fit["trawl"]["params"]["lambda"])
    fitted = ind.signature_curve(b, ind.exponential_increment(lam, grid), s0, grid)
    at_truth = ind.signature_curve(truth["b"], ind.exponential_increment(truth["lambda"], grid), s0, grid)
    problems += _objective_problems("fit", fit["objective"], ind.objective(fitted, emp), ind.objective(at_truth, emp))
    if not np.allclose(sig["fitted"], fitted, rtol=1e-9, atol=0.0):
        problems.append("fit sidecar's fitted column is not the model curve at the fitted parameters")

    boot = _load(boot_json)
    drawn = {"b": b, "lambda": lam, "nu(+1)": fit["levy"].get("1"), "nu(-1)": fit["levy"].get("-1")}
    n_ok = boot["n_paths"] - boot["n_nonconverged"]
    for name, theta in drawn.items():
        if name not in boot["means"] or theta is None:
            problems.append(f"bootstrap lacks parameter {name}")
            continue
        z = (boot["means"][name] - theta) / (boot["se"][name] / math.sqrt(n_ok))
        if not abs(z) <= BOOT_Z:
            problems.append(f"bootstrap mean of {name} is {z:+.2f} Monte Carlo SEs from {theta:.6g}")
    se_b = boot["se"].get("b", math.nan)
    if not B_SE_REF / B_SE_FACTOR <= se_b <= B_SE_REF * B_SE_FACTOR:
        problems.append(f"bootstrap SE of b {se_b:.4g} not within a factor {B_SE_FACTOR} of {B_SE_REF}")
    return problems


class ReferenceBootstrap:
    name = "reference-bootstrap"
    items_label = "replicas_per_s"

    def __init__(self, workdir: str, seed: int, replicas: int = 40):
        self.seed, self.replicas = seed, replicas
        self.f = {k: os.path.join(workdir, v) for k, v in
                  {"params": "params.json", "path": "path.csv", "fit": "fit.json", "boot": "boot.json"}.items()}

    def prepare(self) -> None:
        t = REFERENCE
        params = {"b": t["b"], "trawl": {"family": "exponential", "params": {"lambda": t["lambda"]}},
                  "levy": {str(k): v for k, v in t["nu"].items()}}
        with open(self.f["params"], "w") as fh:
            json.dump(params, fh)

    def run_round(self, tracer) -> Round:
        f, t = self.f, REFERENCE
        span, v0 = repr(t["span"]), str(t["v0"])
        t0 = time.perf_counter()
        codes = [run_cli(tracer, ["simulate", "--params", f["params"], "--t-end", span, "--v0", v0,
                                  "--seed", str(derive_seed(self.seed, 1)), "--output", f["path"]])]
        t1 = time.perf_counter()
        codes.append(run_cli(tracer, ["fit", "--input", f["path"], "--family", "exponential", "--output", f["fit"]]))
        t2 = time.perf_counter()
        codes.append(run_cli(tracer, ["bootstrap", "--params", f["fit"], "--span", span, "--v0", v0,
                                      "--n-paths", str(self.replicas), "--seed", str(derive_seed(self.seed, 2)),
                                      "--workers", "1", "--output", f["boot"]]))
        t3 = time.perf_counter()
        bad_replicas = _load(f["boot"])["n_nonconverged"] if os.path.exists(f["boot"]) else self.replicas
        return Round(wall_s=t3 - t0, fit_s=t3 - t1, items=self.replicas, items_s=t3 - t2,
                     attempted=len(codes) + self.replicas,
                     failed=sum(c != 0 for c in codes) + bad_replicas)

    def fingerprint(self) -> str:
        f = self.f
        return digest_files(f["path"], f["fit"], f"{f['fit']}.signature.csv", f["boot"])

    def check(self) -> list[str]:
        return check_reference(self.f["path"], self.f["fit"], self.f["boot"])


# ---------------------------------------------------------------------------
# heavy-tail-mc
# ---------------------------------------------------------------------------

HEAVY = {"b": 0.4, "nu": {1: 0.5, -1: 0.5}, "gamma": 1.0, "delta": 0.05, "order": 1.6, "v0": 1000}
HEAVY_HORIZONS = (1.0, 10.0, 60.0)
HEAVY_B_BAND = 0.12
HEAVY_P_MIN = 1e-6


def heavy_params():
    t = HEAVY
    fam = trawlprice.SupGigTrawl(gamma=t["gamma"], delta_gig=t["delta"], order=t["order"])
    return trawlprice.ModelParams(levy=trawlprice.LevyMeasure(t["nu"]), trawl=trawlprice.TrawlSpec(b=t["b"], family=fam))


def return_gap(horizon: float) -> float:
    """Spacing of sampled windows: wide enough that neighbours are nearly independent."""
    return max(20.0, 10.0 * horizon)


def _tick_path(p) -> ind.TickPath:
    return ind.TickPath(p.v0, p.t_start, p.t_end, np.asarray(p.times), p.v0 + np.cumsum(p.jumps))


def check_heavy(paths, stats, pmfs, fits, truth=HEAVY) -> list[str]:
    """Checks of the Monte Carlo study's paths, return laws and fits.

    ``paths`` and ``stats`` are per path; ``pmfs`` maps horizon to
    ``return_pmf`` output; ``fits`` holds ``(path index, family, FitResult)``
    for every fit that returned.
    """
    problems = []
    ticks = [_tick_path(p) for p in paths]
    rate = (2.0 - truth["b"]) * sum(truth["nu"].values())
    ok, msg = ind.event_count_ok(sum(t.times.size for t in ticks), rate, sum(t.span for t in ticks))
    if not ok:
        problems.append(f"event rate off: {msg}")
    for h, pmf in pmfs.items():
        samples = np.concatenate([ind.spaced_returns(t, h, return_gap(h)) for t in ticks])
        p, bins = ind.chi_square_pvalue(samples, pmf.support, pmf.probabilities)
        if not p >= HEAVY_P_MIN:
            problems.append(f"returns over {h:g}s disagree with return_pmf: chi-square p={p:.3g} ({bins} bins)")

    grid = np.asarray(stats[0].deltas)
    emp, s0 = [], []
    for k, (tp, st) in enumerate(zip(ticks, stats)):
        problems += [f"path {k}: {m}" for m in _grid_problems(st.deltas, grid)]
        problems += [f"path {k}: {m}" for m in ind.signature_mismatch(grid, st.variances / grid, tp)]
        var, _, _ = ind.signature(tp.t_start, tp.t_end, tp.times, tp.jumps, grid)
        emp.append(var / grid)
        s0.append(ind.second_moment_rate(tp.jumps, tp.span))
    # the truth for sup-gig; its sup-gamma limit (delta -> 0) for sup-gamma
    truth_inc = {
        "sup-gig": ind.quadrature_increment(ind.sup_gig_profile(truth["gamma"], truth["delta"], truth["order"]), grid),
        "sup-gamma": ind.quadrature_increment(ind.sup_gamma_profile(truth["gamma"] ** 2 / 2.0, truth["order"]), grid),
    }
    for k, family, fit in fits:
        label = f"path {k} {family}"
        b = fit.params.b
        if not abs(b - truth["b"]) <= HEAVY_B_BAND:
            problems.append(f"{label}: fitted b={b:.4f} outside {truth['b']} +- {HEAVY_B_BAND}")
        fam = fit.params.trawl.family.params()
        if family == "sup-gig":
            prof = ind.sup_gig_profile(fam["gamma"], fam["delta"], fam["nu"]) if fam["gamma"] > 0 else None
        else:
            prof = ind.sup_gamma_profile(fam["alpha"], fam["H"])
        own = fit.objective if prof is None else ind.objective(
            ind.signature_curve(b, ind.quadrature_increment(prof, grid), s0[k], grid), emp[k])
        at_truth = ind.objective(ind.signature_curve(truth["b"], truth_inc[family], s0[k], grid), emp[k])
        problems += _objective_problems(label, fit.objective, own, at_truth)
    return problems


class HeavyTailMC:
    name = "heavy-tail-mc"
    items_label = "sim_events_per_s"

    def __init__(self, workdir: str, seed: int, n_paths: int = 12, span: float = 15000.0,
                 gig_paths: int = 2, gig_starts: int = 6):
        self.seed, self.n_paths, self.span = seed, n_paths, span
        self.gig_paths, self.gig_starts = gig_paths, gig_starts
        self.out = None

    def prepare(self) -> None:
        self.params = heavy_params()
        self.seeds = [derive_seed(self.seed, 10 + k) for k in range(self.n_paths)]

    def run_round(self, tracer) -> Round:
        t0 = time.perf_counter()
        paths, sim_s = [], 0.0
        for s in self.seeds:
            ts = time.perf_counter()
            paths.append(trawlprice.simulate_path(self.params, 0.0, self.span, HEAVY["v0"], s))
            sim_s += time.perf_counter() - ts
        stats = [trawlprice.collect_stats(p) for p in paths]
        pmfs = {h: trawlprice.return_pmf(self.params, h) for h in HEAVY_HORIZONS}
        profiles = [trawlprice.nonparametric_trawl(st) for st in stats]
        # sup-gig fits cost ~2.5x a sup-gamma fit and vary 2x more from seed to seed, so
        # fit a few paths with sup-gig and every path with sup-gamma to keep fit_s steady
        plan = [(k, "sup-gig", {"n_starts": self.gig_starts}) for k in range(self.gig_paths)]
        plan += [(k, "sup-gamma", {}) for k in range(self.n_paths)]
        tf = time.perf_counter()
        fits, failed = [], 0
        for k, family, kw in plan:
            try:
                fit = trawlprice.fit_signature(stats[k], family=family, **kw)
            except ValueError:
                failed += 1
                continue
            failed += not fit.converged
            fits.append((k, family, fit))
        t1 = time.perf_counter()
        self.out = (paths, stats, pmfs, fits, profiles)
        return Round(wall_s=t1 - t0, fit_s=t1 - tf, items=sum(p.n_events for p in paths), items_s=sim_s,
                     attempted=len(plan), failed=failed)

    def fingerprint(self) -> str:
        paths, stats, pmfs, fits, profiles = self.out
        h = hashlib.sha256()
        for p in paths:
            h.update(p.times.tobytes())
            h.update(p.jumps.tobytes())
        for pmf in pmfs.values():
            h.update(pmf.probabilities.tobytes())
        h.update(repr([(k, fam, f.objective, f.params.to_dict()) for k, fam, f in fits]).encode())
        for prof in profiles:
            h.update(np.asarray(prof.d_tilde).tobytes())
        return h.hexdigest()

    def check(self) -> list[str]:
        paths, stats, pmfs, fits, _ = self.out
        return check_heavy(paths, stats, pmfs, fits)


# ---------------------------------------------------------------------------
# raw-feed
# ---------------------------------------------------------------------------

RAW = {"b": 0.35, "lambda": 1.5, "nu_up": 0.6, "nu_down": 0.6, "span": 50000.0, "v0": 8000, "tick": 0.25}
RAW_GRID = (0.01, 60.0, 60)
RAW_B_BAND, RAW_LAMBDA_BAND = 0.05, 0.10  # absolute for b, relative for lambda


def check_raw(feed: ind.RawFeed, clean_csv, diag_txt, fit_json, sig_csv, truth=RAW) -> list[str]:
    """Checks of the clean -> fit -> signature chain's files against the generator."""
    problems = []
    got, want = ind.read_path(clean_csv), feed.true_path
    same = (
        got.v0 == want.v0 and got.t_start == want.t_start and got.t_end == want.t_end
        and np.array_equal(got.times, want.times) and np.array_equal(got.prices, want.prices)
    )
    if not same:
        problems.append(
            f"cleaned path ({got.times.size} changes, v0={got.v0}, end {got.t_end}) differs from the "
            f"true path ({want.times.size} changes, v0={want.v0}, end {want.t_end})"
        )
    with open(diag_txt) as fh:
        counts, dropped = ind.count_diagnostics(fh.read().splitlines())
    if counts != feed.expected_diagnostics():
        problems.append(f"diagnostic lines per rule {counts} != injected {feed.expected_diagnostics()}")
    if dropped != feed.expected_no_trade_records():
        problems.append(f"step2 dropped {dropped} records, expected {feed.expected_no_trade_records()}")

    sig = ind.read_signature_csv(sig_csv)
    side = ind.read_signature_csv(f"{fit_json}.signature.csv")
    grid = np.geomspace(*RAW_GRID)
    problems += _grid_problems(sig["delta"], grid) + _grid_problems(side["delta"], grid)
    if problems:
        return problems
    problems += ind.signature_mismatch(grid, sig["empirical"], want)
    if not np.allclose(sig["fitted"], side["fitted"], rtol=1e-10, atol=0.0):
        problems.append("signature's fitted column differs from the fit sidecar's")
    fit = _load(fit_json)
    b, lam = float(fit["b"]), float(fit["trawl"]["params"]["lambda"])
    if not abs(b - truth["b"]) <= RAW_B_BAND:
        problems.append(f"fitted b={b:.4f} outside {truth['b']} +- {RAW_B_BAND}")
    if not abs(lam / truth["lambda"] - 1.0) <= RAW_LAMBDA_BAND:
        problems.append(f"fitted lambda={lam:.4f} outside {truth['lambda']} +- {RAW_LAMBDA_BAND:.0%}")
    var, _, _ = ind.signature(want.t_start, want.t_end, want.times, want.jumps, grid)
    emp = var / grid
    s0 = ind.second_moment_rate(want.jumps, want.span)
    fitted = ind.signature_curve(b, ind.exponential_increment(lam, grid), s0, grid)
    at_truth = ind.signature_curve(truth["b"], ind.exponential_increment(truth["lambda"], grid), s0, grid)
    problems += _objective_problems("fit", fit["objective"], ind.objective(fitted, emp), ind.objective(at_truth, emp))
    return problems


def make_feed(seed: int, span: float, truth=RAW, noise=ind.NoiseMix()) -> ind.RawFeed:
    rng = np.random.default_rng(derive_seed(seed, 3))
    stamps, prices = ind.exponential_tick_path(
        rng, truth["b"], truth["lambda"], truth["nu_up"], truth["nu_down"], span, truth["v0"]
    )
    return ind.render_feed(rng, stamps, prices, truth["v0"], truth["tick"], noise)


class RawFeedPipeline:
    name = "raw-feed"
    items_label = "clean_records_per_s"

    def __init__(self, workdir: str, seed: int, span: float = RAW["span"]):
        self.seed, self.span = seed, span
        self.f = {k: os.path.join(workdir, v) for k, v in {
            "raw": "raw.csv", "clean": "clean.csv", "diag": "diag.txt", "fit": "fit.json", "sig": "sig.csv"}.items()}

    def prepare(self) -> None:
        self.feed = make_feed(self.seed, self.span)
        with open(self.f["raw"], "w") as fh:
            fh.write(self.feed.text)

    def run_round(self, tracer) -> Round:
        f = self.f
        grid = ["--grid-min", repr(RAW_GRID[0]), "--grid-max", repr(RAW_GRID[1]), "--grid-points", str(RAW_GRID[2])]
        t0 = time.perf_counter()
        codes = [run_cli(tracer, ["clean", "--input", f["raw"], "--tick-size", repr(RAW["tick"]), "--step1",
                                  "--diagnostics", f["diag"], "--output", f["clean"]])]
        t1 = time.perf_counter()
        codes.append(run_cli(tracer, ["fit", "--input", f["clean"], "--family", "exponential", *grid,
                                      "--output", f["fit"]]))
        t2 = time.perf_counter()
        codes.append(run_cli(tracer, ["signature", "--input", f["clean"], "--fitted-params", f["fit"], *grid,
                                      "--output", f["sig"]]))
        t3 = time.perf_counter()
        return Round(wall_s=t3 - t0, fit_s=t2 - t1, items=self.feed.n_records, items_s=t1 - t0,
                     attempted=len(codes), failed=sum(c != 0 for c in codes))

    def fingerprint(self) -> str:
        f = self.f
        return digest_files(f["clean"], f["diag"], f["fit"], f"{f['fit']}.signature.csv", f["sig"])

    def check(self) -> list[str]:
        f = self.f
        return check_raw(self.feed, f["clean"], f["diag"], f["fit"], f["sig"])


WORKLOADS = {w.name: w for w in (ReferenceBootstrap, HeavyTailMC, RawFeedPipeline)}
