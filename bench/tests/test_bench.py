"""Tests of the benchmark itself: its generator, its independent
calculators, its checks (each must reject a corrupted output), its
tracer and its command line.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import independent as ind
import run
import trawlprice
import workloads as wl
from tracing import NullTracer, Tracer

# ---------------------------------------------------------------------------
# independent signature
# ---------------------------------------------------------------------------


def _dense_variance(t_start, t_end, times, jumps, delta):
    """Window-by-window loop: the plain definition the sparse code must match."""
    n = math.floor((t_end - t_start) / delta)
    r = [0] * n
    for t, y in zip(times, jumps):
        k = math.ceil((t - t_start) / delta)
        if k <= n:
            r[k - 1] += int(y)
    mean = sum(r) / n
    return sum((x - mean) ** 2 for x in r) / (n - 1)


def test_signature_hand_case():
    var, tol, counts = ind.signature(0.0, 4.0, [0.5, 1.5, 2.5], [1, 1, -1], [1.0])
    # returns per window (0,1], (1,2], (2,3], (3,4] are 1, 1, -1, 0
    assert counts.tolist() == [4]
    assert var[0] == pytest.approx(np.var([1, 1, -1, 0], ddof=1), rel=1e-15)
    assert tol[0] == 0.0


def test_signature_edge_event_belongs_to_the_window_it_closes():
    var, tol, _ = ind.signature(0.0, 4.0, [1.0, 2.5], [1, 1], [1.0])
    assert var[0] == pytest.approx(np.var([1, 0, 1, 0], ddof=1), rel=1e-15)
    assert tol[0] > 0.0  # the event at t=1 sits on an edge


def test_signature_matches_dense_loop_on_random_paths():
    rng = np.random.default_rng(7)
    for _ in range(5):
        times = np.sort(rng.uniform(0.0, 100.0, 300))
        jumps = rng.choice([-2, -1, 1, 2], size=300)
        deltas = np.array([0.37, 1.0, 3.3, 17.0])
        var, _, _ = ind.signature(0.0, 100.0, times, jumps, deltas)
        dense = [_dense_variance(0.0, 100.0, times, jumps, d) for d in deltas]
        np.testing.assert_allclose(var, dense, rtol=1e-12)


def test_signature_agrees_with_the_package_on_a_simulated_path():
    params = wl.heavy_params()
    path = trawlprice.simulate_path(params, 0.0, 2000.0, 0, 3)
    grid = np.geomspace(0.1, 60.0, 20)
    _, prog, _ = trawlprice.variance_grid(path, grid)
    tick = wl._tick_path(path)
    assert ind.signature_mismatch(grid, prog / grid, tick) == []
    lost = ind.TickPath(tick.v0, tick.t_start, tick.t_end, np.delete(tick.times, 50),
                        np.delete(tick.prices, 50) - tick.jumps[50] * (np.arange(tick.prices.size - 1) >= 50))
    assert ind.signature_mismatch(grid, prog / grid, lost)


def test_quadrature_increment_matches_closed_forms():
    grid = np.geomspace(0.01, 100.0, 15)
    np.testing.assert_allclose(
        ind.quadrature_increment(lambda u: math.exp(-0.7 * u), grid), ind.exponential_increment(0.7, grid),
        rtol=1e-10)
    alpha, H = 0.5, 1.6
    closed = alpha * (1.0 - (1.0 + grid / alpha) ** (1.0 - H)) / (H - 1.0)
    np.testing.assert_allclose(ind.quadrature_increment(ind.sup_gamma_profile(alpha, H), grid), closed, rtol=1e-10)


def test_chi_square_detects_a_shifted_law():
    support = np.arange(-10, 11)
    probs = np.exp(-0.5 * (support / 2.0) ** 2)
    probs /= probs.sum()
    rng = np.random.default_rng(0)
    sample = rng.choice(support, size=5000, p=probs)
    assert ind.chi_square_pvalue(sample, support, probs)[0] > 1e-3
    assert ind.chi_square_pvalue(sample + 1, support, probs)[0] < 1e-6


# ---------------------------------------------------------------------------
# feed generator
# ---------------------------------------------------------------------------


def test_tick_path_is_a_valid_millisecond_path():
    rng = np.random.default_rng(1)
    stamps, prices = ind.exponential_tick_path(rng, 0.35, 1.5, 0.6, 0.6, 5000.0, 100)
    assert stamps.dtype == np.int64 and stamps[0] >= 1 and stamps[-1] <= 5_000_000
    assert np.all(np.diff(stamps) > 0)
    assert np.all(np.diff(np.concatenate([[100], prices])) != 0)
    # netting within a millisecond removes very few changes at this activity
    ok, msg = ind.event_count_ok(stamps.size, (2.0 - 0.35) * 1.2, 5000.0, z=6.0)
    assert ok, msg


def test_render_feed_hand_case_without_noise():
    rng = np.random.default_rng(0)
    quiet = ind.NoiseMix(quote_share=0.0, out_of_band=0.0, duplicate_fill=0.0, straddle=0.0, repeat=0.0)
    feed = ind.render_feed(rng, np.array([1500, 2001]), np.array([11, 10]), 10, 0.25, quiet)
    rows = list(csv.reader(feed.text.splitlines()))
    assert rows[0] == ["log_t", "bid", "bidsz", "ask", "asksz", "trade", "tradesz"]
    assert [(r[0], r[1], r[3], r[5]) for r in rows[1:]] == [
        ("0.000", "2.25", "2.75", ""), ("0.000", "", "", "2.5"), ("1.500", "", "", "2.75"), ("2.001", "", "", "2.5")]
    assert feed.true_path.times.tolist() == [1.5, 2.001] and feed.true_path.t_end == 2.001
    assert feed.expected_diagnostics() == {"step1": 0, "step2": 1, "step3-1": 0, "step3-2": 0, "step4": 0}


def test_render_feed_injects_the_requested_noise():
    feed = wl.make_feed(5, 3000.0)
    n_true = feed.true_path.times.size
    inj = feed.injected
    assert inj["duplicate_fill"] == int(0.02 * n_true) and inj["straddle"] == int(0.01 * n_true)
    trades = sum(1 for r in csv.DictReader(feed.text.splitlines()) if r["trade"])
    assert trades == 1 + n_true + inj["duplicate_fill"] + inj["out_of_band"] + 2 * inj["straddle"] + inj["repeat"]
    assert feed.n_records == trades + inj["quotes"]


# ---------------------------------------------------------------------------
# workload checks reject corrupted outputs
# ---------------------------------------------------------------------------


def _rewrite_rows(csv_file, edit):
    with open(csv_file, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(csv_file, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path, edit):
    with open(path) as fh:
        blob = json.load(fh)
    edit(blob)
    with open(path, "w") as fh:
        json.dump(blob, fh)


@pytest.fixture(scope="module")
def raw_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("raw")
    w = wl.RawFeedPipeline(str(d), seed=4, span=4000.0)
    w.prepare()
    rnd = w.run_round(NullTracer())
    assert rnd.failed == 0
    return w


def _copy_outputs(w, tmp_path):
    f = {}
    for key, src in w.f.items():
        for extra in ("", ".meta.json", ".signature.csv"):
            if os.path.exists(src + extra):
                shutil.copy(src + extra, tmp_path / (os.path.basename(src) + extra))
        f[key] = str(tmp_path / os.path.basename(src))
    return f


def _check_raw(w, f):
    return wl.check_raw(w.feed, f["clean"], f["diag"], f["fit"], f["sig"])


def test_raw_feed_check_passes_on_good_output(raw_run):
    assert raw_run.check() == []


@pytest.mark.parametrize("corruption", ["dropped event", "shifted stamp"])
def test_raw_feed_check_rejects_corrupt_cleaned_path(raw_run, tmp_path, corruption):
    f = _copy_outputs(raw_run, tmp_path)
    if corruption == "dropped event":
        _rewrite_rows(f["clean"], lambda rows: rows[:100] + rows[101:])
    else:
        def shift(rows):
            rows[100][0] = repr(float(rows[100][0]) + 0.001)
            return rows
        _rewrite_rows(f["clean"], shift)
    assert any("cleaned path" in p for p in _check_raw(raw_run, f))


def test_raw_feed_check_rejects_missing_diagnostic(raw_run, tmp_path):
    f = _copy_outputs(raw_run, tmp_path)
    lines = Path(f["diag"]).read_text().splitlines()
    drop = next(i for i, line in enumerate(lines) if line.startswith("step3-2"))
    Path(f["diag"]).write_text("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
    assert any("diagnostic lines" in p for p in _check_raw(raw_run, f))


def test_raw_feed_check_rejects_signature_of_a_path_with_a_lost_event(raw_run, tmp_path):
    f = _copy_outputs(raw_run, tmp_path)
    lossy = str(tmp_path / "lossy.csv")
    shutil.copy(f["clean"], lossy)
    shutil.copy(f["clean"] + ".meta.json", lossy + ".meta.json")

    def drop(rows):  # a row whose neighbours differ, so the merged jump is nonzero
        i = next(i for i in range(200, len(rows) - 1) if rows[i - 1][1] != rows[i + 1][1])
        return rows[:i] + rows[i + 1:]

    _rewrite_rows(lossy, drop)
    grid = ["--grid-min", "0.01", "--grid-max", "60", "--grid-points", "60"]
    assert wl.run_cli(NullTracer(), ["signature", "--input", lossy, "--fitted-params", f["fit"], *grid,
                                     "--output", f["sig"]]) == 0
    assert any("signature at delta" in p for p in _check_raw(raw_run, f))


def test_raw_feed_check_rejects_perturbed_fit(raw_run, tmp_path):
    f = _copy_outputs(raw_run, tmp_path)

    def nudge(blob):
        blob["b"] += 0.002

    _edit_json(f["fit"], nudge)
    assert any("reported objective" in p for p in _check_raw(raw_run, f))


def test_raw_feed_check_rejects_fitted_column_mismatch(raw_run, tmp_path):
    f = _copy_outputs(raw_run, tmp_path)

    def bump(rows):
        rows[5][2] = repr(float(rows[5][2]) * 1.001)
        return rows

    _rewrite_rows(f["sig"], bump)
    assert any("fitted column" in p for p in _check_raw(raw_run, f))


@pytest.fixture(scope="module")
def ref_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("ref")
    w = wl.ReferenceBootstrap(str(d), seed=4, replicas=8)
    w.prepare()
    assert w.run_round(NullTracer()).failed == 0
    return w


def _check_ref(f):
    return wl.check_reference(f["path"], f["fit"], f["boot"])


def test_reference_check_passes_on_good_output(ref_run):
    assert ref_run.check() == []


def test_reference_check_rejects_dropped_event(ref_run, tmp_path):
    f = _copy_outputs(ref_run, tmp_path)
    _rewrite_rows(f["path"], lambda rows: rows[:300] + rows[301:])
    assert any("signature at delta" in p for p in _check_ref(f))


def test_reference_check_rejects_perturbed_fit(ref_run, tmp_path):
    f = _copy_outputs(ref_run, tmp_path)

    def nudge(blob):
        blob["trawl"]["params"]["lambda"] *= 1.01

    _edit_json(f["fit"], nudge)
    assert any("reported objective" in p for p in _check_ref(f))


@pytest.mark.parametrize("field,scale", [("means", None), ("se", 3.0)])
def test_reference_check_rejects_corrupt_bootstrap(ref_run, tmp_path, field, scale):
    f = _copy_outputs(ref_run, tmp_path)

    def corrupt(blob):
        if field == "means":
            blob["means"]["b"] += 10 * blob["se"]["b"] / math.sqrt(blob["n_paths"])
        else:
            blob["se"]["b"] *= scale

    _edit_json(f["boot"], corrupt)
    assert any("bootstrap" in p for p in _check_ref(f))


@pytest.fixture(scope="module")
def heavy_run(tmp_path_factory):
    w = wl.HeavyTailMC(str(tmp_path_factory.mktemp("heavy")), seed=4, n_paths=2, span=20000.0, gig_paths=1,
                       gig_starts=2)
    w.prepare()
    assert w.run_round(NullTracer()).failed == 0
    return w


def test_heavy_check_passes_on_good_output(heavy_run):
    assert heavy_run.check() == []


def test_heavy_check_rejects_dropped_event(heavy_run):
    paths, stats, pmfs, fits, _ = heavy_run.out
    p = paths[0]
    short = trawlprice.PricePath(v0=p.v0, t_start=p.t_start, t_end=p.t_end,
                                 times=np.delete(p.times, 10), jumps=np.delete(p.jumps, 10))
    assert any("signature at delta" in m for m in wl.check_heavy([short, *paths[1:]], stats, pmfs, fits))


def test_heavy_check_rejects_wrong_return_law(heavy_run):
    paths, stats, pmfs, fits, _ = heavy_run.out
    bad = dict(pmfs)
    bad[1.0] = pmfs[10.0]
    assert any("return_pmf" in m for m in wl.check_heavy(paths, stats, bad, fits))


def test_heavy_check_rejects_perturbed_fit(heavy_run):
    paths, stats, pmfs, fits, _ = heavy_run.out
    k, family, fit = fits[-1]
    worse = dataclasses.replace(fit, objective=fit.objective * 10.0)
    problems = wl.check_heavy(paths, stats, pmfs, [*fits[:-1], (k, family, worse)])
    assert any(family in m and "objective" in m for m in problems)


# ---------------------------------------------------------------------------
# tracer and command line
# ---------------------------------------------------------------------------


def test_tracer_counts_and_restores():
    original = trawlprice.estimate.fit_signature
    original_increment = vars(trawlprice.model.TrawlSpec)["increment"]
    params = wl.heavy_params()
    path = trawlprice.simulate_path(params, 0.0, 500.0, 0, 1)
    tracer = Tracer().install()
    try:
        stats = trawlprice.collect_stats(path, np.geomspace(0.1, 10.0, 10))
        trawlprice.fit_signature(stats, family="sup-gamma", n_starts=2)
        params.trawl.family.lifetime_quantile(np.full(7, 0.5))
    finally:
        tracer.uninstall()
    assert trawlprice.estimate.fit_signature is original and trawlprice.fit_signature is original
    assert vars(trawlprice.model.TrawlSpec)["increment"] is original_increment
    assert tracer.counts["estimate.fit_signature.calls"] == 1
    assert tracer.counts["estimate.variance_grid.windows"] == sum(math.floor(500.0 / d) for d in stats.deltas)
    assert tracer.counts["model.quantile.draws"] == 7
    assert tracer.calls("model.increment") > 10
    spans = tracer.spans["estimate.fit_signature.sup-gamma"]
    assert spans[0] == 1 and 0.0 < spans[2] <= spans[1]


def test_benchmark_json_matches_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.SPEC


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "raw-feed", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0 and out.stdout == ""
