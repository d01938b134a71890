"""Tests for moment estimators, the signature fit, bootstrap, and the
model-free trawl recovery.

The inversion identities are checked both on hand-built frequency tables
and under hypothesis-generated inputs; fits are exercised on noise-free
theoretical signatures (where recovery must be essentially exact) and on
simulated paths (where only statistical closeness is required).
"""

import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import optimize

import trawlprice
import trawlprice.estimate as estimate

from trawlprice import (
    DEFAULT_GRID,
    EmpiricalStats,
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    PricePath,
    SupGammaTrawl,
    SupGigTrawl,
    TrawlSpec,
    bootstrap,
    collect_stats,
    expected_pv,
    fit_signature,
    jump_distribution,
    jump_empirics,
    levy_from_moments,
    nonparametric_trawl,
    return_cumulant,
    returns_at,
    simulate_path,
    variance_grid,
)

from conftest import BASE_B, BASE_LAM, BASE_NU
from conftest import theoretical_stats as _theoretical_stats


def _dense_returns(path: PricePath, delta: float) -> np.ndarray:
    """Reference returns: one for every one of the ``floor(span/delta)`` windows."""
    n = int(math.floor(path.span / delta))
    k = np.ceil((path.times - path.t_start) / delta).astype(np.int64)
    keep = k <= n
    return np.bincount(k[keep], weights=path.jumps[keep], minlength=n + 1)[1:]


def _dense_variance(path: PricePath, delta: float) -> tuple[float, int]:
    """Reference signature point: the dense returns' two-pass variance."""
    rets = _dense_returns(path, delta)
    return float(np.var(rets, ddof=1)), rets.size


def _random_path(seed: int, n_events: int, t_start: float, t_end: float) -> PricePath:
    rng = np.random.default_rng(seed)
    times = np.unique(rng.uniform(t_start, t_end, n_events))
    times = times[times > t_start]
    jumps = rng.choice([-3, -2, -1, 1, 2, 5], size=times.size)
    return PricePath(v0=100, t_start=t_start, t_end=t_end, times=times, jumps=jumps)


def _millisecond_path(params, t_end: float, seed: int) -> PricePath:
    """A simulated path with stamps rounded up to 1 ms and moves sharing a
    stamp netted, as a cleaned real feed would hold them."""
    path = simulate_path(params, 0.0, t_end, 0, seed)
    stamps, where = np.unique(np.ceil(path.times * 1000.0) / 1000.0, return_inverse=True)
    net = np.bincount(where, weights=path.jumps).astype(np.int64)
    return PricePath(v0=0, t_start=0.0, t_end=t_end, times=stamps[net != 0], jumps=net[net != 0])


# (path, window lengths) cases for the sparse signature against dense references
_SPARSE_CASES = [
    # random paths with several jump sizes and a ragged tail
    (_random_path(0, 2000, 0.0, 1000.0), np.geomspace(0.01, 300.0, 25)),
    (_random_path(1, 500, 3.7, 977.3), np.geomspace(0.3, 400.0, 15)),
    # most windows empty
    (_random_path(2, 20, 0.0, 50000.0), [0.5, 7.0, 1000.0]),
    # every event in the ragged tail beyond the last full window
    (PricePath(v0=0, t_start=0.0, t_end=10.0, times=np.array([9.5, 9.9]), jumps=np.array([1, -2])),
     [3.0, 4.5]),
    # no events at all
    (PricePath(v0=0, t_start=1.0, t_end=11.0, times=np.empty(0), jumps=np.empty(0, dtype=int)),
     [1.0, 2.0]),
]


def _edge_path(t_end: float, times, jumps) -> PricePath:
    return PricePath(v0=0, t_start=0.0, t_end=t_end, times=np.array(times, dtype=float), jumps=np.array(jumps))


def _one_event_per_window(delta: float, n: int) -> PricePath:
    """``n`` full windows of length ``delta``, each holding one event at its
    middle, with moves of both signs and several sizes."""
    jumps = [(-1) ** j * (j % 4 + 1) for j in range(n)]
    return _edge_path(n * delta + delta / 3, (np.arange(n) + 0.5) * delta, jumps)


# (path, window lengths) cases for the edges of the per-length signature
# step, where the telescoped sums have no window-final event, x[0] alone or
# an empty dx
_KERNEL_EDGE_CASES = [
    # no window-final event: every event lies beyond the last full window,
    # once with moves whose squares would pass int64
    (_edge_path(10.0, [9.1, 9.5, 9.9], [1, -2, 3]), [3.0, 4.5]),
    (_edge_path(10.0, [9.5, 9.9], [2**62, 2**62]), [3.0, 4.5]),
    # exactly 2 full windows, with a ragged tail and without one
    (_edge_path(10.0, [1.0, 4.0, 4.9, 6.0, 9.8, 9.95], [2, -1, 3, -4, 1, 5]), [4.9, 5.0]),
    # one event per window at every length
    (_one_event_per_window(0.25, 40), [0.25]),
    (_one_event_per_window(1.0, 7), [1.0]),
    (_one_event_per_window(3.7, 2), [3.7]),
    # a single full window holds every event, first or a later one
    (_edge_path(10.0, [0.5, 1.0, 2.5, 3.9], [3, -1, 2, 2]), [4.0, 5.0]),
    (_edge_path(10.0, [3.5, 4.0, 5.5], [-2, -2, 7]), [3.0, 4.5]),
]


def _manual_path() -> PricePath:
    return PricePath(
        v0=0,
        t_start=0.0,
        t_end=10.0,
        times=np.array([1.0, 2.5, 6.0, 9.0]),
        jumps=np.array([1, -1, 2, 1]),
    )


# ---------------------------------------------------------------------------
# Jump empirics
# ---------------------------------------------------------------------------


class TestJumpEmpirics:
    def test_manual_counts(self):
        stats = jump_empirics(_manual_path())
        assert stats.alpha == {1: 0.5, -1: 0.25, 2: 0.25}
        assert stats.beta[0.0] == 0.4  # 4 events / 10 s
        assert stats.beta[1.0] == 0.5  # sum |jump| = 5
        assert stats.beta[2.0] == 0.7  # sum jump^2 = 7
        assert stats.n_events == 4 and stats.span == 10.0

    def test_power_variation_orders_are_fixed(self):
        assert set(jump_empirics(_manual_path()).beta) == {0.0, 1.0, 2.0}

    def test_empty_path_rejected(self):
        empty = PricePath(v0=0, t_start=0.0, t_end=1.0, times=np.empty(0), jumps=np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            jump_empirics(empty)

    def test_second_moment_rate(self):
        stats = jump_empirics(_manual_path())
        # sum y^2 alpha_y * beta_0 = (1*0.5 + 1*0.25 + 4*0.25) * 0.4
        assert_allclose(stats.second_moment_rate(), 0.7)

    def test_second_moment_rate_requires_counting_rate(self):
        stats = EmpiricalStats(
            alpha={1: 1.0}, beta={2.0: 0.1}, deltas=np.empty(0),
            variances=np.empty(0), counts=np.empty(0, dtype=np.int64), span=1.0, n_events=1,
        )
        with pytest.raises(ValueError):
            stats.second_moment_rate()


# ---------------------------------------------------------------------------
# Variance grid
# ---------------------------------------------------------------------------


class TestVarianceGrid:
    def test_equals_literal_two_pass_variance(self, base_params):
        path = simulate_path(base_params, 0.0, 60000.0, 0, 17)
        deltas = np.geomspace(0.1, 60.0, 20)
        d, v, n = variance_grid(path, deltas)
        assert_array_equal(d, deltas)
        for i, delta in enumerate(deltas):
            rets = returns_at(path, float(delta))
            assert n[i] == rets.size
            assert_allclose(v[i], np.var(rets, ddof=1), rtol=1e-12, atol=1e-15)

    def test_manual_example(self):
        d, v, n = variance_grid(_manual_path(), [5.0])
        # windows (0,5] and (5,10]: returns 0 and 3
        assert n[0] == 2
        assert_allclose(v[0], np.var([0.0, 3.0], ddof=1))

    def test_rejects_window_beyond_half_span(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            with pytest.warns(UserWarning, match=r"dropping window length 6\.0: "):  # warned before it raises
                variance_grid(_manual_path(), [6.0])

    def test_drop_mode_warns_and_drops(self):
        with pytest.warns(UserWarning, match=r"dropping window length 6\.0: "):
            d, v, n = variance_grid(_manual_path(), [2.0, 6.0])
        assert_array_equal(d, [2.0])

    def test_all_dropped_raises(self):
        with pytest.raises(ValueError, match="no compatible"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                variance_grid(_manual_path(), [6.0, 7.0])

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [math.nan], [2.0, 1.0], [[1.0, 2.0]]])
    def test_rejects_malformed_grids(self, bad):
        with pytest.raises(ValueError):
            variance_grid(_manual_path(), bad)

    @pytest.mark.parametrize("path,deltas", _SPARSE_CASES)
    def test_sparse_matches_dense_reference(self, path, deltas):
        d, v, n = variance_grid(path, deltas)
        for i, delta in enumerate(d):
            var, count = _dense_variance(path, float(delta))
            assert n[i] == count
            assert_allclose(v[i], var, rtol=1e-12, atol=1e-15)

    def test_millisecond_edges_follow_returns_at(self):
        # stamps quantised to 1 ms sit exactly on window edges; both paths
        # of the code must put them in the same window, also where most
        # windows are empty (delta 0.01) and on a path with no events
        params = ModelParams(
            levy=LevyMeasure({1: 0.5, -1: 0.5}),
            trawl=TrawlSpec(b=BASE_B, family=ExponentialTrawl(lam=BASE_LAM)),
        )
        deltas = [0.01, 0.3, 0.7, 1.0]
        empty = PricePath(v0=0, t_start=0.0, t_end=20.0, times=np.empty(0), jumps=np.empty(0, dtype=int))
        for path in (_millisecond_path(params, 20000.0, 1), empty):
            _, v, n = variance_grid(path, deltas)
            for i, delta in enumerate(deltas):
                returns = returns_at(path, delta)
                assert returns.dtype == np.int64 and returns.size == n[i]
                assert_allclose(v[i], np.var(returns, ddof=1), rtol=1e-12)

    def test_variance_is_the_exact_integer_formula(self):
        # not merely close: the variance is (n*sum r^2 - (sum r)^2) / (n(n-1))
        # in exact integers with one rounding, over returns equal to the
        # dense reference, on every sparse case and on millisecond edges
        params = ModelParams(
            levy=LevyMeasure({1: 0.5, -1: 0.5}),
            trawl=TrawlSpec(b=BASE_B, family=ExponentialTrawl(lam=BASE_LAM)),
        )
        millisecond = (_millisecond_path(params, 20000.0, 1), [0.01, 0.3, 0.7, 1.0])
        for path, deltas in [*_SPARSE_CASES, millisecond, *_KERNEL_EDGE_CASES]:
            d, v, n = variance_grid(path, deltas)
            assert_array_equal(d, deltas)
            for i, delta in enumerate(d):
                returns = returns_at(path, float(delta))
                assert returns.dtype == np.int64
                assert_array_equal(returns, _dense_returns(path, float(delta)))
                r = returns.tolist()
                count, total, squares = len(r), sum(r), sum(x * x for x in r)
                assert n[i] == count
                assert v[i] == (count * squares - total * total) / (count * (count - 1))

    @pytest.mark.parametrize(
        "jumps", [[4_000_000_000, -4_000_000_000], [2**62, 2**62, -1]], ids=["squares-pass-int64", "running-move-wraps"]
    )
    def test_returns_beyond_int64_squares_are_exact(self, jumps):
        # one move per 5 s window: the squares of the returns sum past 2**63,
        # and in the second case the running price move itself wraps int64
        path = PricePath(v0=0, t_start=0.0, t_end=15.0, times=[1.0, 6.0, 11.0][: len(jumps)], jumps=np.array(jumps))
        r = jumps + [0] * (3 - len(jumps))
        assert returns_at(path, 5.0).tolist() == r
        _, v, n = variance_grid(path, [5.0])
        assert n[0] == 3
        assert v[0] == (3 * sum(x * x for x in r) - sum(r) ** 2) / 6

    def test_memory_scales_with_events(self):
        # 10^7 windows of 1 ms but only ~1k events: a dense pass would
        # allocate ~80 MB per window array
        path = _random_path(3, 1000, 0.0, 10000.0)
        tracemalloc.start()
        try:
            _, v, n = variance_grid(path, [0.001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n[0] == 10**7
        assert peak < 5 * 2**20
        assert_allclose(v[0], _dense_variance(path, 0.001)[0], rtol=1e-12)

    def test_collect_stats_bundles_everything(self, base_params):
        path = simulate_path(base_params, 0.0, 5000.0, 0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # default grid fits: no warning
            stats = collect_stats(path)
        assert stats.deltas.size == DEFAULT_GRID.size
        assert stats.n_events == path.n_events
        assert 0.0 in stats.beta and 2.0 in stats.beta

    def test_collect_stats_drops_bad_deltas_with_warning(self, base_params):
        path = simulate_path(base_params, 0.0, 100.0, 0, 3)
        with pytest.warns(UserWarning):
            stats = collect_stats(path, deltas=np.array([1.0, 10.0, 80.0]))
        assert_array_equal(stats.deltas, [1.0, 10.0])


# ---------------------------------------------------------------------------
# Levy inversion from moments
# ---------------------------------------------------------------------------


class TestLevyFromMoments:
    def test_inverts_forward_map_exactly(self, base_params):
        alpha = jump_distribution(base_params)
        beta0 = expected_pv(base_params, 1.0, 0.0)
        levy = levy_from_moments(alpha, beta0, BASE_B)
        assert_allclose(levy[1], BASE_NU[1], rtol=1e-12)
        assert_allclose(levy[-1], BASE_NU[-1], rtol=1e-12)

    @given(
        b=st.floats(0.02, 1.0),
        nu_p=st.floats(1e-4, 5.0),
        nu_m=st.floats(1e-4, 5.0),
        nu_2=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80)
    def test_forward_inverse_round_trip(self, b, nu_p, nu_m, nu_2):
        # per size pair the inverse is a 2x2 map with condition number
        # (2-b)/b, applied to frequencies the forward map has rounded, so
        # no inverse is componentwise accurate for the small member of a
        # lopsided pair at small b.  A correct one is accurate to a small
        # multiple of eps (2-b)/b times the pair's total intensity, and
        # maps back onto the frequencies it was given.  Intensities below
        # 1e-300 underflow in the frequencies and are not recoverable.
        rates = {1: nu_p, -1: nu_m}
        if nu_2 > 0:
            rates[2] = nu_2
        params = ModelParams(
            levy=LevyMeasure(rates), trawl=TrawlSpec(b=b, family=ExponentialTrawl(lam=1.0))
        )
        alpha = jump_distribution(params)
        levy = levy_from_moments(alpha, expected_pv(params, 1.0, 0.0), b)
        eps = np.finfo(float).eps
        for y in {*rates, *(-y for y in rates)}:
            pair = rates.get(y, 0.0) + rates.get(-y, 0.0)
            assert abs(levy[y] - rates.get(y, 0.0)) <= 8.0 * eps * (2.0 - b) / b * pair + 1e-300, y
        back = jump_distribution(ModelParams(levy=levy, trawl=params.trawl))
        for y in {*alpha, *back}:
            assert_allclose(back.get(y, 0.0), alpha.get(y, 0.0), rtol=1e-13, atol=1e-300)

    def test_truncation_keeps_pair_total(self):
        # one side of the +-1 pair comes out negative and is clipped; the
        # pair's total intensity must be preserved exactly
        alpha = {1: 0.1, -1: 0.9}
        b, beta0 = 0.5, 2.0
        levy = levy_from_moments(alpha, beta0, b)
        assert levy[1] == 0.0
        assert_allclose(levy[-1], (0.1 + 0.9) * beta0 / (2 - b), rtol=1e-14)

    @given(
        b=st.floats(1e-3, 1.0),
        w1=st.floats(0.0, 1.0),
        w2=st.floats(0.0, 1.0),
        w3=st.floats(0.0, 1.0),
        beta0=st.floats(1e-3, 10.0),
        r=st.floats(0.0, 4.0),
    )
    @settings(max_examples=150)
    def test_power_moments_do_not_depend_on_b(self, b, w1, w2, w3, beta0, r):
        # (2-b) * sum |y|^r nu_hat(y) must equal sum |y|^r alpha_y beta_0
        # for every moment order, whatever b was assumed in the inversion
        raw = {1: w1 + 1e-6, -1: w2, 3: w3}
        total = sum(raw.values())
        alpha = {y: w / total for y, w in raw.items()}
        levy = levy_from_moments(alpha, beta0, b)
        lhs = (2.0 - b) * sum(abs(y) ** r * rate for y, rate in levy.as_dict().items())
        rhs = sum(abs(y) ** r * a for y, a in alpha.items()) * beta0
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta0,b",
        [
            ({1: 0.5, -1: 0.4}, 1.0, 0.5),  # does not sum to 1
            ({1: 1.0}, -1.0, 0.5),
            ({1: 1.0}, 1.0, 0.0),
            ({1: 1.0}, 1.0, 1.5),
            ({0: 0.5, 1: 0.5}, 1.0, 0.5),
            ({1: -0.2, -1: 1.2}, 1.0, 0.5),
        ],
    )
    def test_rejects_invalid_inputs(self, alpha, beta0, b):
        with pytest.raises(ValueError):
            levy_from_moments(alpha, beta0, b)


# ---------------------------------------------------------------------------
# Signature fit
# ---------------------------------------------------------------------------


class TestFitSignature:
    def test_objective_vanishes_at_truth_on_noise_free_grid(self, base_params):
        stats = _theoretical_stats(base_params)
        # the model curve at the true parameters reproduces the empirical
        # signature identically
        s0 = stats.second_moment_rate()
        spec = base_params.trawl
        model = (spec.b * stats.deltas + 2 * spec.increment(stats.deltas)) / (
            (2 - spec.b) * stats.deltas
        ) * s0
        objective_at_truth = float(np.sum((model - stats.variances / stats.deltas) ** 2))
        assert objective_at_truth < 1e-18

    def test_noise_free_recovery_is_exact(self, base_params):
        fit = fit_signature(_theoretical_stats(base_params), family="exponential")
        assert fit.converged
        assert fit.objective < 1e-18
        assert fit.boundary_flags == ()
        assert_allclose(fit.params.b, BASE_B, rtol=1e-4)
        assert_allclose(fit.params.trawl.family.lam, BASE_LAM, rtol=1e-4)
        assert_allclose(fit.params.levy[1], BASE_NU[1], rtol=1e-4)
        assert_allclose(fit.params.levy[-1], BASE_NU[-1], rtol=1e-4)

    def test_deterministic_for_fixed_seed(self, base_params):
        # the fit draws no random numbers: repeated calls agree exactly
        stats = _theoretical_stats(base_params)
        a = fit_signature(stats, family="exponential")
        b = fit_signature(stats, family="exponential")
        assert a.params.b == b.params.b
        assert a.objective == b.objective

    def test_heavy_tail_pins_shape_at_boundary(self):
        # a polynomial-tail signature is heavier than any integrable-area
        # member of the gamma-mixed family, so the fit pins the tail index
        # at its lower bound and flags it
        heavy = ModelParams(
            levy=LevyMeasure(BASE_NU),
            trawl=TrawlSpec(b=BASE_B, family=SupGigTrawl(gamma=0.0, delta_gig=0.9, order=-0.6)),
        )
        fit = fit_signature(_theoretical_stats(heavy), family="sup-gamma")
        assert "H" in fit.boundary_flags
        assert_allclose(fit.params.trawl.family.H, 1.0, rtol=1e-6)

    def test_fitted_curve_is_reported_on_grid(self, base_params):
        stats = _theoretical_stats(base_params)
        fit = fit_signature(stats, family="exponential")
        assert fit.deltas.shape == fit.empirical.shape == fit.fitted.shape
        assert_allclose(fit.empirical, stats.variances / stats.deltas, rtol=1e-14)
        assert_allclose(fit.fitted, fit.empirical, rtol=1e-6)

    def test_result_serialises(self, base_params):
        fit = fit_signature(_theoretical_stats(base_params), family="exponential")
        blob = fit.to_dict()
        assert blob["converged"] is True
        assert blob["boundary_flags"] == []
        assert blob["se"] is None
        assert set(blob["levy"]) == {"1", "-1"}
        assert blob["trawl"]["family"] == "exponential"

    def test_rejects_unknown_family_and_short_grid(self, base_params):
        stats = _theoretical_stats(base_params)
        with pytest.raises(ValueError, match="unknown trawl family"):
            fit_signature(stats, family="cauchy")
        with pytest.raises(ValueError, match="at least 3"):
            fit_signature(_theoretical_stats(base_params, deltas=[1.0, 2.0]))

    def test_tabulated_family_is_known_but_not_fittable(self, base_params):
        with pytest.raises(ValueError, match="parametric") as info:
            fit_signature(_theoretical_stats(base_params), family="tabulated")
        assert "unknown" not in str(info.value)

    @pytest.mark.parametrize("family", ["exponential", "sup-gamma", "sup-gig"])
    @pytest.mark.parametrize("n_starts", [0, -1, 2.5])
    def test_rejects_non_positive_n_starts(self, base_params, family, n_starts):
        with pytest.raises(ValueError, match="n_starts"):
            fit_signature(_theoretical_stats(base_params), family=family, n_starts=n_starts)

    @pytest.mark.parametrize(
        "family,seed",
        [("exponential", 2), ("exponential", 3), ("exponential", 4), ("sup-gamma", 2)],
        ids=["2", "3", "4", "sup-gamma-2"],
    )
    def test_exponential_fit_beats_dense_grid_search(self, base_params, family, seed):
        # reference optimiser: a dense grid over b and the family's shape on
        # the literal model curve, refined by Nelder-Mead from its best point
        stats = collect_stats(simulate_path(base_params, 0.0, 30000.0, 0, seed))
        d, emp, s0 = stats.deltas, stats.variances / stats.deltas, stats.second_moment_rate()
        increment = {
            "exponential": lambda lam: -np.expm1(-lam * d) / lam,
            "sup-gamma": lambda alpha, h: -alpha * np.expm1((1.0 - h) * np.log1p(d / alpha)) / (h - 1.0),
        }[family]

        def curve(b, *shape):
            inc = (1.0 - b) * increment(*shape)
            return (b * d + 2.0 * inc) / ((2.0 - b) * d) * s0

        # grid axes of b and the shape in natural units, the scale first;
        # the Nelder-Mead bounds are in search units (log scale)
        n = {"exponential": 200, "sup-gamma": 30}[family]
        axes = [np.linspace(1e-6, 1.0, n), np.geomspace(1e-3, 1e3, n)]
        bounds = [(1e-6, 1.0), (math.log(1e-5), math.log(1e5))]
        if family == "sup-gamma":
            axes.append(np.linspace(1.05, 50.0, n))
            bounds.append((1.0 + 1e-9, 50.0))
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        sse = np.sum((curve(*(m[..., None] for m in mesh)) - emp) ** 2, axis=-1)
        idx = np.unravel_index(np.argmin(sse), sse.shape)
        start = [axis[i] for axis, i in zip(axes, idx)]
        start[1] = math.log(start[1])

        def natural(x):
            return (x[0], math.exp(x[1]), *x[2:])

        ref = optimize.minimize(
            lambda x: float(np.sum((curve(*natural(x)) - emp) ** 2)),
            start,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-12, "fatol": 1e-20, "maxfev": 20000},
        )
        fit = fit_signature(stats, family=family)
        assert fit.converged
        assert fit.objective <= ref.fun * (1.0 + 1e-9)

    def test_diagnostics_recorded(self, base_params):
        stats = _theoretical_stats(base_params)
        exp_fit = fit_signature(stats, family="exponential")
        assert exp_fit.diagnostics["search"] == "grid+brent"
        assert exp_fit.diagnostics["kept"] in ("grid", "brent")
        assert exp_fit.diagnostics["nfev"] > estimate._GRID_POINTS
        assert isinstance(exp_fit.diagnostics["message"], str)
        gamma_fit = fit_signature(stats, family="sup-gamma", n_starts=3)
        assert gamma_fit.diagnostics["search"] == "grid+nelder-mead"
        assert gamma_fit.diagnostics["nfev"] > 3
        assert exp_fit.to_dict()["diagnostics"] == exp_fit.diagnostics

    def test_converged_reports_the_kept_run(self, base_params, monkeypatch):
        # a polish that ends worse than the best grid point is discarded:
        # the grid point is kept, while converged and the message still
        # come from the polish
        real = optimize.minimize
        calls = []

        def failing_polish(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            calls.append(res)
            res.fun, res.success, res.message = res.fun + 1.0, False, "polish failed"
            return res

        monkeypatch.setattr(estimate.optimize, "minimize", failing_polish)
        fit = fit_signature(_theoretical_stats(base_params), family="sup-gamma")
        assert len(calls) == 1
        assert fit.diagnostics["kept"] == "grid"
        assert fit.converged is False
        assert fit.diagnostics["message"] == "polish failed"
        assert_allclose(fit.objective, fit.diagnostics["grid_objective"], rtol=1e-9)

    @pytest.mark.parametrize("family", ["exponential", "sup-gamma", "sup-gig"])
    def test_grid_diagnostics(self, base_params, family):
        fit = fit_signature(_theoretical_stats(base_params), family=family)
        diag = fit.diagnostics
        points = {"exponential": estimate._GRID_POINTS, "sup-gamma": estimate._GRID_POINTS_2D ** 2,
                  "sup-gig": estimate._GRID_POINTS_3D ** 3}[family]
        # one grid, or two when the best point sat on an edge inside the bounds
        assert diag["grid_size"] in (points, 2 * points)
        assert diag["nfev"] > diag["grid_size"]  # the polish's evaluations
        assert fit.objective <= diag["grid_objective"] * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "shape", [SupGigTrawl(1.0, 0.05, 1.6), SupGigTrawl(0.0, 0.9, -0.6)], ids=["mixed", "gamma-0"]
    )
    def test_sup_gig_fit_reaches_the_truth_on_noise_free_signature(self, shape):
        params = ModelParams(levy=LevyMeasure(BASE_NU), trawl=TrawlSpec(b=BASE_B, family=shape))
        stats = _theoretical_stats(params)
        empirical = stats.variances / stats.deltas
        fit = fit_signature(stats, family="sup-gig")
        assert fit.converged
        # the statistics are the truth's own curve, return_cumulant/delta, so
        # its objective is 0; the fit's may be a residual of 1e-12 of the signature
        assert fit.objective <= (1e-12 * np.linalg.norm(empirical)) ** 2
        assert_allclose(fit.params.b, BASE_B, rtol=1e-6)
        fitted = fit.params.trawl.family
        assert_allclose([fitted.gamma, fitted.delta_gig, fitted.order], [shape.gamma, shape.delta_gig, shape.order],
                        rtol=1e-6, atol=1e-9)

    def test_sup_gig_fit_converges_in_the_exponential_corner(self, base_params):
        # an exponential path pulls the sup-gig optimum into the corner
        # gamma=50, nu=-10 of the bounds, where w - z cancellation in the
        # Bessel profile once made the objective too noisy to converge
        path = simulate_path(base_params, 0.0, 75527.97, 7486, 1007)
        fit = fit_signature(collect_stats(path), family="sup-gig")
        assert fit.converged
        assert fit.params.trawl.family.gamma == 50.0

    def test_restarts_land_the_tail_index_on_its_bound(self, base_params):
        # a bootstrap replica whose sup-gamma optimum sits on the bound H=50:
        # one Nelder-Mead run stops just short of it, and the restarts from
        # a fresh simplex reach it
        path = simulate_path(base_params, 0.0, 75527.97, 7486, np.random.default_rng([5, 10]))
        fit = fit_signature(collect_stats(path), family="sup-gamma")
        assert fit.params.trawl.family.H == 50.0

    def test_path_scale_recovery(self, base_params):
        # one long simulated path: estimates land near the truth at
        # sampling accuracy (guarded loosely; the Monte Carlo study in the
        # acceptance suite quantifies the spread)
        path = simulate_path(base_params, 0.0, 75527.97, 7486, 11)
        fit = fit_signature(collect_stats(path), family="exponential")
        assert fit.converged
        assert abs(fit.params.b - BASE_B) < 0.06
        assert abs(fit.params.trawl.family.lam - BASE_LAM) < 0.15


def _projection_rows():
    """Rows of profile ratios for one ``empirical`` curve, by what the projection meets."""
    g = -np.expm1(-0.7 * DEFAULT_GRID) / (0.7 * DEFAULT_GRID)
    rng = np.random.default_rng(3)
    rows = {
        "ordinary": g,
        "unit": np.ones_like(g),  # u = 0: no c fits, and c falls back to 1
        "nan": np.where(np.arange(g.size) == 5, np.nan, g),
        "inf": np.where(np.arange(g.size) == 5, np.inf, g),
        "clips-low": 1.0 - 1e-3 * (1.0 - g),  # the curve sits above the data: c < 0
        "clips-high": 2.0 - g,  # ratios above 1: c > 1
    }
    rows.update({f"random-{k}": g * rng.uniform(0.5, 1.5, g.size) ** k for k in (1, 4, 8)})
    empirical = 0.37 * (g + 0.4 * (1.0 - g)) * (1.0 + 0.01 * np.sin(np.arange(g.size)))
    return rows, empirical, 0.37


class TestProjection:
    @pytest.mark.parametrize("name", list(_projection_rows()[0]))
    def test_one_row_is_bit_identical_to_the_stacked_rows(self, name):
        rows, empirical, s0 = _projection_rows()
        stack = np.array(list(rows.values()))
        i = list(rows).index(name)
        with np.errstate(all="ignore"):
            stacked = estimate._project(stack, empirical, s0)
            one = estimate._project(stack[i : i + 1], empirical, s0)
        for got, want in zip(one, stacked):
            assert got.shape == want[i : i + 1].shape
            assert got.tobytes() == want[i : i + 1].tobytes()
        c, value = one[0][0], one[2][0]
        expected_c = {"unit": 1.0, "nan": 1.0, "clips-low": estimate._C_BOUNDS[0], "clips-high": estimate._C_BOUNDS[1]}
        if name in expected_c:
            assert c == expected_c[name]
        assert math.isinf(value) == (name in ("nan", "inf"))


def _shaped(shape) -> ModelParams:
    return ModelParams(levy=LevyMeasure(BASE_NU), trawl=TrawlSpec(b=BASE_B, family=shape))


class TestGridCache:
    # 12 window lengths keep the sup-gig fits cheap
    DELTAS = np.geomspace(0.1, 60.0, 12)
    # shapes whose best grid point lies inside the box, and on an edge of it:
    # beyond the box sup-gamma and sup-gig re-grid, while the exponential's
    # box is its bounds
    INSIDE = {"exponential": ExponentialTrawl(BASE_LAM), "sup-gamma": SupGammaTrawl(0.5, 2.5),
              "sup-gig": SupGigTrawl(1.0, 0.05, 1.6)}
    EDGE = {"exponential": ExponentialTrawl(1e7), "sup-gamma": SupGammaTrawl(500.0, 2.0),
            "sup-gig": SupGigTrawl(6.0, 0.5, 0.5)}
    POINTS = {"exponential": estimate._GRID_POINTS, "sup-gamma": estimate._GRID_POINTS_2D ** 2,
              "sup-gig": estimate._GRID_POINTS_3D ** 3}

    @pytest.fixture
    def cache(self, monkeypatch):
        """An empty grid cache for this test; the process's own stays as it is."""
        fresh = {}
        monkeypatch.setattr(estimate, "_grid_cache", fresh)
        return fresh

    @pytest.fixture
    def grids_computed(self, monkeypatch):
        """Counts the grid blocks whose profile rows are computed rather than read from the cache."""
        real, calls = estimate._profile, []

        def counting(cls, deltas, theta):
            if len(theta) > 1:
                calls.append(len(theta))
            return real(cls, deltas, theta)

        monkeypatch.setattr(estimate, "_profile", counting)
        return calls

    @staticmethod
    def _same_fit(fit, reference):
        assert fit.to_dict() == reference.to_dict()  # nfev included
        assert fit.fitted.tobytes() == reference.fitted.tobytes()

    @pytest.mark.parametrize("where", ["inside", "edge"])
    @pytest.mark.parametrize("family", ["exponential", "sup-gamma", "sup-gig"])
    def test_cold_warm_and_uncached_fits_are_identical(self, cache, grids_computed, monkeypatch, family, where):
        shape = (self.INSIDE if where == "inside" else self.EDGE)[family]
        stats = _theoretical_stats(_shaped(shape), self.DELTAS)
        cold = fit_signature(stats, family=family)
        grids = 2 if where == "edge" and family != "exponential" else 1
        assert cold.diagnostics["grid_size"] == grids * self.POINTS[family]
        assert len(cache) == grids
        if where == "edge" and family == "exponential":
            assert "lambda" in cold.boundary_flags
        computed = sum(grids_computed)
        assert computed == cold.diagnostics["grid_size"]
        warm = fit_signature(stats, family=family)
        assert sum(grids_computed) == computed  # every grid row came from the cache
        self._same_fit(warm, cold)
        # a grid larger than the bound is computed block by block and not kept
        monkeypatch.setattr(estimate, "_GRID_CACHE_BYTES", 0)
        cache.clear()
        self._same_fit(fit_signature(stats, family=family), cold)
        assert not cache

    def test_family_and_lengths_key_the_entries(self, cache):
        stats = _theoretical_stats(_shaped(self.INSIDE["sup-gamma"]), self.DELTAS)
        nudged = self.DELTAS.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        nudged_stats = replace(stats, deltas=nudged)
        families = ["exponential", "sup-gamma", "sup-gig"]
        fits = {(fam, k): fit_signature(st, family=fam) for k, st in enumerate((stats, nudged_stats))
                for fam in families}
        # every grid of every fit missed: no family and no set of lengths reused another's rows
        assert len(cache) == sum(fit.diagnostics["grid_size"] // self.POINTS[fam] for (fam, _), fit in fits.items())
        cache.clear()
        for (fam, k), fit in fits.items():
            self._same_fit(fit_signature((stats, nudged_stats)[k], family=fam), fit)

    def test_grid_points_key_the_entries(self, cache, monkeypatch):
        stats = _theoretical_stats(_shaped(self.INSIDE["exponential"]), self.DELTAS)
        fine = fit_signature(stats, family="exponential")
        monkeypatch.setattr(estimate, "_GRID_POINTS", 41)
        coarse = fit_signature(stats, family="exponential")
        # the same family, lengths and box on fewer points is a grid of its own
        assert coarse.diagnostics["grid_size"] == 41
        assert len(cache) == 2
        cache.clear()
        self._same_fit(fit_signature(stats, family="exponential"), coarse)
        monkeypatch.setattr(estimate, "_GRID_POINTS", 81)
        self._same_fit(fit_signature(stats, family="exponential"), fine)

    def test_byte_bound_holds_over_many_grids(self, cache, grids_computed, monkeypatch):
        entry = estimate._GRID_POINTS * self.DELTAS.size * 8  # one exponential grid's rows
        monkeypatch.setattr(estimate, "_GRID_CACHE_BYTES", 3 * entry)
        base = _theoretical_stats(_shaped(self.INSIDE["exponential"]), self.DELTAS)
        grids = [replace(base, deltas=self.DELTAS * (1.0 + k / 64)) for k in range(12)]
        for k, stats in enumerate(grids):
            fit_signature(stats, family="exponential")
            assert sum(rows.nbytes for rows in cache.values()) <= 3 * entry
            assert len(cache) == min(k + 1, 3)
        # the least recently used entry goes first: a refit of grid 10 keeps
        # it over grid 9 when grid 12 arrives
        fit_signature(grids[10], family="exponential")
        fit_signature(base, family="exponential")
        computed = len(grids_computed)
        fit_signature(grids[10], family="exponential")
        assert len(grids_computed) == computed
        fit_signature(grids[9], family="exponential")
        assert len(grids_computed) > computed

    @pytest.mark.parametrize("family", ["exponential", "sup-gamma", "sup-gig"])
    def test_cached_rows_are_read_only(self, cache, family):
        fit_signature(_theoretical_stats(_shaped(self.INSIDE[family]), self.DELTAS), family=family)
        (rows,) = cache.values()
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


class TestBootstrap:
    def test_two_replicas_give_positive_spread(self, base_params):
        res = bootstrap(base_params, span=3600.0, v0=7486, n_paths=2, seed=4)
        assert res.n_paths == 2
        assert {"b", "lambda", "nu(+1)", "nu(-1)"} <= set(res.names)
        for name in res.names:
            assert res.se[name] >= 0.0
            assert math.isfinite(res.means[name])
        assert res.estimates.shape == (2, len(res.names))
        # distinct seeds per path: the replicas must differ
        assert res.se["b"] > 0.0

    def test_worker_count_does_not_change_results(self, base_params):
        serial = bootstrap(base_params, span=1800.0, v0=0, n_paths=3, seed=8, n_workers=1)
        pooled = bootstrap(base_params, span=1800.0, v0=0, n_paths=3, seed=8, n_workers=2)
        assert serial.names == pooled.names
        assert_array_equal(serial.estimates, pooled.estimates)
        assert serial.se == pooled.se
        assert serial.work == pooled.work

    def test_work_sums_the_replicas_whose_fit_returned(self, base_params, monkeypatch):
        # replica 1 raises and adds nothing; replica 2's fit returns
        # unconverged and still adds its work
        real = estimate.fit_signature
        calls, returned = [], []

        def patched(stats, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            fit = real(stats, **kwargs)
            if len(calls) == 3:
                fit = replace(fit, converged=False)
            returned.append((stats, fit))
            return fit

        monkeypatch.setattr(estimate, "fit_signature", patched)
        res = bootstrap(base_params, span=1800.0, v0=0, n_paths=4, seed=8, n_workers=1)
        assert list(res.converged) == [True, False, False, True] and len(returned) == 3
        assert res.work == {
            "events": sum(stats.n_events for stats, _ in returned),
            "windows": sum(int(stats.counts.sum()) for stats, _ in returned),
            "nfev": sum(fit.diagnostics["nfev"] for _, fit in returned),
        }
        assert all(type(v) is int and v > 0 for v in res.work.values())

    def test_integral_float_replica_count_runs_in_a_pool(self, base_params):
        # 16 replicas over 2 workers give the pool a chunk size of 2
        serial = bootstrap(base_params, span=1800.0, v0=0, n_paths=16, seed=8, n_workers=None)
        pooled = bootstrap(base_params, span=1800.0, v0=0, n_paths=16.0, seed=8, n_workers=2)
        assert_array_equal(serial.estimates, pooled.estimates)
        assert serial.se == pooled.se

    @pytest.mark.parametrize("n_workers", [0, -3, 2.5, math.inf, math.nan])
    def test_bad_worker_count_rejected_before_simulating(self, base_params, monkeypatch, n_workers):
        def no_simulation(*args, **kw):
            raise AssertionError("a replica was simulated")

        monkeypatch.setattr(estimate, "simulate_path", no_simulation)
        with pytest.raises(ValueError, match="worker count"):
            bootstrap(base_params, span=100.0, v0=0, n_paths=2, n_workers=n_workers)

    def test_failure_reasons_reported(self, base_params):
        # every window length exceeds half the span: each replica fails
        # for the same stated reason
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match="no compatible window lengths remain"):
                bootstrap(base_params, span=50.0, v0=0, n_paths=3, deltas=[30.0, 40.0, 45.0])

    def test_failed_replicas_listed(self, base_params, monkeypatch):
        real = estimate.fit_signature
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit_signature", fail_second)
        res = bootstrap(base_params, span=1800.0, v0=0, n_paths=3, seed=8, n_workers=1)
        assert res.failures == ((1, "boom"),)
        assert res.n_nonconverged == 1
        assert list(res.converged) == [True, False, True]

    def test_any_replica_exception_is_recorded(self, base_params, monkeypatch):
        real = estimate.fit_signature
        calls = []

        def overflow_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("overflow in the profile")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit_signature", overflow_second)
        res = bootstrap(base_params, span=1800.0, v0=0, n_paths=3, seed=8, n_workers=None)
        assert res.failures == ((1, "FloatingPointError: overflow in the profile"),)
        assert list(res.converged) == [True, False, True]

    def test_keyboard_interrupt_is_not_swallowed(self, base_params, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(estimate, "fit_signature", interrupt)
        with pytest.raises(KeyboardInterrupt):
            bootstrap(base_params, span=1800.0, v0=0, n_paths=2, seed=8, n_workers=None)

    def test_rejects_degenerate_requests(self, base_params):
        for n_paths in (1, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="at least 2"):
                bootstrap(base_params, span=100.0, v0=0, n_paths=n_paths)
        with pytest.raises(ValueError, match="parametric"):
            bootstrap(base_params, span=100.0, v0=0, n_paths=2, family="tabulated")

    @pytest.mark.parametrize(
        "kwargs,message",
        [({"family": "pareto"}, "unknown trawl family")],
        ids=["unknown-family"],
    )
    def test_bad_fit_options_rejected_before_simulating(self, base_params, monkeypatch, kwargs, message):
        def no_simulation(*args, **kw):
            raise AssertionError("a replica was simulated")

        monkeypatch.setattr(estimate, "simulate_path", no_simulation)
        with pytest.raises(ValueError, match=message):
            bootstrap(base_params, span=100.0, v0=0, n_paths=2, n_workers=1, **kwargs)


# ---------------------------------------------------------------------------
# Nonparametric trawl recovery
# ---------------------------------------------------------------------------


class TestNonparametricTrawl:
    def test_recovers_from_exact_variogram(self, base_params):
        est = nonparametric_trawl(_theoretical_stats(base_params))
        # frozen slope-estimator outputs for this grid
        assert_allclose(est.b, 0.3960015673, rtol=1e-7)
        profile_true = np.exp(-BASE_LAM * est.deltas)
        assert np.max(np.abs(est.d_tilde - profile_true)) < 1e-2
        assert abs(est.b - BASE_B) < 1e-3
        assert_allclose(est.s0, (2 - BASE_B) * 0.0269, rtol=1e-12)

    def test_profile_is_monotone_within_unit_band(self, base_params):
        est = nonparametric_trawl(_theoretical_stats(base_params))
        assert np.all(est.d_tilde >= 0.0) and np.all(est.d_tilde <= 1.0)
        assert np.all(np.diff(est.d_tilde) <= 1e-15)

    def test_single_path_estimate_is_in_range(self, base_params):
        path = simulate_path(base_params, 0.0, 75527.97, 7486, 29)
        est = nonparametric_trawl(collect_stats(path))
        assert abs(est.b - BASE_B) < 0.1

    def test_flat_signature_degenerates_to_permanent(self, skellam_params):
        est = nonparametric_trawl(_theoretical_stats(skellam_params))
        assert est.b == 1.0
        assert_array_equal(est.d_tilde, np.ones(est.deltas.size))

    def test_to_trawl_spec_round_trips_profile(self, base_params):
        est = nonparametric_trawl(_theoretical_stats(base_params))
        spec = est.to_trawl_spec()
        assert spec.b == est.b
        assert_allclose(
            np.asarray(spec.family.d_tilde(-est.deltas)), est.d_tilde, rtol=1e-12, atol=1e-15
        )

    def test_rejects_thin_or_narrow_grids(self, base_params):
        with pytest.raises(ValueError, match="at least 8"):
            nonparametric_trawl(_theoretical_stats(base_params, deltas=np.linspace(1, 30, 5)))
        with pytest.raises(ValueError, match="decade"):
            nonparametric_trawl(_theoretical_stats(base_params, deltas=np.linspace(1, 5, 12)))


def test_import_leaves_scipy_stats_unloaded(tmp_path, base_params):
    # `import trawlprice` loads numpy only.  scipy.special and scipy.optimize
    # load on first use (sup-GIG kernels, bessel_k, the fits); scipy.stats,
    # about half a second more, only for a sup-GIG simulation with gamma > 0
    src = str(Path(trawlprice.__file__).parents[1])
    raw = str(Path(__file__).parent / "data" / "raw_ticks.csv")
    params = tmp_path / "params.json"
    base_params.to_json(params)
    head = (
        f"import sys; sys.path.insert(0, {src!r}); import trawlprice as tp; "
        "scipy = lambda: [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not scipy(), scipy(); "
        "p = tp.ModelParams(levy=tp.LevyMeasure({1: 0.5, -1: 0.5}), "
        "trawl=tp.TrawlSpec(b=0.4, family=tp.ExponentialTrawl(lam=0.7))); "
    )
    numpy_only = "assert not scipy() and 'concurrent.futures.process' not in sys.modules, scipy(); "
    bodies = {
        "exponential model and clean": (
            "path = tp.simulate_path(p, 0.0, 1000.0, 0, 1); assert path.n_events > 0; "
            "tp.return_pmf(p, 1.0); tp.acf(p, 1.0, 5); tp.collect_stats(path); "
            f"tp.clean_ticks(tp.read_raw_csv({raw!r}), tp.CleanConfig(tick_size=0.25, m_factor=9.5, apply_step1=True)); "
            + numpy_only
        ),
        "cli simulate": (
            f"argv = ['simulate', '--params', {str(params)!r}, '--t-end', '1000', '--v0', '0', '--seed', '1', "
            f"'--output', {str(tmp_path / 'path.csv')!r}]; assert tp.main(argv) == 0; " + numpy_only
        ),
        "first use": (
            "tp.SupGigTrawl(gamma=1.0, delta_gig=0.05, order=1.6).increment(tp.DEFAULT_GRID); "
            "tp.fit_signature(tp.collect_stats(tp.simulate_path(p, 0.0, 1000.0, 0, 1)), 'exponential'); "
            "import scipy.optimize, scipy.special; "
            "assert sys.modules['trawlprice.model'].sps.kve is scipy.special.kve; "
            "assert sys.modules['trawlprice.estimate'].optimize.minimize is scipy.optimize.minimize; "
            "assert 'scipy.stats' not in sys.modules; "
        ),
    }
    for what, body in bodies.items():
        run = subprocess.run([sys.executable, "-c", head + body], capture_output=True, text=True)
        assert run.returncode == 0, f"{what}: {run.stderr}"
