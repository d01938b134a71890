"""Tests for exact event-level simulation and path functionals.

Distributional checks compare against closed-form moments and, for the
exponential profile, against memoryless lifetime laws; the frozen mean
survivor count was computed independently before implementation.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from trawlprice import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    PricePath,
    SupGigTrawl,
    TrawlSpec,
    collect_stats,
    read_path_csv,
    realized_pv,
    return_cumulant,
    returns_at,
    sample_initial_survivors,
    simulate_path,
    window_index,
    write_path_csv,
)
from trawlprice.simulate import _generate_events


def _sup_gig_params(shape, b: float = 0.4, rate: float = 0.5) -> ModelParams:
    """Symmetric unit jumps on a sup-GIG trawl with ``(gamma, delta, order)``."""
    return ModelParams(
        levy=LevyMeasure({1: rate, -1: rate}),
        trawl=TrawlSpec(b=b, family=SupGigTrawl(*shape)),
    )


# the heavy-tail benchmark's shape and the gamma = 0 branch
_SUP_GIG_SHAPES = {"heavy-tail": (1.0, 0.05, 1.6), "gamma-0": (0.0, 0.9, -0.6)}


def _manual_path() -> PricePath:
    return PricePath(
        v0=100,
        t_start=0.0,
        t_end=2.5,
        times=np.array([0.5, 1.1, 2.0]),
        jumps=np.array([1, -2, 3]),
    )


# ---------------------------------------------------------------------------
# PricePath container
# ---------------------------------------------------------------------------


class TestPricePath:
    def test_prices_cumulate_from_v0(self):
        path = _manual_path()
        assert_array_equal(path.prices, [101, 99, 102])
        assert path.n_events == 3
        assert path.span == 2.5

    def test_price_at_steps_at_event_times(self):
        path = _manual_path()
        assert path.price_at(0.0) == 100
        assert path.price_at(0.49) == 100
        assert path.price_at(0.5) == 101  # jump included at its own stamp
        assert path.price_at(2.5) == 102
        assert_array_equal(path.price_at([0.0, 1.1, 2.4]), [100, 99, 102])

    def test_price_at_rejects_out_of_window_queries(self):
        path = _manual_path()
        with pytest.raises(ValueError):
            path.price_at(-0.1)
        with pytest.raises(ValueError):
            path.price_at(2.6)

    def test_empty_path_is_valid(self):
        path = PricePath(v0=5, t_start=1.0, t_end=2.0, times=np.empty(0), jumps=np.empty(0, dtype=int))
        assert path.n_events == 0
        assert path.price_at(1.5) == 5

    def test_price_beyond_int64_is_an_error(self, tmp_path):
        # the price passes 2**63 between the second and third events, where
        # an int64 running sum would wrap it to -2**63
        path = PricePath(v0=0, t_start=0.0, t_end=15.0, times=[1.0, 6.0, 11.0], jumps=np.array([2**62, 2**62, -1]))
        with pytest.raises(ValueError, match="int64"):
            path.price_at(7.0)
        with pytest.raises(ValueError, match="int64"):
            write_path_csv(path, tmp_path / "p.csv", tmp_path / "p.csv.meta.json")

    def test_prices_at_the_int64_limits_are_exact(self):
        jumps = np.array([2**62 - 1, -(2**63) + 1, -(2**63)])
        path = PricePath(v0=2**62, t_start=0.0, t_end=4.0, times=[1.0, 2.0, 3.0], jumps=jumps)
        assert path.prices.tolist() == [2**63 - 1, 0, -(2**63)]
        assert path.price_at(3.0) == -(2**63)

    def test_unsigned_jump_beyond_int64_is_an_error(self):
        # an int64 cast would wrap the jump 2**63 to -2**63
        with pytest.raises(ValueError, match="int64"):
            PricePath(v0=0, t_start=0.0, t_end=2.0, times=[1.0], jumps=np.array([2**63], dtype=np.uint64))
        path = PricePath(v0=0, t_start=0.0, t_end=2.0, times=[1.0], jumps=np.array([2**63 - 1], dtype=np.uint64))
        assert path.jumps.dtype == np.int64 and path.jumps.tolist() == [2**63 - 1]

    def test_arrays_are_read_only(self):
        path = _manual_path()
        with pytest.raises(ValueError):
            path.times[0] = 99.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_start": 2.0, "t_end": 1.0},
            {"t_start": 0.0, "t_end": math.inf},
            {"v0": 1.5},
            {"times": np.array([0.0, 1.0]), "jumps": np.array([1, 1])},  # at t_start
            {"times": np.array([1.0, 1.0]), "jumps": np.array([1, 1])},  # tie
            {"times": np.array([2.0, 1.0]), "jumps": np.array([1, 1])},  # decreasing
            {"times": np.array([1.0, 3.0]), "jumps": np.array([1, 1])},  # beyond t_end
            {"times": np.array([1.0]), "jumps": np.array([0])},  # zero jump
            {"times": np.array([1.0]), "jumps": np.array([1, 2])},  # shape mismatch
        ],
    )
    def test_rejects_invalid_construction(self, kwargs):
        base = dict(v0=0, t_start=0.0, t_end=2.5, times=np.array([1.0]), jumps=np.array([1]))
        base.update(kwargs)
        with pytest.raises(ValueError):
            PricePath(**base)


# ---------------------------------------------------------------------------
# Initial survivors
# ---------------------------------------------------------------------------


class TestInitialSurvivors:
    def test_mean_count_matches_area_times_intensity(self, base_params):
        # frozen value: ||nu|| * leb_area = 0.0238584434655
        rng = np.random.default_rng(7)
        counts = np.array([sample_initial_survivors(base_params, rng).count for _ in range(40000)])
        want = 0.0238584434655
        se = math.sqrt(want / counts.size)  # Poisson variance
        assert abs(counts.mean() - want) < 4 * se

    @pytest.mark.parametrize("shape", _SUP_GIG_SHAPES.values(), ids=list(_SUP_GIG_SHAPES))
    def test_sup_gig_count_and_residual_law(self, shape):
        params = _sup_gig_params(shape, rate=50.0)
        rng = np.random.default_rng(17)
        draws = [sample_initial_survivors(params, rng) for _ in range(400)]
        counts = np.array([d.count for d in draws])
        want = params.levy.total_mass * params.trawl.leb_area()
        assert abs(counts.mean() - want) < 4 * math.sqrt(want / counts.size)
        fam = params.trawl.family
        residuals = np.concatenate([d.residuals for d in draws])
        assert stats.kstest(residuals, lambda t: 1.0 - fam.overlap(t) / fam.area()).pvalue > 1e-3

    def test_fully_permanent_has_no_survivors(self, skellam_params):
        surv = sample_initial_survivors(skellam_params, np.random.default_rng(0))
        assert surv.count == 0

    def test_residuals_are_memoryless_for_exponential_profile(self, base_params):
        # the age-biased residual of an exponential profile is itself
        # exponential with the same decay rate
        rng = np.random.default_rng(11)
        residuals = []
        while len(residuals) < 400:
            residuals.extend(sample_initial_survivors(base_params, rng).residuals.tolist())
        ks = stats.kstest(residuals, stats.expon(scale=1 / 0.681).cdf)
        assert ks.pvalue > 1e-3

    def test_sizes_follow_normalised_intensities(self, base_params):
        rng = np.random.default_rng(13)
        sizes = []
        while len(sizes) < 2000:
            sizes.extend(sample_initial_survivors(base_params, rng).sizes.tolist())
        sizes = np.asarray(sizes[:2000])
        p_up = 0.0138 / 0.0269
        se = math.sqrt(p_up * (1 - p_up) / sizes.size)
        assert abs(np.mean(sizes == 1) - p_up) < 4 * se


# ---------------------------------------------------------------------------
# Event stream bookkeeping
# ---------------------------------------------------------------------------


class TestGenerateEvents:
    def test_labels_and_pairing_invariants(self, base_params):
        times, jumps, kind, pair = _generate_events(base_params, 0.0, 50000.0, np.random.default_rng(3))
        assert set(np.unique(kind)) <= {0, 1, 2}
        assert np.all(np.diff(times) > 0)
        assert np.all((times > 0.0) & (times <= 50000.0))
        arrivals = np.flatnonzero(kind == 1)
        departures = np.flatnonzero(kind == 2)
        assert departures.size > 0
        # each departure cancels its arrival and happens strictly later
        arrival_index_by_pair = {}
        order_of_arrival = {}
        for row in arrivals:
            # pair ids refer to the arrival's position in arrival order
            order_of_arrival[len(order_of_arrival)] = row
        for row in departures:
            src = order_of_arrival[pair[row]]
            assert jumps[row] == -jumps[src]
            assert times[row] > times[src]
            assert pair[row] not in arrival_index_by_pair  # one departure each
            arrival_index_by_pair[pair[row]] = row

    def test_survivor_departures_carry_negated_sizes(self, base_params):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(3000):
            times, jumps, kind, pair = _generate_events(base_params, 0.0, 0.5, rng)
            s = kind == 0
            found += int(s.sum())
            assert np.all(pair[s] == -1)
            assert np.all(jumps[s] != 0)
        assert found > 0  # the stationary population does show up

    def test_all_moves_cancel_when_nothing_is_permanent(self):
        params = ModelParams(
            levy=LevyMeasure({1: 0.4, -1: 0.4}),
            trawl=TrawlSpec(b=0.0, family=ExponentialTrawl(lam=2.0)),
        )
        times, jumps, kind, pair = _generate_events(params, 0.0, 4000.0, np.random.default_rng(9))
        # every cancelled pair nets to zero, so the terminal displacement is
        # carried entirely by censored arrivals and survivor departures
        arrivals = np.flatnonzero(kind == 1)
        cancelled = set(pair[kind == 2].tolist())
        open_sum = sum(
            int(jumps[row]) for i, row in enumerate(arrivals) if i not in cancelled
        )
        assert jumps.sum() == open_sum + jumps[kind == 0].sum()
        # the edge populations are small relative to the event count
        assert len(cancelled) > 0.9 * arrivals.size

    def test_fully_permanent_stream_is_arrivals_only(self, skellam_params):
        _, _, kind, _ = _generate_events(skellam_params, 0.0, 1000.0, np.random.default_rng(2))
        assert set(np.unique(kind)) == {1}


# ---------------------------------------------------------------------------
# simulate_path
# ---------------------------------------------------------------------------


class TestSimulatePath:
    def test_reproducible_from_seed(self, base_params):
        a = simulate_path(base_params, 0.0, 5000.0, 7486, 42)
        b = simulate_path(base_params, 0.0, 5000.0, 7486, 42)
        c = simulate_path(base_params, 0.0, 5000.0, 7486, np.random.default_rng(42))
        assert_array_equal(a.times, b.times)
        assert_array_equal(a.jumps, b.jumps)
        assert_array_equal(a.times, c.times)
        assert a.seed == 42 and c.seed is None

    def test_different_seeds_differ(self, base_params):
        a = simulate_path(base_params, 0.0, 5000.0, 0, 1)
        b = simulate_path(base_params, 0.0, 5000.0, 0, 2)
        assert a.n_events != b.n_events or not np.array_equal(a.times, b.times)

    def test_window_and_anchor(self, base_params):
        path = simulate_path(base_params, 100.0, 600.0, -3, 0)
        assert path.t_start == 100.0 and path.t_end == 600.0
        assert path.price_at(100.0) == -3
        assert np.all(path.times > 100.0)

    def test_rejects_bad_window(self, base_params):
        with pytest.raises(ValueError):
            simulate_path(base_params, 0.0, 0.0, 0, 0)

    def test_event_rate_matches_theory(self, base_params):
        # expected count over the window is (2-b) ||nu|| span + edge terms
        span = 200000.0
        path = simulate_path(base_params, 0.0, span, 0, 123)
        lam = 0.0431476 * span
        assert abs(path.n_events - lam) < 4 * math.sqrt(lam)

    def test_fully_permanent_count_is_poisson(self, skellam_params):
        span = 100000.0
        path = simulate_path(skellam_params, 0.0, span, 0, 77)
        lam = 1.0 * span
        assert abs(path.n_events - lam) < 4 * math.sqrt(lam)

    def test_moments_match_theory_across_paths(self, base_params):
        n_paths, t = 300, 4.0
        rets = np.array(
            [simulate_path(base_params, 0.0, t, 0, 1000 + i).price_at(t) for i in range(n_paths)],
            dtype=float,
        )
        k1 = return_cumulant(base_params, t, 1)
        k2 = return_cumulant(base_params, t, 2)
        k4 = return_cumulant(base_params, t, 4)
        se_mean = math.sqrt(k2 / n_paths)
        assert abs(rets.mean() - k1) < 4 * se_mean
        se_var = math.sqrt((k4 + 2 * k2**2) / n_paths)
        assert abs(rets.var(ddof=1) - k2) < 4 * se_var

    def test_fleeting_lifetimes_follow_profile_law(self):
        # with b=0 every arrival is fleeting; for the exponential profile
        # the realized arrival->departure gaps are Exp(lam)
        lam = 1.3
        params = ModelParams(
            levy=LevyMeasure({1: 0.05, -1: 0.05}),
            trawl=TrawlSpec(b=0.0, family=ExponentialTrawl(lam=lam)),
        )
        times, jumps, kind, pair = _generate_events(params, 0.0, 30000.0, np.random.default_rng(21))
        arrivals = np.flatnonzero(kind == 1)
        # condition on the arrival time, not the departure time, so the
        # negligible-censoring cut does not bias the gap law
        gaps = [
            times[row] - times[arrivals[pair[row]]]
            for row in np.flatnonzero(kind == 2)
            if times[arrivals[pair[row]]] < 25000.0
        ]
        ks = stats.kstest(gaps, stats.expon(scale=1 / lam).cdf)
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("shape", _SUP_GIG_SHAPES.values(), ids=list(_SUP_GIG_SHAPES))
    def test_sup_gig_fleeting_lifetimes_follow_profile_law(self, shape):
        params = _sup_gig_params(shape, b=0.0, rate=1.0)
        fam = params.trawl.family
        times, _, kind, pair = _generate_events(params, 0.0, 5000.0, np.random.default_rng(23))
        arrivals = np.flatnonzero(kind == 1)
        departures = np.flatnonzero(kind == 2)
        born = times[arrivals[pair[departures]]]
        # a lifetime beyond the window end is censored; the profile's tail
        # past 1000 s is below 1e-5, so arrivals before 4000 s lose almost none
        early = born < 4000.0
        gaps = times[departures][early] - born[early]
        assert gaps.size > 5000
        assert stats.kstest(gaps, lambda t: 1.0 - fam.d_tilde(-t)).pvalue > 1e-3

    def test_sub_ulp_lifetimes_drop_with_their_arrivals(self):
        # at gamma=0, delta=1e5 most lifetimes are below half an ulp of the
        # arrival time, so the departure lands on the arrival's own stamp;
        # such a pair nets to zero at one instant and is dropped, not a tie
        params = _sup_gig_params((0.0, 1e5, -0.01))
        with pytest.warns(UserWarning, match=r"dropping (\d+) fleeting move") as record:
            path = simulate_path(params, 0.0, 1000.0, 0, 1)
        dropped = int(str(record[0].message).split()[1])
        assert 100 < dropped < 1000 and path.n_events > 100
        with pytest.warns(UserWarning, match=f"dropping {dropped} "):
            times, jumps, kind, pair = _generate_events(params, 0.0, 1000.0, np.random.default_rng(1))
        assert_array_equal(times, path.times)
        assert_array_equal(jumps, path.jumps)
        # pair ids index the drawn arrivals, the dropped ones included
        departures = pair[kind == 2]
        assert np.unique(departures).size == departures.size
        assert departures.max() < np.count_nonzero(kind == 1) + dropped

    def test_sup_gig_signature_matches_theory(self):
        # the mean of 16 paths' signatures against return_cumulant(., delta, 2)/delta,
        # within four standard errors measured across the paths
        params = _sup_gig_params(_SUP_GIG_SHAPES["heavy-tail"])
        deltas = np.array([0.5, 5.0, 50.0])
        sigs = np.array([
            collect_stats(simulate_path(params, 0.0, 5000.0, 0, 300 + k), deltas=deltas).variances / deltas
            for k in range(16)
        ])
        want = np.array([return_cumulant(params, d, 2) / d for d in deltas])
        se = sigs.std(axis=0, ddof=1) / math.sqrt(sigs.shape[0])
        assert np.all(np.abs(sigs.mean(axis=0) - want) < 4 * se)


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------


class TestReturnsAt:
    def test_manual_example(self):
        path = _manual_path()
        assert_array_equal(returns_at(path, 1.0), [1, 1])
        assert_array_equal(returns_at(path, 2.5), [2])
        assert_array_equal(returns_at(path, 0.5), [1, 0, -2, 3, 0])

    def test_rejects_incompatible_delta(self):
        path = _manual_path()
        with pytest.raises(ValueError):
            returns_at(path, 3.0)
        with pytest.raises(ValueError):
            returns_at(path, 0.0)

    def test_returns_sum_to_terminal_move_when_grid_is_exact(self, base_params):
        path = simulate_path(base_params, 0.0, 1000.0, 50, 5)
        rets = returns_at(path, 10.0)
        assert rets.sum() == path.price_at(1000.0) - 50


class TestWindowIndex:
    def test_edges_close_their_window(self):
        # binary-exact edges: a time on edge k is in window k, one ulp
        # later it is in window k + 1
        k = np.arange(1, 2000)
        edges = 8.0 + 0.25 * k
        assert_array_equal(window_index(edges, 8.0, 0.25), k)
        assert_array_equal(window_index(np.nextafter(edges, np.inf), 8.0, 0.25), k + 1)
        assert window_index(8.5, 8.0, 0.25) == 2 and window_index(8.51, 8.0, 0.25) == 3  # scalar times

    def test_sorted_stamps_give_sorted_indices(self):
        times = np.arange(1, 30001) / 1000.0
        for delta in (0.3, 0.007, 1.1):
            k = window_index(times, 0.0, delta)
            assert k[0] == 1 and np.all(np.diff(k) >= 0)
            assert np.all(np.abs(k * delta - times) < delta + 1e-12)


class TestRealizedPv:
    def test_counting_and_quadratic_orders(self):
        path = _manual_path()
        assert realized_pv(path, 0.0) == 3.0
        assert realized_pv(path, 1.0) == 6.0
        assert realized_pv(path, 2.0) == 14.0

    def test_empty_path_and_bad_order(self):
        empty = PricePath(v0=0, t_start=0.0, t_end=1.0, times=np.empty(0), jumps=np.empty(0, dtype=int))
        assert realized_pv(empty, 2.0) == 0.0
        with pytest.raises(ValueError):
            realized_pv(empty, -1.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestPathCsv:
    def test_round_trip_is_exact(self, base_params, tmp_path):
        path = simulate_path(base_params, 0.0, 20000.0, 7486, 99)
        csv_file = tmp_path / "path.csv"
        sidecar = tmp_path / "path.csv.meta.json"
        write_path_csv(path, csv_file, sidecar)
        again = read_path_csv(csv_file, sidecar)
        assert_array_equal(again.times, path.times)
        assert_array_equal(again.jumps, path.jumps)
        assert again.v0 == path.v0
        assert again.t_start == path.t_start and again.t_end == path.t_end
        assert again.seed == 99

    def test_csv_shape(self, tmp_path):
        path = _manual_path()
        csv_file = tmp_path / "path.csv"
        write_path_csv(path, csv_file, tmp_path / "m.json")
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "time,price_ticks"
        assert lines[1].split(",") == ["0.5", "101"]
        assert len(lines) == 4

    def test_rejects_wrong_header(self, tmp_path):
        csv_file = tmp_path / "bad.csv"
        csv_file.write_text("t,px\n1.0,3\n")
        meta = tmp_path / "bad.meta.json"
        meta.write_text('{"v0": 0, "t_start": 0.0, "t_end": 2.0, "seed": null}')
        with pytest.raises(ValueError, match="header"):
            read_path_csv(csv_file, meta)

    @pytest.mark.parametrize("row", ["1.0", "1.0,x", "1.0,2.5", "#1.0,3", "1.0,99999999999999999999"])
    def test_malformed_row_rejected(self, tmp_path, row):
        csv_file = tmp_path / "bad.csv"
        csv_file.write_text(f"time,price_ticks\n0.5,1\n{row}\n")
        meta = tmp_path / "bad.meta.json"
        meta.write_text('{"v0": 0, "t_start": 0.0, "t_end": 2.0, "seed": null}')
        with pytest.raises(ValueError):
            read_path_csv(csv_file, meta)

    def test_sidecar_without_v0_is_named(self, tmp_path):
        csv_file = tmp_path / "p.csv"
        csv_file.write_text("time,price_ticks\n1.0,3\n")
        meta = tmp_path / "p.meta.json"
        meta.write_text('{"t_start": 0.0, "t_end": 3.0, "seed": null}')
        with pytest.raises(ValueError, match="numbers t_start, t_end and v0"):
            read_path_csv(csv_file, meta)

    @pytest.mark.parametrize(("v0", "price"), [(-1, 2**63 - 1), (1, -(2**63))])
    def test_move_beyond_int64_is_an_error(self, tmp_path, v0, price):
        # int64 differences would wrap the move 2**63 to -2**63 and -(2**63 + 1) to 2**63 - 1
        csv_file = tmp_path / "p.csv"
        csv_file.write_text(f"time,price_ticks\n1.0,{price}\n")
        meta = tmp_path / "p.meta.json"
        meta.write_text(f'{{"v0": {v0}, "t_start": 0.0, "t_end": 3.0, "seed": null}}')
        with pytest.raises(ValueError, match="int64"):
            read_path_csv(csv_file, meta)

    @pytest.mark.parametrize(("v0", "price"), [(2**63, 2**63 - 1), (-(2**63) - 1, -(2**63))])
    def test_start_price_beyond_int64_is_named(self, tmp_path, v0, price):
        # the move is 1 tick, but the start price itself leaves int64
        csv_file = tmp_path / "p.csv"
        csv_file.write_text(f"time,price_ticks\n1.0,{price}\n")
        meta = tmp_path / "p.meta.json"
        meta.write_text(f'{{"v0": {v0}, "t_start": 0.0, "t_end": 3.0, "seed": null}}')
        with pytest.raises(ValueError, match=f"v0 {v0} leaves the int64 range"):
            read_path_csv(csv_file, meta)

    def test_moves_at_the_int64_limits_are_exact(self, tmp_path):
        csv_file = tmp_path / "p.csv"
        csv_file.write_text(f"time,price_ticks\n1.0,{2**63 - 2}\n2.0,-2\n")
        meta = tmp_path / "p.meta.json"
        meta.write_text('{"v0": -1, "t_start": 0.0, "t_end": 3.0, "seed": null}')
        path = read_path_csv(csv_file, meta)
        assert path.jumps.tolist() == [2**63 - 1, -(2**63)]
        assert returns_at(path, 1.0).tolist() == [2**63 - 1, -(2**63), 0]

    def test_header_only_file_is_an_empty_path(self, tmp_path):
        csv_file = tmp_path / "empty.csv"
        csv_file.write_text("time,price_ticks\n")
        meta = tmp_path / "empty.meta.json"
        meta.write_text('{"v0": 5, "t_start": 0.0, "t_end": 2.0, "seed": null}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = read_path_csv(csv_file, meta)
        assert path.n_events == 0 and path.v0 == 5
