"""Tests for closed-form return distributions, moments, and correlations.

Reference values were frozen from independent quadrature/high-precision
computations before the implementation was written.  The pmf is checked
against a brute-force Poisson-convolution oracle and against the Skellam
law in the fully-permanent case.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from trawlprice import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    SupGigTrawl,
    TrawlSpec,
    acf,
    expected_pv,
    expected_rv,
    jump_distribution,
    return_cf,
    return_cumulant,
    return_log_cf,
    return_pmf,
)

from conftest import convolution_return_pmf


# ---------------------------------------------------------------------------
# Cumulants
# ---------------------------------------------------------------------------


class TestReturnCumulant:
    def test_frozen_values(self, base_params):
        assert_allclose(return_cumulant(base_params, 1.0, 1), 0.0002772, rtol=1e-12)
        assert_allclose(return_cumulant(base_params, 1.0, 2), 0.0342192632916, rtol=1e-10)

    def test_odd_cumulants_scale_with_permanent_mass_only(self, base_params):
        # fleeting arrivals and departures cancel in odd cumulants, so
        # kappa_j is linear in t with slope b * kappa_j of the jump measure
        for t in (0.5, 2.0, 40.0):
            for j in (1, 3):
                want = base_params.b * t * base_params.levy.cumulant(j)
                assert_allclose(return_cumulant(base_params, t, j), want, rtol=1e-12)

    def test_even_cumulants_carry_turnover_term(self, base_params):
        spec = base_params.trawl
        for t in (0.5, 2.0, 40.0):
            load = spec.b * t + 2.0 * spec.increment(t)
            for j in (2, 4):
                want = load * base_params.levy.cumulant(j)
                assert_allclose(return_cumulant(base_params, t, j), want, rtol=1e-12)

    def test_matches_log_cf_derivatives(self, base_params):
        # kappa_j = d^j/d(i theta)^j log cf at 0; central stencils with one
        # Richardson step give O(h^4) accuracy
        t = 1.0

        def stencil(j: int, h: float) -> complex:
            f = lambda x: complex(return_log_cf(base_params, t, x))
            if j == 1:
                return (f(h) - f(-h)) / (2 * h)
            if j == 2:
                return (f(h) - 2 * f(0.0) + f(-h)) / h**2
            if j == 3:
                return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
            return (f(-2 * h) - 4 * f(-h) + 6 * f(0.0) - 4 * f(h) + f(2 * h)) / h**4

        for j in (1, 2, 3, 4):
            h = 0.05
            rich = (4.0 * stencil(j, h / 2) - stencil(j, h)) / 3.0
            got = complex(1j) ** (-j) * rich
            assert abs(got.imag) < 1e-10
            assert_allclose(got.real, return_cumulant(base_params, t, j), rtol=5e-4)

    def test_rejects_bad_order_and_horizon(self, base_params):
        with pytest.raises(ValueError):
            return_cumulant(base_params, 1.0, 0)
        with pytest.raises(ValueError):
            return_cumulant(base_params, -1.0, 2)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


class TestCharacteristicFunction:
    def test_basic_identities(self, base_params):
        theta = np.linspace(-math.pi, math.pi, 31)
        phi = return_cf(base_params, 1.0, theta)
        assert_allclose(return_cf(base_params, 1.0, 0.0), 1.0, rtol=1e-14)
        assert np.all(np.abs(phi) <= 1.0 + 1e-12)
        assert_allclose(return_cf(base_params, 1.0, -theta), np.conj(phi), rtol=1e-12)

    def test_periodic_in_two_pi(self, base_params):
        # integer-valued returns make the cf 2 pi periodic
        theta = np.array([0.3, 1.1, 2.9])
        assert_allclose(
            return_cf(base_params, 1.0, theta + 2 * math.pi),
            return_cf(base_params, 1.0, theta),
            rtol=1e-10,
        )

    def test_cf_is_exp_of_log_cf(self, base_params):
        theta = np.linspace(0.1, 3.0, 7)
        assert_allclose(
            return_cf(base_params, 2.0, theta),
            np.exp(return_log_cf(base_params, 2.0, theta)),
            rtol=1e-14,
        )

    def test_fully_permanent_log_cf_is_levy_exponent(self, skellam_params):
        # at b=1 the log cf is t * sum nu(y) (e^{i theta y} - 1) exactly
        theta = 0.7
        t = 2.5
        want = t * sum(
            rate * (np.exp(1j * theta * y) - 1.0)
            for y, rate in skellam_params.levy.as_dict().items()
        )
        assert_allclose(return_log_cf(skellam_params, t, theta), want, rtol=1e-13)


# ---------------------------------------------------------------------------
# PMF
# ---------------------------------------------------------------------------


class TestReturnPmf:
    def test_auto_grid_sums_to_one_with_tiny_aliasing(self, base_params):
        pmf = return_pmf(base_params, 1.0)
        assert pmf.aliasing_bound <= 1e-10
        assert abs(pmf.probabilities.sum() - 1.0) <= pmf.aliasing_bound
        assert pmf.support[0] == -pmf.support[-1]
        assert np.all(pmf.probabilities >= 0.0)

    def test_skellam_case_matches_scipy(self, skellam_params):
        pmf = return_pmf(skellam_params, 1.0)
        want = stats.skellam.pmf(pmf.support, 0.5, 0.5)
        assert np.max(np.abs(pmf.probabilities - want)) < 1e-12
        assert_allclose(pmf.prob(0), 0.465759607594, rtol=1e-10)
        assert_allclose(pmf.prob(1), 0.20791041535, rtol=1e-10)
        assert_allclose(pmf.prob(-1), pmf.prob(1), rtol=1e-12)

    def test_matches_convolution_oracle(self, base_params):
        for t in (0.5, 1.0, 10.0):
            pmf = return_pmf(base_params, t)
            oracle = convolution_return_pmf(base_params, t)
            worst = max(
                abs(pmf.prob(int(y)) - oracle.get(int(y), 0.0)) for y in pmf.support
            )
            assert worst < 1e-12

    def test_moments_match_cumulants(self, base_params):
        t = 3.0
        pmf = return_pmf(base_params, t)
        k1 = return_cumulant(base_params, t, 1)
        k2 = return_cumulant(base_params, t, 2)
        k3 = return_cumulant(base_params, t, 3)
        k4 = return_cumulant(base_params, t, 4)
        assert_allclose(pmf.mean(), k1, rtol=1e-8)
        assert_allclose(pmf.variance(), k2, rtol=1e-9)
        assert_allclose(pmf.central_moment(3), k3, rtol=1e-6)
        assert_allclose(pmf.central_moment(4) - 3 * k2**2, k4, rtol=1e-6)

    def test_explicit_grid_reports_honest_aliasing(self, base_params):
        # an 8-point grid wraps visible mass; the bound must say so and
        # remain an upper bound for the sum defect
        pmf = return_pmf(base_params, 1.0, n_points=8)
        assert abs(pmf.probabilities.sum() - 1.0) <= pmf.aliasing_bound + 1e-15

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_explicit_grid_bound_covers_the_mass_outside(self, n):
        # the sum defect sees only the mass wrapped onto the dropped point
        # +-n/2; the bound must cover all the mass beyond +-m
        params = ModelParams(
            levy=LevyMeasure({1: 0.5, -1: 0.5, 2: 0.1, -2: 0.1}),
            trawl=TrawlSpec(b=0.4, family=ExponentialTrawl(lam=0.5)),
        )
        full = return_pmf(params, 60.0)
        m = n // 2 - 1
        outside = full.probabilities[np.abs(full.support) > m].sum()
        assert outside > 1e-4
        assert return_pmf(params, 60.0, n_points=n).aliasing_bound >= outside

    def test_prob_outside_support_is_zero(self, base_params):
        pmf = return_pmf(base_params, 1.0)
        assert pmf.prob(10**9) == 0.0

    @pytest.mark.parametrize("y", [0.5, -0.5, 1.5, np.float64(-2.25)])
    def test_prob_of_a_non_integer_is_zero(self, skellam_params, y):
        # an integer return puts no mass between the integers
        assert return_pmf(skellam_params, 1.0).prob(y) == 0.0

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_prob_of_a_non_finite_value_raises(self, skellam_params, y):
        with pytest.raises(ValueError, match="finite"):
            return_pmf(skellam_params, 1.0).prob(y)

    @pytest.mark.parametrize("n", [5, 7, 2, 0, -4, 3.5])
    def test_rejects_bad_grid_sizes(self, base_params, n):
        with pytest.raises(ValueError):
            return_pmf(base_params, 1.0, n_points=n)

    def test_rejects_grid_smaller_than_jump_support(self):
        params = ModelParams(
            levy=LevyMeasure({5: 0.1}),
            trawl=TrawlSpec(b=1.0, family=ExponentialTrawl(lam=1.0)),
        )
        with pytest.raises(ValueError, match="single-jump support"):
            return_pmf(params, 1.0, n_points=8)

    def test_two_sided_bound_is_tight_on_a_spread_law(self):
        # a bound on each tail of the return, not on the total tick distance
        # moved: the automatic grid stays small and an explicit grid's bound
        # stays informative while still covering the mass outside
        params = ModelParams(
            levy=LevyMeasure({1: 0.5, -1: 0.5, 2: 0.1, -2: 0.1}),
            trawl=TrawlSpec(b=0.4, family=ExponentialTrawl(lam=0.5)),
        )
        full = return_pmf(params, 60.0)
        assert full.support.size + 1 < 130
        assert full.aliasing_bound <= 1e-10
        outside = full.probabilities[np.abs(full.support) > 23].sum()
        assert outside <= return_pmf(params, 60.0, n_points=48).aliasing_bound < 0.05

    def test_auto_grid_size_is_the_least_chernoff_cutoff(self):
        # the automatic size is the least cutoff whose Chernoff bound on each
        # tail's share of the second moment is below 5e-11; the reference
        # finds it by doubling and bisection
        rng = np.random.default_rng(20141)
        for _ in range(50):
            params, t = _random_model(rng)
            assert return_pmf(params, t).support.size + 1 == _searched_grid_size(params, t)


def _random_model(rng):
    """A model with 1-5 jump sizes in +-8, b in [0, 1] and an exponential,
    sup-gamma or sup-gig profile, with a horizon from 0.01 to 316."""
    sizes = rng.choice([y for y in range(-8, 9) if y], size=int(rng.integers(1, 6)), replace=False)
    levy = LevyMeasure({int(y): float(10 ** rng.uniform(-3, 0)) for y in sizes})
    kind = rng.integers(3)
    if kind == 0:
        family = ExponentialTrawl(lam=10 ** rng.uniform(-2, 2))
    elif kind == 1:
        family = SupGammaTrawl(alpha=10 ** rng.uniform(-2, 2), H=rng.uniform(1.01, 5.0))
    elif rng.random() < 0.3:
        family = SupGigTrawl(gamma=0.0, delta_gig=10 ** rng.uniform(-2, 2), order=-rng.uniform(0.1, 3.0))
    else:
        family = SupGigTrawl(gamma=rng.uniform(0.01, 3.0), delta_gig=10 ** rng.uniform(-2, 2), order=rng.uniform(-3, 3))
    trawl = TrawlSpec(b=float(rng.uniform(0.0, 1.0)), family=family)
    return ModelParams(levy=levy, trawl=trawl), float(10 ** rng.uniform(-2, 2.5))


def _searched_grid_size(params, t):
    """The automatic pmf grid size found by searching: double the cutoff
    from one past the largest jump until both tails' second-moment bounds
    are met, then bisect down to the least cutoff that meets them."""
    abs_sizes = np.abs(params.levy.sizes.astype(float))
    u = np.geomspace(1e-3, min(200.0 / float(abs_sizes.max()), 50.0), 400)
    inc, bt, rates = params.trawl.increment(t), params.b * t, params.levy.rates
    logs = []
    for y in (params.levy.sizes.astype(float), -params.levy.sizes.astype(float)):
        # the log-MGF of +-R and its two derivatives, term by term
        e_plus, e_minus = np.exp(np.outer(u, y)), np.exp(-np.outer(u, y))
        psi = np.sum(rates * (bt * (e_plus - 1.0) + inc * (e_plus + e_minus - 2.0)), axis=1)
        d1 = np.sum(rates * y * (bt * e_plus + inc * (e_plus - e_minus)), axis=1)
        d2 = np.sum(rates * y * y * (bt * e_plus + inc * (e_plus + e_minus)), axis=1)
        logs.append(psi + np.log(d1 * d1 + d2))

    def met(m):
        return max(float(np.min(log - u * m)) for log in logs) <= math.log(5e-11)

    m = int(abs_sizes.max()) + 1
    while not met(m):
        m *= 2
    lo, hi = m // 2, m
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if met(mid) else (mid, hi)
    return 2 * max(hi, int(abs_sizes.max()) + 1)


# ---------------------------------------------------------------------------
# Jumping distribution
# ---------------------------------------------------------------------------


class TestJumpDistribution:
    def test_frozen_values(self, base_params):
        dist = jump_distribution(base_params)
        assert set(dist) == {1, -1}
        assert_allclose(dist[1], 0.503212229649, rtol=1e-10)
        assert_allclose(dist[-1], 0.496787770351, rtol=1e-10)
        assert_allclose(sum(dist.values()), 1.0, rtol=1e-14)

    def test_fully_permanent_matches_normalised_rates(self, skellam_params):
        dist = jump_distribution(skellam_params)
        assert_allclose(dist[1], 0.5, rtol=1e-14)
        assert_allclose(dist[-1], 0.5, rtol=1e-14)

    @given(b=st.floats(0.01, 1.0), rp=st.floats(0.01, 2.0), rm=st.floats(0.01, 2.0))
    def test_mixture_formula(self, b, rp, rm):
        # observed moves mix births of +y with deaths of fleeting -y moves
        params = ModelParams(
            levy=LevyMeasure({1: rp, -1: rm}),
            trawl=TrawlSpec(b=b, family=ExponentialTrawl(lam=1.0)),
        )
        dist = jump_distribution(params)
        norm = (2.0 - b) * (rp + rm)
        assert_allclose(dist[1], (rp + (1 - b) * rm) / norm, rtol=1e-12)
        assert_allclose(dist[-1], (rm + (1 - b) * rp) / norm, rtol=1e-12)


# ---------------------------------------------------------------------------
# Autocorrelation
# ---------------------------------------------------------------------------


class TestAcf:
    def test_frozen_first_lag(self, base_params):
        gamma, rho = acf(base_params, 1.0, 10)
        assert gamma.shape == rho.shape == (10,)
        assert_allclose(rho[0], -0.170071213951, rtol=1e-10)
        assert_allclose(gamma[0], rho[0] * return_cumulant(base_params, 1.0, 2), rtol=1e-12)

    def test_frozen_total_correlation(self, base_params):
        _, rho = acf(base_params, 1.0, 200)
        assert_allclose(rho.sum(), -0.344350827936, rtol=1e-9)

    def test_frozen_degenerate_window_limits(self, base_params):
        _, rho_small = acf(base_params, 1e-4, 1)
        _, rho_big = acf(base_params, 1e4, 1)
        assert_allclose(rho_small[0], -2.5642552e-5, rtol=1e-6)
        assert_allclose(rho_big[0], -2.2387219e-4, rtol=1e-6)

    def test_never_positive(self, base_params):
        _, rho = acf(base_params, 1.0, 100)
        assert np.all(rho <= 1e-15)

    def test_fully_permanent_returns_are_uncorrelated(self, skellam_params):
        gamma, rho = acf(skellam_params, 1.0, 5)
        assert_allclose(gamma, 0.0, atol=1e-15)
        assert_allclose(rho, 0.0, atol=1e-15)

    def test_variogram_reconstruction_identity(self, base_params):
        # Var(P_{k delta} - P_0) rebuilt from one-lag covariances
        delta = 0.7
        k_max = 12
        gamma, _ = acf(base_params, delta, k_max)
        var1 = return_cumulant(base_params, delta, 2)
        for k in range(1, k_max + 1):
            want = return_cumulant(base_params, k * delta, 2)
            got = k * var1 + 2.0 * sum((k - j) * gamma[j - 1] for j in range(1, k))
            assert_allclose(got, want, rtol=1e-12)

    def test_rejects_bad_lag_count(self, base_params):
        with pytest.raises(ValueError):
            acf(base_params, 1.0, 0)


# ---------------------------------------------------------------------------
# Expected power variation / realized variance
# ---------------------------------------------------------------------------


class TestExpectedFunctionals:
    def test_counting_rate_frozen_value(self, base_params):
        assert_allclose(expected_pv(base_params, 1.0, 0.0), 0.0431476, rtol=1e-10)
        assert_allclose(expected_pv(base_params, 100.0, 0.0), 4.31476, rtol=1e-10)

    def test_moment_formula(self, base_params):
        # (2 - b) t sum |y|^r nu(y), for any order
        for r in (0.0, 1.0, 2.0, 3.7):
            want = (2.0 - base_params.b) * 5.0 * base_params.levy.abs_moment(r)
            assert_allclose(expected_pv(base_params, 5.0, r), want, rtol=1e-12)

    def test_expected_rv_frozen_value(self, base_params):
        assert_allclose(expected_rv(base_params, 3600.0, 3600), 123.189624473, rtol=1e-10)

    def test_expected_rv_is_windows_times_second_moment(self, base_params):
        span, n = 100.0, 40
        delta = span / n
        k1 = return_cumulant(base_params, delta, 1)
        k2 = return_cumulant(base_params, delta, 2)
        assert_allclose(expected_rv(base_params, span, n), n * (k2 + k1**2), rtol=1e-12)

    def test_rejects_bad_arguments(self, base_params):
        with pytest.raises(ValueError):
            expected_pv(base_params, 1.0, -0.5)
        with pytest.raises(ValueError):
            expected_pv(base_params, 0.0, 1.0)
        with pytest.raises(ValueError):
            expected_rv(base_params, 100.0, 0)


# ---------------------------------------------------------------------------
# Cross-family properties
# ---------------------------------------------------------------------------


class TestCrossFamily:
    def test_counting_rate_is_profile_free(self, base_params):
        # the event rate depends on the trawl only through b
        other = ModelParams(
            levy=base_params.levy,
            trawl=TrawlSpec(b=base_params.b, family=SupGammaTrawl(alpha=2.0, H=1.5)),
        )
        assert_allclose(
            expected_pv(other, 50.0, 0.0), expected_pv(base_params, 50.0, 0.0), rtol=1e-14
        )

    @given(
        b=st.floats(0.05, 1.0),
        lam=st.floats(0.05, 5.0),
        t=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_variance_between_permanent_and_full_turnover(self, b, lam, t):
        params = ModelParams(
            levy=LevyMeasure({1: 0.4, -1: 0.3}),
            trawl=TrawlSpec(b=b, family=ExponentialTrawl(lam=lam)),
        )
        k2 = return_cumulant(params, t, 2)
        lo = b * t * params.levy.cumulant(2)
        hi = (b * t + 2.0 * params.trawl.leb_area()) * params.levy.cumulant(2)
        assert lo - 1e-12 <= k2 <= hi + 1e-12
