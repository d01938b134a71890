"""Tests for jump-size measures, trawl families, and the squashed trawl.

Closed-form reference values were frozen from independent high-precision
computations (mpmath at 40 digits, adaptive quadrature) before the
implementation existed; quadrature cross-checks here recompute areas and
overlaps from the profile alone.
"""

import functools
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from trawlprice import (
    CleanConfig,
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    PricePath,
    SupGammaTrawl,
    SupGigTrawl,
    TabulatedTrawl,
    TrawlSpec,
    acf,
    bessel_k,
    bootstrap,
    collect_stats,
    expected_pv,
    expected_rv,
    fit_signature,
    levy_from_moments,
    read_path_csv,
    realized_pv,
    return_cf,
    return_cumulant,
    return_log_cf,
    return_pmf,
    returns_at,
    simulate_path,
    window_index,
    write_path_csv,
)
import trawlprice.model
from trawlprice.model import _FAMILIES, TrawlFamily, family_from_params

from conftest import BASE_B, BASE_LAM, BASE_NU, quad_area, quad_overlap


def _closed_form(sample, level):
    """``sample(level, rng)`` with a seeded generator that the draw must leave untouched."""
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    out = sample(level, rng)
    assert rng.bit_generator.state == before
    return out


# ---------------------------------------------------------------------------
# LevyMeasure
# ---------------------------------------------------------------------------


class TestLevyMeasure:
    def test_cumulants_match_frozen_values(self):
        levy = LevyMeasure(BASE_NU)
        assert_allclose(levy.cumulant(1), 7e-4, rtol=1e-12)
        assert_allclose(levy.cumulant(2), 0.0269, rtol=1e-12)
        assert_allclose(levy.total_mass, 0.0269, rtol=1e-12)

    def test_abs_moment_and_probabilities(self):
        levy = LevyMeasure({2: 0.3, -1: 0.1})
        assert_allclose(levy.abs_moment(0.0), 0.4)
        assert_allclose(levy.abs_moment(1.0), 0.7)
        assert_allclose(levy.abs_moment(2.0), 1.3)
        assert_allclose(sorted(levy.probabilities), [0.25, 0.75])

    def test_odd_cumulants_signed_even_unsigned(self):
        levy = LevyMeasure({3: 0.2, -3: 0.5})
        assert_allclose(levy.cumulant(3), 27 * (0.2 - 0.5))
        assert_allclose(levy.cumulant(4), 81 * 0.7)

    @pytest.mark.parametrize(
        "bad",
        [{}, {0: 1.0}, {1: -0.5}, {1: math.nan}, {1.5: 1.0}, {1: 0.0, -1: 0.0}],
    )
    def test_rejects_invalid_intensities(self, bad):
        with pytest.raises(ValueError):
            LevyMeasure(bad)

    def test_getitem_defaults_to_zero(self):
        levy = LevyMeasure({1: 0.5})
        assert levy[1] == 0.5
        assert levy[7] == 0.0
        assert levy[10**400] == 0.0

    @pytest.mark.parametrize("y", [1.5, 2.25, -1.5, np.float64(1.25)])
    def test_getitem_of_a_non_integer_is_zero(self, y):
        # an integer law puts no mass between the integers
        assert LevyMeasure({1: 0.5, -1: 0.25, 2: 0.1})[y] == 0.0

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_getitem_of_a_non_finite_value_raises(self, y):
        with pytest.raises(ValueError, match="finite"):
            LevyMeasure({1: 0.5})[y]

    @given(
        rate_p=st.floats(1e-6, 10.0),
        rate_m=st.floats(1e-6, 10.0),
        r=st.floats(0.0, 6.0),
    )
    def test_abs_moment_is_mass_times_mean_abs_power(self, rate_p, rate_m, r):
        levy = LevyMeasure({2: rate_p, -3: rate_m})
        expected = rate_p * 2.0**r + rate_m * 3.0**r
        assert_allclose(levy.abs_moment(r), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# bessel_k
# ---------------------------------------------------------------------------


class TestBesselK:
    def test_reference_values(self):
        assert_allclose(bessel_k(0, 1.0), 0.4210244382407083, rtol=1e-9)
        assert_allclose(bessel_k(1, 1.0), 0.6019072301972346, rtol=1e-9)
        assert_allclose(bessel_k(0.5, 1.0), 0.4610685044478946, rtol=1e-9)

    @pytest.mark.parametrize("x", [0.05, 0.7, 1.0, 3.5, 40.0, 300.0])
    def test_half_integer_closed_forms(self, x):
        base = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert_allclose(bessel_k(0.5, x), base, rtol=1e-12)
        assert_allclose(bessel_k(1.5, x), base * (1 + 1 / x), rtol=1e-12)
        assert_allclose(bessel_k(2.5, x), base * (1 + 3 / x + 3 / x**2), rtol=1e-12)

    def test_matches_high_precision_oracle_on_grid(self):
        mpmath.mp.dps = 30
        orders = [-20.0, -5.5, -0.9, 0.0, 0.3, 1.0, 2.7, 10.0, 20.0]
        xs = [1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 700.0]
        for v in orders:
            for x in xs:
                want = float(mpmath.besselk(v, x))
                if want == 0.0 or math.isinf(want):
                    continue
                assert_allclose(bessel_k(v, x), want, rtol=1e-10, err_msg=f"K_{v}({x})")

    def test_symmetric_in_order(self):
        assert bessel_k(-3.25, 2.0) == bessel_k(3.25, 2.0)

    def test_vectorised_over_x(self):
        xs = np.array([0.5, 1.0, 2.0])
        assert_allclose(bessel_k(1.0, xs), [bessel_k(1.0, float(x)) for x in xs])

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_x(self, x):
        with pytest.raises(ValueError):
            bessel_k(1.0, x)

    def test_overflow_and_underflow_raise(self):
        with pytest.raises(OverflowError):
            bessel_k(500.0, 1e-6)
        with pytest.raises(FloatingPointError):
            bessel_k(0.0, 800.0)


# ---------------------------------------------------------------------------
# Exponential family
# ---------------------------------------------------------------------------


class TestExponentialTrawl:
    def test_closed_forms(self):
        fam = ExponentialTrawl(lam=BASE_LAM)
        assert_allclose(fam.d_tilde(-1.0), math.exp(-BASE_LAM), rtol=1e-14)
        assert_allclose(fam.area(), 1 / BASE_LAM, rtol=1e-14)
        assert_allclose(fam.overlap(2.0), math.exp(-2 * BASE_LAM) / BASE_LAM, rtol=1e-14)
        assert_allclose(fam.increment(2.0), -math.expm1(-2 * BASE_LAM) / BASE_LAM, rtol=1e-14)

    def test_quantiles_closed_form(self):
        fam = ExponentialTrawl(lam=0.7)
        for p in (0.0, 0.2, 0.6, 0.999):
            assert_allclose(_closed_form(fam.sample_lifetimes, p), -math.log1p(-p) / 0.7, atol=1e-13)
        # residual draws invert the survival overlap(t)/area = q
        for q in (0.1, 0.5, 1.0):
            assert_allclose(_closed_form(fam.sample_residuals, q), -math.log(q) / 0.7, rtol=1e-8, atol=1e-12)

    def test_area_matches_quadrature(self):
        fam = ExponentialTrawl(lam=2.3)
        assert_allclose(fam.area(), quad_area(fam), rtol=1e-9)
        assert_allclose(fam.overlap(1.7), quad_overlap(fam, 1.7), rtol=1e-9)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_decay(self, lam):
        with pytest.raises(ValueError):
            ExponentialTrawl(lam=lam)

    def test_profile_domain(self):
        with pytest.raises(ValueError):
            ExponentialTrawl(lam=1.0).d_tilde(0.5)

    @given(lam=st.floats(1e-3, 1e3), t=st.floats(0.0, 50.0))
    def test_increment_is_area_minus_overlap(self, lam, t):
        # the subtraction cancels catastrophically at tiny t, which is why
        # increment has its own formula; allow that rounding in the check
        fam = ExponentialTrawl(lam=lam)
        assert_allclose(
            fam.increment(t), fam.area() - fam.overlap(t), rtol=1e-10, atol=5e-16 * fam.area()
        )

    @given(lam=st.floats(1e-2, 1e2), p=st.floats(1e-6, 1 - 1e-6))
    def test_sampled_lifetime_inverts_profile(self, lam, p):
        fam = ExponentialTrawl(lam=lam)
        t = _closed_form(fam.sample_lifetimes, p)
        assert_allclose(fam.d_tilde(-t), 1.0 - p, rtol=1e-9)


# ---------------------------------------------------------------------------
# Sup-gamma family
# ---------------------------------------------------------------------------


class TestSupGammaTrawl:
    def test_frozen_values(self):
        fam = SupGammaTrawl(alpha=2.0, H=1.5)
        assert_allclose(fam.area(), 4.0, rtol=1e-12)
        assert_allclose(fam.overlap(3.0), 2.52982212813, rtol=1e-10)
        assert_allclose(_closed_form(fam.sample_lifetimes, 0.7), 2.46288633388, rtol=1e-10)

    def test_area_matches_quadrature(self):
        fam = SupGammaTrawl(alpha=1.3, H=2.4)
        assert_allclose(fam.area(), quad_area(fam), rtol=1e-8)
        assert_allclose(fam.overlap(0.9), quad_overlap(fam, 0.9), rtol=1e-8)

    def test_polynomial_profile(self):
        fam = SupGammaTrawl(alpha=2.0, H=3.0)
        assert_allclose(fam.d_tilde(-4.0), (1 + 2.0) ** -3.0, rtol=1e-14)

    def test_heavy_tail_boundary_constructs_but_has_no_area(self):
        fam = SupGammaTrawl(alpha=1.0, H=1.0)
        assert_allclose(fam.d_tilde(-1.0), 0.5, rtol=1e-14)
        with pytest.raises(ValueError):
            fam.area()
        with pytest.raises(ValueError):
            fam.overlap(1.0)
        with pytest.raises(ValueError):
            fam.sample_residuals(0.5, np.random.default_rng(0))
        # lifetimes stay well defined: the profile still decreases to 0
        assert_allclose(_closed_form(fam.sample_lifetimes, 0.5), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha,H", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.9), (1.0, math.nan)])
    def test_rejects_bad_parameters(self, alpha, H):
        with pytest.raises(ValueError):
            SupGammaTrawl(alpha=alpha, H=H)

    @given(
        alpha=st.floats(0.1, 10.0),
        H=st.floats(1.05, 8.0),
        q=st.floats(1e-6, 1 - 1e-9),
    )
    def test_residual_closed_form(self, alpha, H, q):
        # overlap(t)/area = (1 + t/alpha)^(1-H), so the survival inverse is
        # t = alpha (q^(-1/(H-1)) - 1)
        fam = SupGammaTrawl(alpha=alpha, H=H)
        want = alpha * (q ** (-1.0 / (H - 1.0)) - 1.0)
        assert_allclose(_closed_form(fam.sample_residuals, q), want, rtol=1e-7, atol=1e-9)

    @given(alpha=st.floats(0.1, 10.0), H=st.floats(1.0, 8.0), p=st.floats(0.0, 1 - 1e-9))
    def test_sampled_lifetime_inverts_profile(self, alpha, H, p):
        fam = SupGammaTrawl(alpha=alpha, H=H)
        t = _closed_form(fam.sample_lifetimes, p)
        assert_allclose(fam.d_tilde(-t), 1.0 - p, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Sup-GIG family
# ---------------------------------------------------------------------------


class TestSupGigTrawl:
    def test_frozen_values(self):
        fam = SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6)
        assert_allclose(fam.area(), 2.727077405681, rtol=1e-10)
        assert_allclose(fam.overlap(2.0), 1.5084448890944, rtol=1e-10)
        assert_allclose(fam.d_tilde(-1.3), 0.50152798264544, rtol=1e-10)

    def test_frozen_values_zero_gamma_limit(self):
        fam = SupGigTrawl(gamma=0.0, delta_gig=0.9, order=-0.6)
        assert_allclose(fam.d_tilde(-1.3), 0.27815373421452, rtol=1e-9)
        assert_allclose(fam.area(), 2 * 0.6 / 0.9**2, rtol=1e-12)
        assert_allclose(fam.overlap(2.0), 0.71956747114968, rtol=1e-9)

    def test_zero_gamma_continuity(self):
        limit = SupGigTrawl(gamma=0.0, delta_gig=0.9, order=-0.6)
        near = SupGigTrawl(gamma=1e-8, delta_gig=0.9, order=-0.6)
        s = -np.array([0.1, 1.3, 10.0])
        assert_allclose(near.d_tilde(s), limit.d_tilde(s), rtol=1e-6)

    def test_area_matches_quadrature(self):
        fam = SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6)
        assert_allclose(fam.area(), quad_area(fam), rtol=1e-8)
        assert_allclose(fam.overlap(1.1), quad_overlap(fam, 1.1), rtol=1e-8)
        limit = SupGigTrawl(gamma=0.0, delta_gig=0.9, order=-0.6)
        assert_allclose(limit.area(), quad_area(limit, upper=1e5), rtol=1e-5)

    def test_small_mixing_scale_degenerates_to_sup_gamma(self):
        # GIG mixing collapses onto a gamma mixing law as its scale
        # parameter vanishes: order -> shape, gamma^2/2 -> rate.
        gamma, order = 1.5, 2.3
        gig = SupGigTrawl(gamma=gamma, delta_gig=1e-4, order=order)
        gam = SupGammaTrawl(alpha=gamma**2 / 2.0, H=order)
        s = -np.geomspace(0.01, 50.0, 40)
        assert np.max(np.abs(gig.d_tilde(s) - gam.d_tilde(s))) < 1e-3
        assert_allclose(gig.area(), gam.area(), rtol=1e-3)
        assert_allclose(gig.overlap(2.0), gam.overlap(2.0), rtol=1e-3)

    def test_profile_is_one_at_zero_lag(self):
        fam = SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6)
        assert_allclose(fam.d_tilde(0.0), 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -0.1, "delta_gig": 1.0, "order": 0.5},
            {"gamma": 1.0, "delta_gig": 0.0, "order": 0.5},
            {"gamma": 0.0, "delta_gig": 1.0, "order": 0.5},
            {"gamma": 0.0, "delta_gig": 1.0, "order": 0.0},
            {"gamma": math.nan, "delta_gig": 1.0, "order": 0.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SupGigTrawl(**kwargs)

    def test_large_z_corner_matches_mpmath(self):
        # z = gamma*delta = 1700: w - z and (w/z)^order must not be formed
        # by cancellation; increment = area - overlap cancels by itself, so
        # its error is measured against the larger of the two
        gamma, delta, order = 50.0, 34.0, -10.0
        fam = SupGigTrawl(gamma=gamma, delta_gig=delta, order=order)
        ts = np.geomspace(0.01, 60.0, 25)
        want_inc, want_d = [], []
        with mpmath.workdps(50):
            g, d, nu = mpmath.mpf(gamma), mpmath.mpf(delta), mpmath.mpf(order)
            z = g * d
            for t in ts:
                w = d * mpmath.sqrt(g**2 + 2 * mpmath.mpf(t))
                kz = mpmath.besselk(nu, z)
                overlap_gap = mpmath.besselk(nu - 1, z) - (w / z) ** (1 - nu) * mpmath.besselk(nu - 1, w)
                want_inc.append(float(g / d * overlap_gap / kz))
                want_d.append(float((w / z) ** -nu * mpmath.besselk(nu, w) / kz))
        assert_allclose(fam.d_tilde(-ts), want_d, rtol=1e-14, atol=0.0)
        assert_allclose(fam.increment(ts), want_inc, rtol=1e-14, atol=1e-14 * fam.area())

    @pytest.mark.parametrize("order", [-0.6, -3.0, -10.0])
    @pytest.mark.parametrize("lag", [1e-300, 1e-60])
    @pytest.mark.parametrize("delta", [1e-5, 1.0])
    def test_zero_gamma_kernels_reach_their_limit_at_tiny_lags(self, delta, lag, order):
        # once kve overflows, w**a * kve(a, w) is 0 * inf; the profile tends
        # to 1 and the overlap to the area as w -> 0
        fam = SupGigTrawl(gamma=0.0, delta_gig=delta, order=order)
        assert_allclose(fam.d_tilde(-lag), 1.0, rtol=1e-12)
        assert_allclose(fam.overlap(lag), fam.area(), rtol=1e-12)
        assert abs(fam.increment(lag)) <= 1e-12 * fam.area()

    @pytest.mark.parametrize("order", [-0.6, -3.0, -10.0])
    def test_zero_gamma_profile_stays_at_most_one(self, order):
        # rounding lifts the Bessel product above 1 at small w; a survival probability is <= 1
        fam = SupGigTrawl(gamma=0.0, delta_gig=1e-5, order=order)
        assert np.all(fam.d_tilde(-np.geomspace(1e-300, 1e3, 2000)) <= 1.0)


# (gamma, delta, order): the heavy-tail benchmark's shape, the gamma = 0
# branch, a negative order with gamma > 0, the Bessel corner of the fit
# bounds and near the sup-gamma limit
_SAMPLER_SHAPES = {
    "heavy-tail": (1.0, 0.05, 1.6),
    "gamma-0": (0.0, 0.9, -0.6),
    "negative-order": (1.2, 0.9, -0.6),
    "bessel-corner": (50.0, 34.0, -10.0),
    "near-sup-gamma": (1.5, 1e-4, 2.3),
}


class TestSupGigSampler:
    """Exact GIG-mixture draws against the profile and overlap they integrate."""

    @pytest.mark.parametrize("shape", _SAMPLER_SHAPES.values(), ids=list(_SAMPLER_SHAPES))
    def test_lifetimes_follow_the_profile(self, shape):
        fam = SupGigTrawl(*shape)
        rng = np.random.default_rng(20140601)
        draws = fam.sample_lifetimes(rng.random(100_000), rng)
        assert stats.kstest(draws, lambda t: 1.0 - fam.d_tilde(-t)).pvalue > 1e-3

    @pytest.mark.parametrize("shape", _SAMPLER_SHAPES.values(), ids=list(_SAMPLER_SHAPES))
    def test_residuals_follow_the_overlap(self, shape):
        fam = SupGigTrawl(*shape)
        area = fam.area()
        rng = np.random.default_rng(20140602)
        draws = fam.sample_residuals(1.0 - rng.random(100_000), rng)
        assert stats.kstest(draws, lambda t: 1.0 - fam.overlap(t) / area).pvalue > 1e-3

    @pytest.mark.parametrize("shape", _SAMPLER_SHAPES.values(), ids=list(_SAMPLER_SHAPES))
    def test_draws_take_their_mixing_rates_from_rng(self, shape):
        fam = SupGigTrawl(*shape)
        levels = np.full(4, 0.5)
        first = fam.sample_lifetimes(levels, np.random.default_rng(3))
        assert_array_equal(fam.sample_lifetimes(levels, np.random.default_rng(3)), first)
        assert len(set(first.tolist())) == first.size

    def test_gamma_draw_underflowing_to_zero_gives_zero_lifetime_without_warning(self):
        # Gamma(0.01) draws reach 0 about once in a thousand
        fam = SupGigTrawl(gamma=0.0, delta_gig=1e5, order=-0.01)
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = fam.sample_lifetimes(rng.random(20_000), rng)
        assert np.all(np.isfinite(draws)) and np.all(draws >= 0.0)
        assert np.any(draws == 0.0)


# ---------------------------------------------------------------------------
# Tabulated family
# ---------------------------------------------------------------------------


def _exp_table(lam: float, n: int = 200, s_min: float = -30.0) -> TabulatedTrawl:
    s = np.linspace(s_min, 0.0, n)
    return TabulatedTrawl(s, np.exp(lam * s))


class TestTabulatedTrawl:
    def test_area_matches_trapezoid_of_profile(self):
        s = np.array([-4.0, -2.0, -1.0, 0.0])
        d = np.array([0.1, 0.3, 0.6, 1.0])
        fam = TabulatedTrawl(s, d)
        assert_allclose(fam.area(), np.trapezoid(d, s), rtol=1e-14)
        assert_allclose(fam.area(), quad_area(fam, upper=4.0), rtol=1e-9)

    def test_profile_interpolates_and_truncates(self):
        fam = TabulatedTrawl([-2.0, -1.0, 0.0], [0.4, 0.8, 1.0])
        assert_allclose(fam.d_tilde(-0.5), 0.9)
        assert_allclose(fam.d_tilde(-1.5), 0.6)
        assert fam.d_tilde(-2.0) == 0.4
        assert fam.d_tilde(-5.0) == 0.0  # beyond the earliest knot
        assert fam.d_tilde(0.0) == 1.0

    def test_overlap_matches_quadrature(self):
        fam = TabulatedTrawl([-3.0, -1.0, 0.0], [0.2, 0.5, 1.0])
        for t in (0.0, 0.4, 1.0, 2.9, 3.0, 10.0):
            assert_allclose(fam.overlap(t), quad_overlap(fam, t, upper=10.0), atol=1e-9)

    def test_sampled_lifetime_piecewise_inverse(self):
        fam = TabulatedTrawl([-2.0, -1.0, 0.0], [0.4, 0.8, 1.0])
        life = lambda p: _closed_form(fam.sample_lifetimes, p)
        assert life(0.0) == 0.0  # level 1 at lag 0
        assert_allclose(life(0.1), 0.5)  # within (0, 1]
        assert_allclose(life(0.2), 1.0)
        assert_allclose(life(0.4), 1.5)
        assert_allclose(life(0.6), 2.0)
        # below the tabulated range the lifetime truncates at the last knot
        assert_allclose(life(0.9), 2.0)

    def test_sampled_lifetime_flat_segment_takes_latest_time(self):
        fam = TabulatedTrawl([-3.0, -2.0, -1.0, 0.0], [0.2, 0.5, 0.5, 1.0])
        # the profile sits at 0.5 on [-2, -1]; the inverse picks the
        # latest lag attaining the level
        assert_allclose(_closed_form(fam.sample_lifetimes, 0.5), 1.0)

    def test_matches_exponential_family_on_dense_table(self):
        lam = 0.9
        exact = ExponentialTrawl(lam=lam)
        fam = _exp_table(lam, n=4000, s_min=-40.0)
        # trapezoid error is ~ (lam h)^2 / 12 relative at this resolution
        assert_allclose(fam.area(), exact.area(), rtol=2e-5)
        for t in (0.1, 1.0, 5.0):
            assert_allclose(fam.overlap(t), exact.overlap(t), rtol=2e-5)
        levels = np.array([0.05, 0.5, 0.95])
        assert_allclose(
            _closed_form(fam.sample_lifetimes, levels), _closed_form(exact.sample_lifetimes, levels),
            rtol=1e-5, atol=5e-5,
        )
        assert_allclose(
            _closed_form(fam.sample_residuals, levels), _closed_form(exact.sample_residuals, levels),
            rtol=1e-4, atol=5e-5,
        )

    @given(q=st.floats(1e-3, 1.0))
    @settings(max_examples=50)
    def test_sampled_residual_inverts_survival(self, q):
        fam = TabulatedTrawl([-4.0, -2.5, -1.0, 0.0], [0.05, 0.3, 0.7, 1.0])
        a = _closed_form(fam.sample_residuals, q)
        assert 0.0 <= a <= 4.0
        assert_allclose(fam.overlap(a), q * fam.area(), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "s,d",
        [
            ([0.0], [1.0]),
            ([-1.0, 0.0], [1.2, 1.0]),
            ([-1.0, 0.0], [0.5, 0.9]),
            ([-1.0, -2.0, 0.0], [0.2, 0.5, 1.0]),
            ([-2.0, -1.0], [0.5, 0.9]),
            ([-1.0, 0.0], [0.9, 0.5]),
        ],
    )
    def test_rejects_bad_tables(self, s, d):
        with pytest.raises(ValueError):
            TabulatedTrawl(s, d)


# ---------------------------------------------------------------------------
# Registry + squashed trawl + model parameters
# ---------------------------------------------------------------------------


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("exponential", {"lambda": 0.7}),
            ("sup-gamma", {"alpha": 2.0, "H": 1.5}),
            ("sup-gig", {"gamma": 1.2, "delta": 0.9, "nu": -0.6}),
            ("tabulated", {"s": [-1.0, 0.0], "d_tilde": [0.5, 1.0]}),
        ],
    )
    def test_round_trip_through_wire_format(self, name, params):
        fam = family_from_params(name, params)
        assert fam.name == name
        rebuilt = family_from_params(name, fam.params())
        assert rebuilt == fam

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown trawl family"):
            family_from_params("pareto", {})

    def test_every_family_class_is_registered_under_its_name(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = list(subclasses(TrawlFamily))
        assert {cls.name for cls in classes} == set(_FAMILIES)
        for cls in classes:
            assert _FAMILIES[cls.name] is cls

    @pytest.mark.parametrize("cls", [c for c in _FAMILIES.values() if c.coords], ids=lambda c: c.name)
    def test_fit_tables_are_consistent(self, cls):
        for key, coord in cls.coords.items():
            lo, hi = coord.bounds
            box_lo, box_hi = coord.box
            assert lo <= box_lo < box_hi <= hi, key
            if coord.log:
                assert lo > 0.0, key

    # shapes per family, in ``coords`` order; the sup-gig rows include the
    # gamma = 0 limit
    _SHAPES = {
        "exponential": [(BASE_LAM,), (1e-5,), (3.7e4,)],
        "sup-gamma": [(2.0, 1.7), (0.01, 1.0), (350.0, 49.0)],
        "sup-gig": [(1.0, 0.05, 1.6), (0.0, 0.9, -0.6), (0.3, 2.0, 0.5), (0.0, 1e-3, -7.5), (40.0, 30.0, -10.0)],
    }

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_broadcast_increment_is_the_instance_increment(self, name):
        # the fit evaluates a grid of shapes in one call; each row must be
        # bit for bit what the family instance returns
        cls = _FAMILIES[name]
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 40)])
        columns = [np.array(col)[:, None] for col in zip(*self._SHAPES[name])]
        grid = cls._increment(t, *columns)
        assert grid.shape == (len(self._SHAPES[name]), t.size)
        for row, shape in zip(grid, self._SHAPES[name]):
            assert row.tobytes() == np.asarray(cls(*shape).increment(t)).tobytes(), shape

    # corners: H = 1; the gamma = 0 branch, at integer and half orders too,
    # where a float power may take numpy's square or square-root path; the
    # bounds; and, last for sup-gig, shapes the constructor rejects
    _CORNERS = {
        "exponential": [(1e-5,), (1e5,)],
        "sup-gamma": [(1e-5, 1.0), (0.5, 1.0), (1e5, 1.0), (1e-5, 50.0), (1e5, 50.0)],
        "sup-gig": [(0.0, 0.3, -o) for o in (0.5, 1.0, 1.5, 2.0, 3.0, 10.0)]
        + [(0.0, 1e-5, -10.0), (50.0, 1e5, 10.0), (50.0, 1e-5, -10.0)]
        + [(0.0, 0.3, 0.0), (0.0, 0.3, 1.5), (-1.0, 0.3, 1.0), (1.0, 0.0, 1.0), (0.0, 0.0, -1.0)],
    }

    @pytest.mark.parametrize("name", sorted(_CORNERS))
    def test_float_fields_give_the_bits_of_one_by_one_fields(self, name):
        # each polish step of the fit calls the kernel on one shape's fields
        # as floats, and the grid on (rows, 1) columns of them: a shape must
        # score the same either way.  Seeded shapes lie inside the bounds
        # (log coordinates drawn on log scale); a third of the sup-gig draws
        # sit on the gamma = 0 branch.
        cls = _FAMILIES[name]
        rng = np.random.default_rng(25)
        shapes = []
        for _ in range(200):
            shape = [math.exp(rng.uniform(*map(math.log, c.bounds))) if c.log else rng.uniform(*c.bounds)
                     for c in cls.coords.values()]
            if name == "sup-gig" and rng.random() < 1 / 3:
                shape[0], shape[2] = 0.0, -shape[2] if shape[2] > 0.0 else shape[2]
            shapes.append(tuple(shape))
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 70)])
        for shape in shapes + self._CORNERS[name]:
            with np.errstate(all="ignore"):
                floats = cls._increment(t, *map(float, shape))
                arrays = cls._increment(t, *(np.array([[f]]) for f in shape))
            assert floats.shape == t.shape and arrays.shape == (1, t.size)
            assert np.array_equal(floats, arrays[0], equal_nan=True), shape
            try:
                cls(*shape)
            except ValueError:
                assert np.isnan(floats).all(), shape
            else:
                assert not np.isnan(floats).all(), shape

    @pytest.mark.parametrize(
        "name,rejected",
        [
            ("exponential", [(0.0,), (-1.0,)]),
            ("sup-gamma", [(1.0, 0.5), (-1.0, 2.0)]),
            ("sup-gig", [(0.0, 0.9, 0.5), (0.0, 0.9, 0.0), (-1.0, 0.9, 1.0), (1.0, 0.0, 1.0)]),
        ],
    )
    def test_broadcast_increment_gives_nan_for_rejected_shapes(self, name, rejected):
        cls = _FAMILIES[name]
        rows = np.array(rejected)
        with np.errstate(all="raise"):
            values = cls._increment(np.array([0.0, 0.5, 2.0]), *(col[:, None] for col in rows.T))
        assert np.isnan(values).all()
        for shape in rows:
            with pytest.raises(ValueError):
                cls(*shape)

    def test_only_tabulated_has_no_fit_table(self):
        assert [name for name, cls in _FAMILIES.items() if not cls.coords] == ["tabulated"]


# one member of every registered family; the gamma = 0 sup-gig limit has
# its own profile and overlap formulas
_MEMBERS = {
    "exponential": ExponentialTrawl(lam=BASE_LAM),
    "sup-gamma": SupGammaTrawl(alpha=2.0, H=1.7),
    "sup-gig": SupGigTrawl(gamma=1.0, delta_gig=0.05, order=1.6),
    "sup-gig-gamma-0": SupGigTrawl(gamma=0.0, delta_gig=0.9, order=-0.6),
    "tabulated": _exp_table(0.7),
}
_PROFILE_METHODS = ("d_tilde", "area", "overlap", "increment", "sample_lifetimes", "sample_residuals")
_KERNELS = {"_d_tilde", "_area", "_overlap", "_increment", "_sample_lifetimes", "_sample_residuals"}


class TestFamilyContract:
    """Validation and result shapes, defined once on the base class."""

    def test_every_registered_family_is_covered(self):
        assert {fam.name for fam in _MEMBERS.values()} == set(_FAMILIES)

    @pytest.mark.parametrize("cls", _FAMILIES.values(), ids=lambda c: c.name)
    def test_families_write_kernels_not_profile_methods(self, cls):
        assert not set(vars(cls)) & set(_PROFILE_METHODS)

    @pytest.mark.parametrize("cls", _FAMILIES.values(), ids=lambda c: c.name)
    def test_families_write_all_six_kernels_with_no_fallback(self, cls):
        # one lifetime law per family, drawn by its own sampling kernels
        assert TrawlFamily.__abstractmethods__ == _KERNELS
        assert _KERNELS <= set(vars(cls))
        for gone in ("lifetime_quantile", "residual_quantile", "_lifetime", "_residual"):
            assert not hasattr(cls, gone), gone
        for gone in ("_invert_decreasing", "lifetime_quantile", "residual_quantile"):
            assert not hasattr(trawlprice.model, gone), gone

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize("s", [0.5, 1e-300, [-1.0, 0.25], math.nan, -math.inf, [-1.0, math.nan]])
    def test_positive_lag_rejected(self, name, s):
        with pytest.raises(ValueError, match=r"s <= 0 only"):
            _MEMBERS[name].d_tilde(s)
        with pytest.raises(ValueError, match=r"s <= 0 only"):
            TrawlSpec(b=1.0, family=_MEMBERS[name]).d(s)

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize("method", ["overlap", "increment"])
    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, [0.5, -0.1]])
    def test_bad_age_rejected(self, name, method, t):
        with pytest.raises(ValueError, match="age/horizon"):
            getattr(_MEMBERS[name], method)(t)

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize(
        "method,level",
        [("sample_lifetimes", p) for p in (-0.1, 1.0, math.nan, math.inf, [0.5, 1.5], [[0.5, 0.2], [0.1, 1.0]])]
        + [("sample_residuals", q) for q in (0.0, 1.1, math.nan, -math.inf, [0.5, -0.2], [[0.5, 0.2], [0.1, 0.0]])],
    )
    def test_bad_level_rejected(self, name, method, level):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="quantile level"):
            getattr(_MEMBERS[name], method)(level, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("name", ["exponential", "sup-gamma", "tabulated"])
    @pytest.mark.parametrize(
        "sample,levels",
        [
            ("sample_lifetimes", [[0.0, 0.01, 0.3], [0.5, 0.9, 0.999]]),
            ("sample_residuals", [[1.0, 0.99, 0.7], [0.5, 0.1, 0.001]]),
        ],
    )
    def test_closed_form_draws_take_nothing_from_rng(self, name, sample, levels):
        # families without a mixture form draw by their inverse CDF, so
        # their seeded paths depend only on the uniforms
        method = getattr(_MEMBERS[name], sample)
        grid = np.array(levels)
        got = _closed_form(method, grid)
        assert_array_equal(method(grid, np.random.default_rng(1)), got)
        for x, y in zip(grid.ravel(), got.ravel()):
            assert _closed_form(method, float(x)) == y

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize(
        "method,values",
        [
            ("d_tilde", [[0.0, -0.01, -0.5], [-2.0, -7.0, -40.0]]),
            ("overlap", [[0.0, 0.01, 0.5], [2.0, 7.0, 40.0]]),
            ("increment", [[0.0, 0.01, 0.5], [2.0, 7.0, 40.0]]),
            ("sample_lifetimes", [[0.0, 0.01, 0.3], [0.5, 0.9, 0.999]]),
            ("sample_residuals", [[1.0, 0.99, 0.7], [0.5, 0.1, 0.001]]),
        ],
    )
    def test_scalar_gives_float_and_array_keeps_shape(self, name, method, values):
        fam = _MEMBERS[name]
        call = getattr(fam, method)
        if method.startswith("sample"):
            call = functools.partial(call, rng=np.random.default_rng(5))
        # sup-gig draws its mixing rates, so only its shapes and types can be compared
        random = method.startswith("sample") and name.startswith("sup-gig")
        grid = np.array(values)
        out = call(grid)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        assert np.all(np.isfinite(out))
        assert call(grid.ravel().tolist()).shape == (grid.size,)
        assert call(np.empty(0)).shape == (0,)
        for x, y in zip(grid.ravel(), out.ravel()):
            for scalar in (float(x), np.float64(x), np.array(x)):
                value = call(scalar)
                assert type(value) is float
                if not random:
                    assert_allclose(value, y, rtol=1e-9)
        assert type(fam.area()) is float


class TestTrawlSpec:
    def test_squashed_depth_and_area(self):
        spec = TrawlSpec(b=BASE_B, family=ExponentialTrawl(lam=BASE_LAM))
        assert_allclose(spec.leb_area(), 0.886930983847, rtol=1e-10)
        assert_allclose(spec.increment(1.0), 0.43804578609, rtol=1e-10)
        assert_allclose(spec.d(-1.0), BASE_B + (1 - BASE_B) * math.exp(-BASE_LAM), rtol=1e-14)
        assert_allclose(spec.overlap(1.0), spec.leb_area() - spec.increment(1.0), rtol=1e-12)

    def test_fully_permanent_limit_has_no_decaying_area(self):
        spec = TrawlSpec(b=1.0, family=ExponentialTrawl(lam=5.0))
        assert spec.leb_area() == 0.0
        assert spec.overlap(3.0) == 0.0
        assert spec.increment(3.0) == 0.0
        assert spec.d(-2.0) == 1.0

    @pytest.mark.parametrize("b", [-0.1, 1.1, math.nan])
    def test_rejects_bad_permanence(self, b):
        with pytest.raises(ValueError):
            TrawlSpec(b=b, family=ExponentialTrawl(lam=1.0))

    def test_rejects_non_family(self):
        with pytest.raises(TypeError):
            TrawlSpec(b=0.5, family="exponential")

    @given(b=st.floats(0.0, 1.0), lam=st.floats(0.01, 100.0), t=st.floats(0.0, 20.0))
    def test_increment_nonnegative_and_bounded_by_area(self, b, lam, t):
        spec = TrawlSpec(b=b, family=ExponentialTrawl(lam=lam))
        inc = spec.increment(t)
        assert -1e-15 <= inc <= spec.leb_area() + 1e-15


class TestModelParams:
    def test_json_round_trip(self, base_params, tmp_path):
        f = tmp_path / "params.json"
        base_params.to_json(f)
        again = ModelParams.from_json(f)
        assert again.levy == base_params.levy
        assert again.b == base_params.b
        assert again.trawl.family == base_params.trawl.family

    def test_json_schema_is_stable(self, base_params, tmp_path):
        f = tmp_path / "params.json"
        base_params.to_json(f)
        data = json.loads(f.read_text())
        assert set(data) == {"b", "trawl", "levy"}
        assert data["trawl"] == {"family": "exponential", "params": {"lambda": BASE_LAM}}
        assert data["levy"] == {"1": 0.0138, "-1": 0.0131}

    def test_round_trip_all_families(self, tmp_path):
        families = [
            ExponentialTrawl(lam=0.3),
            SupGammaTrawl(alpha=2.0, H=1.5),
            SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6),
            TabulatedTrawl([-1.0, 0.0], [0.5, 1.0]),
        ]
        for fam in families:
            params = ModelParams(LevyMeasure({2: 0.1}), TrawlSpec(b=0.5, family=fam))
            f = tmp_path / f"{fam.name}.json"
            params.to_json(f)
            assert ModelParams.from_json(f).trawl.family == fam

    @pytest.mark.parametrize("field", ["trawl", "trawl.params", "levy"])
    def test_non_object_block_rejected(self, base_params, field):
        data = base_params.to_dict()
        if field == "trawl.params":
            data["trawl"]["params"] = [0.5]
        else:
            data[field] = [1, 2]
        with pytest.raises(ValueError, match=f"'{field}' must be an object"):
            ModelParams.from_dict(data)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing required field"):
            ModelParams.from_dict({"b": 0.5, "levy": {"1": 0.1}})


# ---------------------------------------------------------------------------
# Whole-number arguments
# ---------------------------------------------------------------------------


def _read_sidecar(tmp_path, **fields):
    """An empty path read back through a sidecar holding ``fields``."""
    csv_file, sidecar = tmp_path / "p.csv", tmp_path / "p.csv.meta.json"
    csv_file.write_text("time,price_ticks\n")
    sidecar.write_text(json.dumps({"v0": 0, "t_start": 0.0, "t_end": 1.0, "seed": None, **fields}))
    return read_path_csv(csv_file, sidecar)


def _model_json_with_size(params, size):
    data = params.to_dict()
    data["levy"] = {size: 0.5, "-1": 0.5}
    return ModelParams.from_dict(data)


# site: (call with the argument under test, its least allowed value or
# None, whether the site parses text and so takes a numeric string)
_WHOLE_SITES = {
    "LevyMeasure-size": (lambda p, v, tmp: LevyMeasure({v: 0.5, -1: 0.5}), None, False),
    "LevyMeasure.cumulant": (lambda p, v, tmp: p.levy.cumulant(v), 1, False),
    "return_cumulant": (lambda p, v, tmp: return_cumulant(p, 1.0, v), 1, False),
    "return_pmf-n_points": (lambda p, v, tmp: return_pmf(p, 1.0, v), 4, False),
    "acf-k_max": (lambda p, v, tmp: acf(p, 1.0, v), 1, False),
    "expected_rv-n": (lambda p, v, tmp: expected_rv(p, 100.0, v), 1, False),
    "PmfResult.central_moment": (lambda p, v, tmp: return_pmf(p, 1.0).central_moment(v), 1, False),
    "levy_from_moments-size": (lambda p, v, tmp: levy_from_moments({v: 0.5, -1: 0.5}, 1.0, 0.5), None, False),
    "fit_signature-n_starts": (
        lambda p, v, tmp: fit_signature(collect_stats(simulate_path(p, 0.0, 2000.0, 0, 3)), n_starts=v), 1, False,
    ),
    "bootstrap-n_paths": (lambda p, v, tmp: bootstrap(p, span=100.0, v0=0, n_paths=v), 2, False),
    "bootstrap-n_workers": (lambda p, v, tmp: bootstrap(p, span=100.0, v0=0, n_paths=2, n_workers=v), 1, False),
    "bootstrap-v0": (lambda p, v, tmp: bootstrap(p, span=100.0, v0=v, n_paths=2), None, False),
    "bootstrap-seed": (lambda p, v, tmp: bootstrap(p, span=100.0, v0=0, n_paths=2, seed=v), 0, False),
    "PricePath-v0": (lambda p, v, tmp: PricePath(v0=v, t_start=0.0, t_end=1.0, times=[], jumps=[]), None, False),
    "simulate_path-v0": (lambda p, v, tmp: simulate_path(p, 0.0, 10.0, v, 1), None, False),
    "sidecar-v0": (lambda p, v, tmp: _read_sidecar(tmp, v0=v), None, True),
    "sidecar-seed": (lambda p, v, tmp: _read_sidecar(tmp, seed=v), None, True),
    "model-json-size": (lambda p, v, tmp: _model_json_with_size(p, v), None, True),
}


def _bad_whole_values(low, text):
    """A fraction, the two non-finite floats, a bool, the value below ``low``,
    and a numeric string where the site does not parse text."""
    values = [1.5, math.inf, math.nan, True] + ([] if low is None else [low - 1])
    return values + ([] if text else ["8"])


class TestWholeNumberArguments:
    @pytest.mark.parametrize(
        "site, value",
        [(site, v) for site, (_, low, text) in _WHOLE_SITES.items() for v in _bad_whole_values(low, text)],
    )
    def test_rejects_what_is_not_a_whole_number(self, base_params, tmp_path, site, value):
        call = _WHOLE_SITES[site][0]
        with pytest.raises(ValueError):
            call(base_params, value, tmp_path)

    def test_text_sites_read_a_numeric_string(self, base_params, tmp_path):
        assert _read_sidecar(tmp_path, v0=" 7 ").v0 == 7
        assert _read_sidecar(tmp_path, seed="7").seed == 7
        assert _model_json_with_size(base_params, "7").levy.as_dict() == {7: 0.5, -1: 0.5}

    def test_integral_floats_and_numpy_integers_pass_as_ints(self, base_params):
        assert return_cumulant(base_params, 1.0, 2.0) == return_cumulant(base_params, 1.0, np.int64(2))
        path = PricePath(v0=np.float64(3.0), t_start=0.0, t_end=1.0, times=[], jumps=[])
        assert path.v0 == 3 and type(path.v0) is int


# ---------------------------------------------------------------------------
# Real-valued arguments
# ---------------------------------------------------------------------------


def _model_json_with(params, where, value):
    data = params.to_dict()
    block = data
    for key in where[:-1]:
        block = block[key]
    block[where[-1]] = value
    return ModelParams.from_dict(data)


_PATH = PricePath(v0=0, t_start=0.0, t_end=10.0, times=[1.0, 2.0], jumps=[1, -1])
_FREQ = {1: 0.5, -1: 0.5}

# site: (call with the argument under test, the message it raises, whether
# the site reads a wire format and so takes a numeric string)
_REAL_SITES = {
    "ExponentialTrawl-lam": (lambda p, v, tmp: ExponentialTrawl(v), "decay rate must be finite and > 0", False),
    "SupGammaTrawl-alpha": (lambda p, v, tmp: SupGammaTrawl(v, 2.0), "scale alpha must be finite and > 0", False),
    "SupGammaTrawl-H": (lambda p, v, tmp: SupGammaTrawl(1.0, v), "tail index H must be finite and >= 1", False),
    "SupGigTrawl-gamma": (lambda p, v, tmp: SupGigTrawl(v, 1.0, -0.5), "gamma must be finite and >= 0", False),
    "SupGigTrawl-delta": (lambda p, v, tmp: SupGigTrawl(1.0, v, -0.5), "delta must be finite and > 0", False),
    "SupGigTrawl-order": (lambda p, v, tmp: SupGigTrawl(1.0, 1.0, v), "order must be finite", False),
    "TrawlSpec-b": (lambda p, v, tmp: TrawlSpec(v, p.trawl.family), "permanence parameter b must lie in [0, 1]", False),
    "LevyMeasure-rate": (lambda p, v, tmp: LevyMeasure({1: v}), "intensity for size 1 must be finite and >= 0", False),
    "LevyMeasure.abs_moment": (
        lambda p, v, tmp: p.levy.abs_moment(v), "moment exponent must be finite and >= 0", False,
    ),
    "return_cumulant-t": (lambda p, v, tmp: return_cumulant(p, v, 2), "horizon must be finite and > 0", False),
    "return_log_cf-t": (lambda p, v, tmp: return_log_cf(p, v, 0.5), "horizon must be finite and > 0", False),
    "return_cf-t": (lambda p, v, tmp: return_cf(p, v, 0.5), "horizon must be finite and > 0", False),
    "return_pmf-t": (lambda p, v, tmp: return_pmf(p, v), "horizon must be finite and > 0", False),
    "acf-delta": (lambda p, v, tmp: acf(p, v, 2), "horizon must be finite and > 0", False),
    "expected_pv-t": (lambda p, v, tmp: expected_pv(p, v, 2.0), "horizon must be finite and > 0", False),
    "expected_pv-r": (lambda p, v, tmp: expected_pv(p, 1.0, v), "moment exponent must be finite and >= 0", False),
    "expected_rv-span": (lambda p, v, tmp: expected_rv(p, v, 10), "horizon must be finite and > 0", False),
    "PricePath-t_start": (lambda p, v, tmp: PricePath(0, v, 10.0, [], []), "need finite t_start < t_end", False),
    "PricePath-t_end": (lambda p, v, tmp: PricePath(0, 0.0, v, [], []), "need finite t_start < t_end", False),
    "simulate_path-t_start": (lambda p, v, tmp: simulate_path(p, v, 10.0, 0, 1), "need finite t_start < t_end", False),
    "simulate_path-t_end": (lambda p, v, tmp: simulate_path(p, 0.0, v, 0, 1), "need finite t_start < t_end", False),
    "window_index-t_start": (lambda p, v, tmp: window_index([1.0], v, 1.0), "t_start must be finite", False),
    "window_index-delta": (lambda p, v, tmp: window_index([1.0], 0.0, v), "delta must be finite and > 0", False),
    "returns_at-delta": (lambda p, v, tmp: returns_at(_PATH, v), "delta must be finite and > 0", False),
    "realized_pv-r": (lambda p, v, tmp: realized_pv(_PATH, v), "order must be finite and >= 0", False),
    "levy_from_moments-b": (
        lambda p, v, tmp: levy_from_moments(_FREQ, 1.0, v), "permanence parameter must lie in (0, 1]", False,
    ),
    "levy_from_moments-beta0": (
        lambda p, v, tmp: levy_from_moments(_FREQ, v, 0.5), "event rate beta_0 must be finite and > 0", False,
    ),
    "levy_from_moments-frequency": (
        lambda p, v, tmp: levy_from_moments({1: v, -1: 0.5}, 1.0, 0.5),
        "frequencies must be finite, nonnegative, and keyed by nonzero sizes", False,
    ),
    "bootstrap-span": (lambda p, v, tmp: bootstrap(p, span=v, v0=0, n_paths=2), "span must be finite and > 0", False),
    "CleanConfig-tick_size": (lambda p, v, tmp: CleanConfig(v), "tick_size must be finite and > 0", False),
    "CleanConfig-m_factor": (lambda p, v, tmp: CleanConfig(0.25, v), "m_factor must be finite and > 0", False),
    "model-json-b": (
        lambda p, v, tmp: _model_json_with(p, ["b"], v), "model JSON field 'b' must be a finite number", True,
    ),
    "model-json-lambda": (
        lambda p, v, tmp: _model_json_with(p, ["trawl", "params", "lambda"], v),
        "trawl parameter 'lambda' must be a finite number", True,
    ),
    "model-json-levy-rate": (
        lambda p, v, tmp: _model_json_with(p, ["levy", "1"], v),
        "model JSON field 'levy' must map sizes to finite numbers", True,
    ),
    "sidecar-t_start": (
        lambda p, v, tmp: _read_sidecar(tmp, t_start=v), "sidecar t_start must be a finite number", True,
    ),
    "sidecar-t_end": (lambda p, v, tmp: _read_sidecar(tmp, t_end=v), "sidecar t_end must be a finite number", True),
}

# a bool, a numeric string, None, a list, and the two non-finite floats
_NOT_REALS = [True, "2", None, [2.0], math.nan, math.inf]


class TestRealArguments:
    @pytest.mark.parametrize(
        "site, value",
        [(site, v) for site, (_, _, text) in _REAL_SITES.items() for v in _NOT_REALS if not (text and v == "2")],
    )
    def test_rejects_what_is_not_a_finite_real(self, base_params, tmp_path, site, value):
        call, need, _ = _REAL_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{need}, got {value!r}")):
            call(base_params, value, tmp_path)

    def test_wire_formats_read_a_numeric_string(self, base_params, tmp_path):
        assert _model_json_with(base_params, ["b"], " 0.25 ").b == 0.25
        assert _model_json_with(base_params, ["trawl", "params", "lambda"], "2").trawl.family == ExponentialTrawl(2.0)
        assert _model_json_with(base_params, ["levy", "1"], "0.5").levy[1] == 0.5
        path = _read_sidecar(tmp_path, t_start="-1", t_end="1e3")
        assert (path.t_start, path.t_end) == (-1.0, 1000.0)

    def test_ints_are_stored_as_floats(self, tmp_path):
        def floats(*values):
            return all(type(v) is float for v in values)

        gig = SupGigTrawl(1, 1, 1)
        spec = TrawlSpec(1, ExponentialTrawl(2))
        path = PricePath(0, 0, 10, [1.0], [1])
        assert floats(ExponentialTrawl(2).lam, ExponentialTrawl(np.float64(2)).lam)
        assert floats(*SupGammaTrawl(1, 2).params().values())
        assert floats(gig.gamma, gig.delta_gig, gig.order, spec.b, path.t_start, path.t_end)
        assert floats(CleanConfig(1).tick_size, CleanConfig(1, 9).m_factor)
        text = json.dumps(ModelParams(LevyMeasure({1: 2}), spec).to_dict())
        assert '"b": 1.0' in text and '"lambda": 2.0' in text and '"1": 2.0' in text and "true" not in text
        write_path_csv(path, tmp_path / "p.csv", tmp_path / "p.json")
        meta = (tmp_path / "p.json").read_text()
        assert '"t_start": 0.0' in meta and '"t_end": 10.0' in meta

    def test_an_int_field_gives_the_bits_of_its_float(self):
        t = np.array([0.0, 1e-3, 0.5, 2.0, 40.0])
        pairs = [(ExponentialTrawl(2), ExponentialTrawl(2.0)), (SupGammaTrawl(1, 2), SupGammaTrawl(1.0, 2.0))]
        for whole, real in pairs:
            assert whole.increment(t).tobytes() == real.increment(t).tobytes()
            assert whole.increment(0.5) == real.increment(0.5)
