"""Tests for jump-size measures, trawl families, and the squashed trawl.

Closed-form reference values were frozen from independent high-precision
computations (mpmath at 40 digits, adaptive quadrature) before the
implementation existed; quadrature cross-checks here recompute areas and
overlaps from the profile alone.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from trawlprice import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    SupGigTrawl,
    TabulatedTrawl,
    TrawlSpec,
    bessel_k,
)
from trawlprice.model import _invert_decreasing, family_from_params
from trawlprice.model import _FAMILIES, TrawlFamily

from conftest import BASE_B, BASE_LAM, BASE_NU, quad_area, quad_overlap


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
            assert_allclose(fam.lifetime_quantile(p), -math.log1p(-p) / 0.7, atol=1e-13)
        # residual_quantile inverts the survival overlap(t)/area = q
        for q in (0.1, 0.5, 1.0):
            assert_allclose(fam.residual_quantile(q), -math.log(q) / 0.7, rtol=1e-8, atol=1e-12)

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
    def test_lifetime_quantile_inverts_profile(self, lam, p):
        fam = ExponentialTrawl(lam=lam)
        t = fam.lifetime_quantile(p)
        assert_allclose(fam.d_tilde(-t), 1.0 - p, rtol=1e-9)


# ---------------------------------------------------------------------------
# Sup-gamma family
# ---------------------------------------------------------------------------


class TestSupGammaTrawl:
    def test_frozen_values(self):
        fam = SupGammaTrawl(alpha=2.0, H=1.5)
        assert_allclose(fam.area(), 4.0, rtol=1e-12)
        assert_allclose(fam.overlap(3.0), 2.52982212813, rtol=1e-10)
        assert_allclose(fam.lifetime_quantile(0.7), 2.46288633388, rtol=1e-10)

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
            fam.residual_quantile(0.5)
        # lifetimes stay well defined: the profile still decreases to 0
        assert_allclose(fam.lifetime_quantile(0.5), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha,H", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.9), (1.0, math.nan)])
    def test_rejects_bad_parameters(self, alpha, H):
        with pytest.raises(ValueError):
            SupGammaTrawl(alpha=alpha, H=H)

    @given(
        alpha=st.floats(0.1, 10.0),
        H=st.floats(1.05, 8.0),
        q=st.floats(1e-6, 1 - 1e-9),
    )
    def test_residual_quantile_closed_form(self, alpha, H, q):
        # overlap(t)/area = (1 + t/alpha)^(1-H), so the survival inverse is
        # t = alpha (q^(-1/(H-1)) - 1)
        fam = SupGammaTrawl(alpha=alpha, H=H)
        want = alpha * (q ** (-1.0 / (H - 1.0)) - 1.0)
        assert_allclose(fam.residual_quantile(q), want, rtol=1e-7, atol=1e-9)

    @given(alpha=st.floats(0.1, 10.0), H=st.floats(1.0, 8.0), p=st.floats(0.0, 1 - 1e-9))
    def test_lifetime_quantile_inverts_profile(self, alpha, H, p):
        fam = SupGammaTrawl(alpha=alpha, H=H)
        t = fam.lifetime_quantile(p)
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

    @given(p=st.floats(1e-4, 1 - 1e-4))
    @settings(max_examples=25, deadline=None)
    def test_lifetime_quantile_inverts_profile(self, p):
        fam = SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6)
        t = fam.lifetime_quantile(p)
        assert_allclose(fam.d_tilde(-t), 1.0 - p, rtol=1e-8)

    @given(q=st.floats(1e-3, 1 - 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_residual_quantile_inverts_survival(self, q):
        fam = SupGigTrawl(gamma=1.2, delta_gig=0.9, order=-0.6)
        a = fam.residual_quantile(q)
        assert_allclose(fam.overlap(a), q * fam.area(), rtol=1e-7)


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

    def test_lifetime_quantile_piecewise_inverse(self):
        fam = TabulatedTrawl([-2.0, -1.0, 0.0], [0.4, 0.8, 1.0])
        assert fam.lifetime_quantile(0.0) == 0.0  # level 1 at lag 0
        assert_allclose(fam.lifetime_quantile(0.1), 0.5)  # within (0, 1]
        assert_allclose(fam.lifetime_quantile(0.2), 1.0)
        assert_allclose(fam.lifetime_quantile(0.4), 1.5)
        assert_allclose(fam.lifetime_quantile(0.6), 2.0)
        # below the tabulated range the lifetime truncates at the last knot
        assert_allclose(fam.lifetime_quantile(0.9), 2.0)

    def test_lifetime_quantile_flat_segment_takes_latest_time(self):
        fam = TabulatedTrawl([-3.0, -2.0, -1.0, 0.0], [0.2, 0.5, 0.5, 1.0])
        # the profile sits at 0.5 on [-2, -1]; the inverse picks the
        # latest lag attaining the level, matching the generic inverse
        assert_allclose(fam.lifetime_quantile(0.5), 1.0)

    def test_matches_exponential_family_on_dense_table(self):
        lam = 0.9
        exact = ExponentialTrawl(lam=lam)
        fam = _exp_table(lam, n=4000, s_min=-40.0)
        # trapezoid error is ~ (lam h)^2 / 12 relative at this resolution
        assert_allclose(fam.area(), exact.area(), rtol=2e-5)
        for t in (0.1, 1.0, 5.0):
            assert_allclose(fam.overlap(t), exact.overlap(t), rtol=2e-5)
        for p in (0.05, 0.5, 0.95):
            assert_allclose(
                fam.lifetime_quantile(p), exact.lifetime_quantile(p), rtol=1e-5, atol=5e-5
            )
        for q in (0.05, 0.5, 0.95):
            assert_allclose(
                fam.residual_quantile(q), exact.residual_quantile(q), rtol=1e-4, atol=5e-5
            )

    @given(q=st.floats(1e-3, 1.0))
    @settings(max_examples=50)
    def test_residual_quantile_inverts_survival(self, q):
        fam = TabulatedTrawl([-4.0, -2.5, -1.0, 0.0], [0.05, 0.3, 0.7, 1.0])
        a = fam.residual_quantile(q)
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
# Generic inversion helper
# ---------------------------------------------------------------------------


class TestInvertDecreasing:
    def test_finds_roots_of_smooth_decreasing_function(self):
        func = lambda t: np.exp(-0.7 * np.asarray(t))
        targets = np.array([0.9, 0.5, 0.01])
        got = _invert_decreasing(func, targets)
        assert_allclose(got, -np.log(targets) / 0.7, rtol=1e-9)

    def test_expands_bracket_for_slow_decay(self):
        func = lambda t: (1.0 + np.asarray(t)) ** -1.001
        got = _invert_decreasing(func, np.array([1e-3]))
        assert_allclose(func(got), 1e-3, rtol=1e-8)


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
_PROFILE_METHODS = ("d_tilde", "area", "overlap", "increment", "lifetime_quantile", "residual_quantile")


class TestFamilyContract:
    """Validation and result shapes, defined once on the base class."""

    def test_every_registered_family_is_covered(self):
        assert {fam.name for fam in _MEMBERS.values()} == set(_FAMILIES)

    @pytest.mark.parametrize("cls", _FAMILIES.values(), ids=lambda c: c.name)
    def test_families_write_kernels_not_profile_methods(self, cls):
        assert not set(vars(cls)) & set(_PROFILE_METHODS)

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize("s", [0.5, 1e-300, [-1.0, 0.25]])
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
        [("lifetime_quantile", p) for p in (-0.1, 1.0, math.nan, [0.5, 1.5])]
        + [("residual_quantile", q) for q in (0.0, 1.1, math.nan, [0.5, -0.2])],
    )
    def test_bad_level_rejected(self, name, method, level):
        with pytest.raises(ValueError, match="quantile level"):
            getattr(_MEMBERS[name], method)(level)

    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    @pytest.mark.parametrize(
        "method,values",
        [
            ("d_tilde", [[0.0, -0.01, -0.5], [-2.0, -7.0, -40.0]]),
            ("overlap", [[0.0, 0.01, 0.5], [2.0, 7.0, 40.0]]),
            ("increment", [[0.0, 0.01, 0.5], [2.0, 7.0, 40.0]]),
            ("lifetime_quantile", [[0.0, 0.01, 0.3], [0.5, 0.9, 0.999]]),
            ("residual_quantile", [[1.0, 0.99, 0.7], [0.5, 0.1, 0.001]]),
        ],
    )
    def test_scalar_gives_float_and_array_keeps_shape(self, name, method, values):
        fam = _MEMBERS[name]
        grid = np.array(values)
        out = getattr(fam, method)(grid)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        assert np.all(np.isfinite(out))
        assert getattr(fam, method)(grid.ravel().tolist()).shape == (grid.size,)
        for x, y in zip(grid.ravel(), out.ravel()):
            for scalar in (float(x), np.float64(x), np.array(x)):
                value = getattr(fam, method)(scalar)
                assert type(value) is float
                # bisection stops once every element of a call converges
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
