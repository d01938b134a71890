"""Closed-form return distribution theory for squashed-trawl price models.

A return over a window of length ``t`` decomposes into three independent
compound-Poisson pieces: permanent moves born inside the window (mean
measure ``b * t * nu``) and two fleeting pieces of opposite sign with mean
measure ``increment(t) * nu`` each, coming from fleeting moves that enter
or exit the window.  Every quantity here is a direct consequence of that
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LevyMeasure, ModelParams

__all__ = [
    "return_cumulant",
    "return_log_cf",
    "return_cf",
    "PmfResult",
    "return_pmf",
    "jump_distribution",
    "acf",
    "expected_pv",
    "expected_rv",
]


def _check_horizon(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {t!r}")
    return t


def return_cumulant(params: ModelParams, t: float, j: int) -> float:
    """j-th cumulant of the return ``P_t - P_0``.

    Odd cumulants see only the permanent part, ``b * t * kappa_j``; the two
    fleeting pieces have opposite signs and cancel.  Even cumulants add the
    fleeting contribution twice: ``(b * t + 2 * increment(t)) * kappa_j``.
    """
    t = _check_horizon(t)
    if int(j) != j or j < 1:
        raise ValueError(f"cumulant order must be a positive integer, got {j!r}")
    kj = params.levy.cumulant(int(j))
    if j % 2 == 1:
        return params.b * t * kj
    return (params.b * t + 2.0 * params.trawl.increment(t)) * kj


def _base_log_cf(levy: LevyMeasure, theta: np.ndarray) -> np.ndarray:
    """Log-CF of the time-1 basis value: ``sum_y nu(y) (e^{i theta y} - 1)``.

    Written as ``-2 sin^2(theta y / 2) + i sin(theta y)`` so the real part
    is exact even where ``cos(theta y) - 1`` would cancel.
    """
    th = np.asarray(theta, dtype=float)[..., None]
    sizes = levy.sizes.astype(float)
    rates = levy.rates
    arg = th * sizes
    real = -2.0 * np.sin(arg / 2.0) ** 2
    return np.sum(rates * (real + 1j * np.sin(arg)), axis=-1)


def return_log_cf(params: ModelParams, t: float, theta):
    """Log characteristic function of ``P_t - P_0`` at ``theta``.

    ``b t C(theta) + increment(t) (C(theta) + C(-theta))`` where ``C`` is
    the log-CF of the time-1 basis value.  Accepts scalar or array
    ``theta`` and returns complex values of matching shape.
    """
    t = _check_horizon(t)
    th = np.asarray(theta, dtype=float)
    c_plus = _base_log_cf(params.levy, th)
    inc = params.trawl.increment(t)
    # C(theta) + C(-theta) is twice the (negative) real part
    val = params.b * t * c_plus + inc * 2.0 * c_plus.real
    if np.ndim(theta) == 0:
        return complex(val)
    return val


def return_cf(params: ModelParams, t: float, theta):
    """Characteristic function ``exp(return_log_cf)``; |value| <= 1."""
    val = np.exp(return_log_cf(params, t, theta))
    if np.ndim(theta) == 0:
        return complex(val)
    return val


@dataclass(frozen=True)
class PmfResult:
    """Probability mass function of an integer return on a symmetric support.

    Attributes
    ----------
    support : ndarray of int
        Consecutive integers ``-m ... m`` with ``m = n_points/2 - 1``.
    probabilities : ndarray of float
        Masses aligned with ``support``; tiny negative inversion noise is
        clamped to zero.
    aliasing_bound : float
        Bound on the mass lost outside the support (and hence wrapped
        around by the discrete inversion): ``|1 - sum(probabilities)|``.
    """

    support: np.ndarray
    probabilities: np.ndarray
    aliasing_bound: float

    def mean(self) -> float:
        return float(np.sum(self.support * self.probabilities))

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.support - m) ** 2 * self.probabilities))

    def central_moment(self, j: int) -> float:
        m = self.mean()
        return float(np.sum((self.support - m) ** j * self.probabilities))

    def prob(self, y: int) -> float:
        y = int(y)
        m = int(self.support[-1])
        if -m <= y <= m:
            return float(self.probabilities[y + m])
        return 0.0


def _auto_points(params: ModelParams, t: float) -> int:
    """Smallest even grid size whose tail mass is below 1e-10.

    The absolute return is stochastically dominated by the total tick
    distance ``W`` moved by a compound Poisson process with mean measure
    ``(b t + 2 increment(t)) nu``; a Chernoff bound on ``W`` controls the
    mass beyond any cutoff.
    """
    levy = params.levy
    rate = params.b * t + 2.0 * params.trawl.increment(t)
    abs_sizes = np.abs(levy.sizes.astype(float))
    u_max = min(200.0 / float(abs_sizes.max()), 50.0)
    u = np.geomspace(1e-3, u_max, 400)
    psi = rate * np.sum(levy.rates * np.expm1(np.outer(u, abs_sizes)), axis=1)

    def log_tail(m: float) -> float:
        return float(np.min(psi - u * m))

    m = int(abs_sizes.max()) + 1
    while log_tail(m) > math.log(1e-10):
        m *= 2
        if m > 2**26:  # pragma: no cover - absurd intensity guard
            raise ValueError("return distribution too spread out for FFT inversion")
    lo, hi = m // 2, m
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if log_tail(mid) <= math.log(1e-10):
            hi = mid
        else:
            lo = mid
    m_star = max(hi, int(abs_sizes.max()) + 1)
    return 2 * m_star


def return_pmf(params: ModelParams, t: float, n_points: int | None = None) -> PmfResult:
    """Exact pmf of the integer return ``P_t - P_0`` by CF inversion.

    One discrete Fourier inversion of the characteristic function on
    ``n_points`` angles gives the law wrapped modulo ``n_points``; choosing
    the grid large enough (automatic when ``n_points`` is omitted) makes
    the wrapping error, reported as ``aliasing_bound``, negligible.
    """
    t = _check_horizon(t)
    if n_points is None:
        n = _auto_points(params, t)
    else:
        n = int(n_points)
        if n != n_points or n < 4 or n % 2 != 0:
            raise ValueError(f"n_points must be an even integer >= 4, got {n_points!r}")
        if n // 2 <= int(np.abs(params.levy.sizes).max()):
            raise ValueError("n_points too small to cover single-jump support")
    theta = 2.0 * np.pi * np.arange(n) / n
    phi = np.exp(return_log_cf(params, t, theta))
    wrapped = np.fft.fft(phi).real / n
    m = n // 2 - 1
    support = np.arange(-m, m + 1)
    probs = wrapped[support % n]
    raw_sum = float(probs.sum())
    if probs.min() < -1e-12:
        raise ArithmeticError(
            f"CF inversion produced mass {probs.min():.3e} < -1e-12; grid too small"
        )
    probs = np.clip(probs, 0.0, None)
    bound = max(abs(1.0 - raw_sum), abs(1.0 - float(probs.sum())))
    return PmfResult(support=support, probabilities=probs, aliasing_bound=bound)


def jump_distribution(params: ModelParams) -> dict[int, float]:
    """Law of an observed price change given one occurred.

    Up-moves of size ``y`` come from births of ``+y`` (permanent or
    fleeting) and from deaths of fleeting ``-y`` moves, hence the mixture
    ``(nu(y) + (1-b) nu(-y)) / ((2-b) ||nu||)``.
    """
    levy, b = params.levy, params.b
    total = (2.0 - b) * levy.total_mass
    support = sorted(set(levy.as_dict()) | {-y for y in levy.as_dict()})
    out = {y: (levy[y] + (1.0 - b) * levy[-y]) / total for y in support}
    return {y: p for y, p in out.items() if p > 0.0}


def acf(params: ModelParams, delta: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Return autocovariance and autocorrelation at lags ``1 .. k_max``.

    The covariance at lag ``k`` is a pure second difference of the overlap
    geometry, ``(inc((k+1)d) - 2 inc(kd) + inc((k-1)d)) * kappa_2``; it is
    never positive, since fleeting moves can only revert.
    """
    delta = _check_horizon(delta)
    if int(k_max) != k_max or k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    k = np.arange(0, int(k_max) + 2)
    inc = np.asarray(params.trawl.increment(k * delta))
    second_diff = inc[2:] - 2.0 * inc[1:-1] + inc[:-2]
    gamma = second_diff * params.levy.cumulant(2)
    denom = params.b * delta + 2.0 * inc[1]
    rho = second_diff / denom
    return gamma, rho


def expected_pv(params: ModelParams, t: float, r: float) -> float:
    """Expected power variation of order ``r`` over ``[0, t]``.

    Every birth is observed once and every fleeting move also dies, so
    jumps arrive at rate ``(2 - b) ||nu||`` with sizes drawn from the
    (symmetrised) jump law; the expected sum of ``|jump|^r`` is
    ``(2 - b) t sum_y |y|^r nu(y)``.
    """
    t = _check_horizon(t)
    return (2.0 - params.b) * t * params.levy.abs_moment(r)


def expected_rv(params: ModelParams, span: float, n: int) -> float:
    """Expected realized variance from ``n`` equal windows over ``span``.

    ``n * (kappa_2 + kappa_1^2)`` with the return cumulants at window
    length ``span / n``: the squared-return bias from fleeting round trips
    plus the drift-squared term.
    """
    span = _check_horizon(span)
    if int(n) != n or n < 1:
        raise ValueError(f"window count must be a positive integer, got {n!r}")
    d = span / int(n)
    return int(n) * (return_cumulant(params, d, 2) + return_cumulant(params, d, 1) ** 2)
