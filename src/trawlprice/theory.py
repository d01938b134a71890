"""Closed-form return distribution theory for squashed-trawl price models.

A return over a window of length ``t`` decomposes into three independent
compound-Poisson pieces: permanent moves born inside the window (mean
measure ``b * t * nu``) and two fleeting pieces of opposite sign with mean
measure ``increment(t) * nu`` each, coming from fleeting moves that enter
or exit the window.  Every quantity here is a direct consequence of that
decomposition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import LevyMeasure, ModelParams, _integer_or_none, _real, _whole

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
    return _real(t, "horizon must be finite and > 0", above=0.0)


def return_cumulant(params: ModelParams, t: float, j: int) -> float:
    """j-th cumulant of the return ``P_t - P_0``.

    Odd cumulants see only the permanent part, ``b * t * kappa_j``; the two
    fleeting pieces have opposite signs and cancel.  Even cumulants add the
    fleeting contribution twice: ``(b * t + 2 * increment(t)) * kappa_j``.
    """
    t = _check_horizon(t)
    j = _whole(j, "cumulant order must be a positive integer", 1)
    kj = params.levy.cumulant(j)
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
    val = _log_cf(params, t, params.trawl.increment(t), theta)
    if np.ndim(theta) == 0:
        return complex(val)
    return val


def _log_cf(params: ModelParams, t: float, inc: float, theta) -> np.ndarray:
    """:func:`return_log_cf` as an array, given ``inc = increment(t)``."""
    c_plus = _base_log_cf(params.levy, theta)
    # C(theta) + C(-theta) is twice the (negative) real part
    return params.b * t * c_plus + inc * 2.0 * c_plus.real


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
        Bound on the mass of the return outside the support, which the
        discrete inversion wraps onto it: the larger of the sum of the
        Chernoff bounds on the two tails at ``+-(m + 1)`` and
        ``|1 - sum(probabilities)|``.  It is at most 1e-10 on the automatic
        grid and can reach 1 on a grid too small for the law.
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
        j = _whole(j, "moment order must be a positive integer", 1)
        m = self.mean()
        return float(np.sum((self.support - m) ** j * self.probabilities))

    def prob(self, y: int) -> float:
        """``P(return = y)``: 0.0 off the support, a finite non-integer ``y`` included."""
        y, m = _integer_or_none(y), int(self.support[-1])
        if y is not None and -m <= y <= m:
            return float(self.probabilities[y + m])
        return 0.0


@functools.lru_cache(maxsize=64)
def _chernoff_points(hi: float) -> np.ndarray:
    """The points ``u`` of :func:`_chernoff`: 400 geometric on ``[1e-3, hi]``.

    Read-only, as every call with the same ``hi`` shares the array.
    """
    u = np.geomspace(1e-3, hi, 400)
    u.flags.writeable = False
    return u


def _chernoff(params: ModelParams, t: float, inc: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points ``u`` and, for the upper tail (row 0) and the lower tail (row
    1) of the return ``R = P_t - P_0``, the log-MGF ``psi`` of ``+-R`` at
    ``u`` and ``log(psi'^2 + psi'')``, given ``inc = increment(t)``.

    ``psi[0]`` is ``b t sum_y nu(y) (e^{uy} - 1) + increment(t) sum_y nu(y)
    (e^{uy} + e^{-uy} - 2)``, the permanent piece plus the two fleeting
    pieces of opposite sign, and ``psi[1]`` is the same at ``-u``.  So
    ``P(+-R >= k) <= exp(min_u(psi - u k))``, and as ``E[R^2 e^{+-uR}]`` is
    ``e^psi (psi'^2 + psi'')``, ``E[R^2; +-R >= k]`` is at most
    ``exp(min_u(psi + log(psi'^2 + psi'') - u k))``.
    """
    levy = params.levy
    # axes: jump size, tail (y, then -y), point u; the sums run over sizes
    y = np.stack([levy.sizes, -levy.sizes], axis=1).astype(float)[:, :, None]
    u = _chernoff_points(min(200.0 / float(np.abs(y).max()), 50.0))
    rates = levy.rates[:, None, None]
    bt = params.b * t
    e_plus = np.exp(y * u)
    e_minus = e_plus[:, ::-1]  # e^{-uy}: the two tails swapped
    psi = np.sum(rates * (bt * (e_plus - 1.0) + inc * (e_plus + e_minus - 2.0)), axis=0)
    d1 = np.sum(rates * y * (bt * e_plus + inc * (e_plus - e_minus)), axis=0)
    d2 = np.sum(rates * y * y * (bt * e_plus + inc * (e_plus + e_minus)), axis=0)
    return u, psi, np.log(d1 * d1 + d2)


def _auto_points(params: ModelParams, u: np.ndarray, psi: np.ndarray, log_m2: np.ndarray) -> int:
    """Smallest even grid size whose Chernoff bound on each tail's share of
    the second moment, ``E[R^2; +-R >= m + 1]``, is below 5e-11.

    Where ``|R| >= 1``, ``R^2 >= 1``, so the mass outside the support is
    below 1e-10 too, and the pmf's moments keep that mass's weight.
    """
    # each log bound min_u(psi_u + log_m2_u - u k) falls as k grows, and is
    # below log(5e-11) exactly from the least cutoff (psi_u + log_m2_u -
    # log(5e-11)) / u on
    cutoff = float(np.max(np.min((psi + log_m2 - math.log(5e-11)) / u, axis=1)))
    if not cutoff <= 2**26:  # pragma: no cover - absurd intensity guard
        raise ValueError("return distribution too spread out for FFT inversion")
    return 2 * max(math.ceil(cutoff), int(np.abs(params.levy.sizes).max()) + 1)


def return_pmf(params: ModelParams, t: float, n_points: int | None = None) -> PmfResult:
    """Exact pmf of the integer return ``P_t - P_0`` by CF inversion.

    One discrete Fourier inversion of the characteristic function on
    ``n_points`` angles gives the law wrapped modulo ``n_points``; choosing
    the grid large enough (automatic when ``n_points`` is omitted) makes
    the wrapping error, bounded by ``aliasing_bound``, negligible.
    """
    t = _check_horizon(t)
    inc = params.trawl.increment(t)
    u, psi, log_m2 = _chernoff(params, t, inc)
    if n_points is None:
        n = _auto_points(params, u, psi, log_m2)
    else:
        n = _whole(n_points, "n_points must be an even integer >= 4", 4)
        if n % 2 != 0:
            raise ValueError(f"n_points must be an even integer >= 4, got {n_points!r}")
        if n // 2 <= int(np.abs(params.levy.sizes).max()):
            raise ValueError("n_points too small to cover single-jump support")
    theta = 2.0 * np.pi * np.arange(n) / n
    phi = np.exp(_log_cf(params, t, inc, theta))
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
    # P(|P_t - P_0| >= m + 1): the two tails' Chernoff bounds summed, capped at 1
    tail = min(1.0, float(np.sum(np.exp(np.minimum(0.0, np.min(psi - u * (m + 1), axis=1))))))
    bound = max(abs(1.0 - raw_sum), abs(1.0 - float(probs.sum())), tail)
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
    k_max = _whole(k_max, "k_max must be a positive integer", 1)
    k = np.arange(0, k_max + 2)
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
    n = _whole(n, "window count must be a positive integer", 1)
    d = span / n
    return n * (return_cumulant(params, d, 2) + return_cumulant(params, d, 1) ** 2)
