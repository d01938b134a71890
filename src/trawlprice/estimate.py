"""Moment-based estimation from tick paths.

The estimation strategy uses only jump counts and a variance signature:

1. empirical jump-size frequencies ``alpha_y`` and power-variation rates
   ``beta_r`` identify the Levy measure up to the permanence parameter;
2. the variance of returns per unit time, as a function of the window
   length ``delta``, identifies ``b`` and the trawl profile, either by
   nonlinear least squares within a parametric family or nonparametrically
   from the variogram's slopes.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize

from .model import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    SupGigTrawl,
    TabulatedTrawl,
    TrawlFamily,
    TrawlSpec,
)
from .simulate import PricePath, realized_pv, simulate_path, window_index

__all__ = [
    "DEFAULT_GRID",
    "EmpiricalStats",
    "jump_empirics",
    "variance_grid",
    "collect_stats",
    "levy_from_moments",
    "FitResult",
    "fit_signature",
    "BootstrapResult",
    "bootstrap",
    "NonparametricTrawl",
    "nonparametric_trawl",
]

#: Window lengths (seconds) used by default for variance signatures:
#: 60 log-spaced points from a tenth of a second to a minute.
DEFAULT_GRID = np.geomspace(0.1, 60.0, 60)


@dataclass(frozen=True)
class EmpiricalStats:
    """Summary statistics feeding the moment estimators.

    Attributes
    ----------
    alpha : dict
        Empirical jump-size frequencies (sum to 1).
    beta : dict
        Power-variation rates ``sum |jump|^r / span`` keyed by order.
    deltas, variances, counts : ndarray
        Variance-signature grid: window length, sample variance of the
        returns over that window, and the number of windows used.
    span : float
        Observation span behind the statistics.
    n_events : int
    """

    alpha: dict
    beta: dict
    deltas: np.ndarray
    variances: np.ndarray
    counts: np.ndarray
    span: float
    n_events: int

    def second_moment_rate(self) -> float:
        """``sum_y y^2 alpha_y * beta_0``: the squared-tick arrival rate."""
        b0 = self.beta.get(0.0)
        if b0 is None:
            raise ValueError("beta_0 missing from empirical statistics")
        return float(sum(y * y * a for y, a in self.alpha.items()) * b0)


def jump_empirics(path: PricePath, r_orders: Sequence[float] = (0.0, 1.0, 2.0)) -> EmpiricalStats:
    """Count jump-size frequencies and power-variation rates for a path.

    The order-0 rate (events per unit time) is always included since every
    downstream estimator needs it.
    """
    if path.n_events == 0:
        raise ValueError("path has no events; nothing to estimate from")
    sizes, counts = np.unique(path.jumps, return_counts=True)
    alpha = {int(y): c / path.n_events for y, c in zip(sizes, counts)}
    orders = sorted({0.0} | {float(r) for r in r_orders})
    beta = {r: realized_pv(path, r) / path.span for r in orders}
    empty = np.empty(0)
    return EmpiricalStats(
        alpha=alpha,
        beta=beta,
        deltas=empty,
        variances=empty.copy(),
        counts=np.empty(0, dtype=np.int64),
        span=path.span,
        n_events=path.n_events,
    )


def variance_grid(
    path: PricePath, deltas, drop_incompatible: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample variance of non-overlapping returns for each window length.

    For each ``delta`` the path is cut into ``floor(span/delta)`` windows
    anchored at ``t_start``, with the boundary rule of
    :func:`~trawlprice.simulate.window_index`, and the sample variance
    (denominator ``n-1``) of the integer returns is computed.  Only the
    windows holding events are summed, so time and memory scale with the
    number of events, not with ``span/delta``.  Window lengths admitting
    fewer than two full windows are rejected, or dropped with a warning
    when ``drop_incompatible`` is set.

    Returns
    -------
    (deltas, variances, counts) : ndarrays
    """
    d_arr = np.asarray(deltas, dtype=float)
    if d_arr.ndim != 1 or d_arr.size == 0:
        raise ValueError("need a nonempty 1-d array of window lengths")
    if not np.all(np.isfinite(d_arr)) or np.any(d_arr <= 0.0):
        raise ValueError("window lengths must be finite and > 0")
    if np.any(np.diff(d_arr) <= 0.0):
        raise ValueError("window lengths must be strictly increasing")
    out_d, out_v, out_n = [], [], []
    for delta in d_arr:
        n = int(math.floor(path.span / delta))
        if n < 2:
            if drop_incompatible:
                warnings.warn(
                    f"dropping window length {delta!r}: fewer than 2 full windows", stacklevel=2
                )
                continue
            raise ValueError(f"window length {delta!r} admits fewer than 2 full windows")
        k = window_index(path.times, path.t_start, delta)
        m = int(np.searchsorted(k, n, side="right"))  # events in full windows
        k = k[:m]
        sums = np.add.reduceat(path.jumps[:m], np.flatnonzero(np.diff(k, prepend=0)))
        # integer sums keep n*sum(r^2) - (sum r)^2 exact; one rounding at the end
        total, squares = int(sums.sum()), int(np.dot(sums, sums))
        out_d.append(delta)
        out_v.append((n * squares - total * total) / (n * (n - 1)))
        out_n.append(n)
    if not out_d:
        raise ValueError("no compatible window lengths remain")
    return np.asarray(out_d), np.asarray(out_v), np.asarray(out_n, dtype=np.int64)


def collect_stats(
    path: PricePath,
    deltas=None,
    r_orders: Sequence[float] = (0.0, 1.0, 2.0),
    drop_incompatible: bool = True,
) -> EmpiricalStats:
    """Jump empirics plus variance signature in one EmpiricalStats."""
    if deltas is None:
        deltas = DEFAULT_GRID
    base = jump_empirics(path, r_orders)
    d, v, n = variance_grid(path, deltas, drop_incompatible=drop_incompatible)
    return EmpiricalStats(
        alpha=base.alpha,
        beta=base.beta,
        deltas=d,
        variances=v,
        counts=n,
        span=base.span,
        n_events=base.n_events,
    )


def levy_from_moments(alpha: Mapping[int, float], beta0: float, b: float) -> LevyMeasure:
    """Invert jump frequencies into Levy intensities for a given ``b``.

    Observed moves of size ``y`` mix births of ``+y`` with deaths of
    fleeting ``-y`` moves, so
    ``nu(y) = (alpha_y - (1-b) alpha_{-y}) * beta_0 / ((2-b) b)``.
    Sampling noise can push one side of a pair negative; it is then
    truncated to zero with the pair's total intensity preserved.
    """
    b = float(b)
    beta0 = float(beta0)
    if not (0.0 < b <= 1.0):
        raise ValueError(f"permanence parameter must lie in (0, 1], got {b!r}")
    if not (math.isfinite(beta0) and beta0 > 0.0):
        raise ValueError(f"event rate beta_0 must be finite and > 0, got {beta0!r}")
    a = {int(y): float(p) for y, p in alpha.items()}
    if any(p < 0.0 or not math.isfinite(p) for p in a.values()) or any(y == 0 for y in a):
        raise ValueError("frequencies must be finite, nonnegative, and keyed by nonzero sizes")
    total = sum(a.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"frequencies must sum to 1, got {total!r}")
    intensities: dict[int, float] = {}
    for y in sorted({abs(y) for y in a}):
        ap, am = a.get(y, 0.0), a.get(-y, 0.0)
        raw_p = (ap - (1.0 - b) * am) * beta0 / ((2.0 - b) * b)
        raw_m = (am - (1.0 - b) * ap) * beta0 / ((2.0 - b) * b)
        pair_total = (ap + am) * beta0 / (2.0 - b)
        if raw_p < 0.0:
            raw_p, raw_m = 0.0, pair_total
        elif raw_m < 0.0:
            raw_p, raw_m = pair_total, 0.0
        if raw_p > 0.0:
            intensities[y] = raw_p
        if raw_m > 0.0:
            intensities[-y] = raw_m
    return LevyMeasure(intensities)


# ---------------------------------------------------------------------------
# Variance-signature NLS
# ---------------------------------------------------------------------------

# The model curve is linear in c = b/(2-b), so b is profiled out in closed
# form and only the shape coordinates theta are searched.  Scale-like shape
# parameters are searched on log scale.
_B_BOUNDS = (1e-6, 1.0)
_C_BOUNDS = (_B_BOUNDS[0] / (2.0 - _B_BOUNDS[0]), 1.0)

# family -> (shape names, hard bounds, multi-start box); the exponential
# family's single coordinate is searched by grid and Brent, without starts
_FAMILY_COORDS = {
    "exponential": (("lambda",), [(math.log(1e-5), math.log(1e5))], None),
    "sup-gamma": (
        ("alpha", "H"),
        [(math.log(1e-5), math.log(1e5)), (1.0, 50.0)],
        [(math.log(0.01), math.log(100.0)), (1.01, 5.0)],
    ),
    "sup-gig": (
        ("gamma", "delta", "nu"),
        [(0.0, 50.0), (math.log(1e-5), math.log(1e5)), (-10.0, 10.0)],
        [(0.0, 3.0), (math.log(0.01), math.log(100.0)), (-3.0, 3.0)],
    ),
}

# log-spaced bracketing grid for the 1-D search: spacing 0.29 in log-lambda
_GRID_POINTS = 81


def _build_family(family: str, theta) -> TrawlFamily:
    if family == "exponential":
        return ExponentialTrawl(lam=math.exp(theta[0]))
    if family == "sup-gamma":
        return SupGammaTrawl(alpha=math.exp(theta[0]), H=theta[1])
    return SupGigTrawl(gamma=theta[0], delta_gig=math.exp(theta[1]), order=theta[2])


@dataclass(frozen=True)
class FitResult:
    """Outcome of a variance-signature fit.

    ``empirical`` and ``fitted`` are per-unit-time variances
    (``variance / delta``) on the ``deltas`` grid; ``boundary_flags``
    names parameters pinned at a constraint; ``diagnostics`` records the
    search used, its objective evaluations (``nfev``), the run kept and
    the optimiser's stop message; ``se`` is filled in by
    :func:`bootstrap` when requested.
    """

    params: ModelParams
    objective: float
    deltas: np.ndarray
    empirical: np.ndarray
    fitted: np.ndarray
    converged: bool
    boundary_flags: tuple[str, ...]
    diagnostics: dict
    se: dict | None = None

    def to_dict(self) -> dict:
        out = self.params.to_dict()
        out["objective"] = self.objective
        out["converged"] = self.converged
        out["boundary_flags"] = list(self.boundary_flags)
        out["diagnostics"] = self.diagnostics
        out["se"] = self.se
        return out


def _signature_model(spec: TrawlSpec, deltas: np.ndarray, s0: float) -> np.ndarray:
    """Model variance per unit time on the grid for second-moment rate s0.

    ``s0 * (g + c (1 - g))`` with ``g = increment(delta) / delta`` of the
    unsquashed profile and ``c = b / (2 - b)``.
    """
    g = np.asarray(spec.family.increment(deltas)) / deltas
    c = spec.b / (2.0 - spec.b)
    return s0 * (g + c * (1.0 - g))


def _project(g: np.ndarray, empirical: np.ndarray, s0: float) -> tuple[float, float]:
    """Least-squares ``c`` within its bounds for the curve at profile ratio ``g``.

    The objective is a quadratic in ``c``, so clipping the unconstrained
    projection gives the constrained minimum.  Returns ``(c, objective)``.
    """
    u = s0 * (1.0 - g)
    a = empirical - s0 * g
    uu = float(u @ u)
    c = min(max(float(u @ a) / uu, _C_BOUNDS[0]), _C_BOUNDS[1]) if uu > 0.0 else 1.0
    r = a - c * u
    return c, float(r @ r)


def _grid_brent(objective, lo: float, hi: float):
    """Minimise a 1-D objective: log-spaced grid, then bounded Brent in the
    best point's bracket.  Grid points include both bounds, so a minimum
    pinned at a bound is found exactly."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = np.array([objective((x,)) for x in grid])
    i = int(np.argmin(values))
    res = optimize.minimize_scalar(
        lambda x: objective((x,)),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if res.fun < values[i]:
        return np.array([res.x]), bool(res.success), "brent", str(res.message)
    return grid[i : i + 1], bool(res.success), "grid", str(res.message)


def _multistart(objective, bounds, start_box, n_starts: int, seed: int):
    """Nelder-Mead from a Latin hypercube of starts, then a polish of the winner."""
    from scipy.stats import qmc  # importing scipy.stats costs ~0.5 s; only this search needs it

    sampler = qmc.LatinHypercube(d=len(bounds), seed=seed)
    lo, hi = np.array(start_box).T
    starts = lo + sampler.random(n=n_starts) * (hi - lo)
    best, kept = None, None
    for j, x0 in enumerate(starts):
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-6, "fatol": 1e-12, "maxfev": 3000, "maxiter": 3000},
        )
        if best is None or res.fun < best.fun:
            best, kept = res, f"start {j}"
    # fatol must sit above the objective's own rounding noise (~1e-16
    # relative) or the spread criterion is unreachable
    polish = optimize.minimize(
        objective,
        best.x,
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "xatol": 1e-11,
            "fatol": max(1e-24, 1e-12 * best.fun),
            "maxfev": 40000,
            "maxiter": 40000,
        },
    )
    if polish.fun <= best.fun:
        best, kept = polish, "polish"
    return best.x, bool(best.success), kept, str(best.message)


def fit_signature(
    stats: EmpiricalStats,
    family: str = "exponential",
    n_starts: int = 20,
    seed: int = 0,
) -> FitResult:
    """Fit ``b`` and a trawl family to the empirical variance signature.

    Minimises the sum of squared deviations between the empirical variance
    per unit time and the model curve

        sigma^2(delta)/delta = s0 * (g(delta) + c * (1 - g(delta))),
        g(delta) = inc(delta) / delta,  c = b / (2 - b),

    with ``s0`` pinned to its moment estimate and ``inc`` the increment
    of the unsquashed profile.  The curve is linear in ``c``, so for each
    shape vector the best ``c`` is a closed-form projection clipped to the
    bounds of ``b`` (variable projection), and only the shape is searched:

    - exponential: log-lambda over a log-spaced bracketing grid across the
      hard bounds, then bounded Brent inside the best bracket;
    - sup-gamma and sup-gig: Nelder-Mead from a Latin hypercube of
      ``n_starts`` starting points (deterministic for a given ``seed``),
      then a polish of the winner.  ``n_starts`` and ``seed`` are ignored
      for the exponential family.

    Scale parameters are searched on log scale.  Returns a
    :class:`FitResult` whose Levy measure is re-derived from the jump
    frequencies at the fitted ``b``; ``converged`` reports the search run
    that produced the kept point.
    """
    if family not in _FAMILY_COORDS:
        raise ValueError(f"unknown trawl family {family!r}; expected one of {sorted(_FAMILY_COORDS)}")
    if stats.deltas.size < 3:
        raise ValueError("variance signature needs at least 3 grid points")
    names, bounds, start_box = _FAMILY_COORDS[family]
    deltas = stats.deltas
    empirical = stats.variances / deltas
    s0 = stats.second_moment_rate()
    nfev = 0

    def objective(theta) -> float:
        nonlocal nfev
        nfev += 1
        try:
            g = np.asarray(_build_family(family, theta).increment(deltas)) / deltas
        except (ValueError, OverflowError):
            return np.inf
        if not np.all(np.isfinite(g)):
            return np.inf
        return _project(g, empirical, s0)[1]

    if start_box is None:
        theta, converged, kept, message = _grid_brent(objective, *bounds[0])
        search = "grid+brent"
    else:
        theta, converged, kept, message = _multistart(objective, bounds, start_box, n_starts, seed)
        search = "multistart-nelder-mead"

    theta = np.clip(theta, [lo for lo, _ in bounds], [hi for _, hi in bounds])
    shape = _build_family(family, theta)
    c, _ = _project(np.asarray(shape.increment(deltas)) / deltas, empirical, s0)
    b = min(max(2.0 * c / (1.0 + c), _B_BOUNDS[0]), _B_BOUNDS[1])
    flags = []
    for name, xi, (blo, bhi) in zip(("b", *names), (b, *theta), [_B_BOUNDS, *bounds]):
        width = bhi - blo
        if xi - blo <= 1e-9 * width or bhi - xi <= 1e-9 * width:
            flags.append(name)
    spec = TrawlSpec(b=b, family=shape)
    levy = levy_from_moments(stats.alpha, stats.beta[0.0], b)
    fitted = _signature_model(spec, deltas, s0)
    value = float(np.sum((fitted - empirical) ** 2))
    return FitResult(
        params=ModelParams(levy=levy, trawl=spec),
        objective=value,
        deltas=deltas.copy(),
        empirical=empirical,
        fitted=fitted,
        converged=converged and math.isfinite(value),
        boundary_flags=tuple(flags),
        diagnostics={"search": search, "nfev": nfev, "kept": kept, "message": message},
    )


def _flatten_estimates(result: FitResult) -> dict[str, float]:
    """Parameter map for a fit: b, per-size intensities, family params."""
    out = {"b": result.params.b}
    for y, rate in result.params.levy.as_dict().items():
        out[f"nu({y:+d})"] = rate
    for key, val in result.params.trawl.family.params().items():
        out[key] = float(val)
    return out


def _bootstrap_one(args) -> tuple[int, bool, dict[str, float], str | None]:
    (params, span, v0, family, seed, index, deltas, r_orders, n_starts) = args
    rng = np.random.default_rng([seed, index])
    path = simulate_path(params, 0.0, span, v0, rng)
    try:
        stats = collect_stats(path, deltas, r_orders=r_orders, drop_incompatible=True)
        fit = fit_signature(stats, family=family, n_starts=n_starts, seed=seed)
    except ValueError as exc:
        return index, False, {}, str(exc)
    if not fit.converged:
        return index, False, {}, f"fit did not converge: {fit.diagnostics['message']}"
    return index, True, _flatten_estimates(fit), None


@dataclass(frozen=True)
class BootstrapResult:
    """Monte Carlo re-estimation summary.

    ``estimates[i]`` is the parameter vector fitted on replica ``i``
    (NaN where the fit failed); ``se``/``means`` summarise the converged
    replicas with denominator ``n-1``; ``failures`` pairs each failed
    replica's index with its reason.
    """

    names: tuple[str, ...]
    estimates: np.ndarray
    converged: np.ndarray
    se: dict
    means: dict
    n_nonconverged: int
    seed: int
    failures: tuple[tuple[int, str], ...]

    @property
    def n_paths(self) -> int:
        return int(self.estimates.shape[0])


def bootstrap(
    params: ModelParams,
    span: float,
    v0: int,
    n_paths: int,
    family: str | None = None,
    seed: int = 0,
    deltas=None,
    r_orders: Sequence[float] = (0.0, 1.0, 2.0),
    n_starts: int = 20,
    n_workers: int | None = None,
) -> BootstrapResult:
    """Parametric bootstrap: simulate, re-estimate, summarise the spread.

    Each replica ``i`` runs on its own substream ``default_rng([seed, i])``
    so results are identical for any ``n_workers``; replicas that fail to
    converge are excluded from the summary, counted, and listed with the
    reason in ``failures``.  ``n_starts`` and ``seed`` also drive the
    multi-start fits of the sup-gamma and sup-gig families.
    """
    if int(n_paths) != n_paths or n_paths < 2:
        raise ValueError(f"need at least 2 replicas, got {n_paths!r}")
    if family is None:
        family = params.trawl.family.name
    if family == "tabulated":
        raise ValueError("bootstrap refits need a parametric family")
    if deltas is None:
        deltas = DEFAULT_GRID
    deltas = np.asarray(deltas, dtype=float)
    jobs = [
        (params, float(span), int(v0), family, int(seed), i, deltas, tuple(r_orders), int(n_starts))
        for i in range(int(n_paths))
    ]
    if n_workers is not None and n_workers > 1:
        with ProcessPoolExecutor(max_workers=int(n_workers)) as pool:
            raw = list(pool.map(_bootstrap_one, jobs, chunksize=max(1, n_paths // (4 * n_workers))))
    else:
        raw = [_bootstrap_one(job) for job in jobs]
    raw.sort(key=lambda item: item[0])

    names = sorted({k for _, ok, est, _ in raw if ok for k in est}, key=lambda n: (n != "b", n))
    table = np.full((len(raw), len(names)), np.nan)
    converged = np.zeros(len(raw), dtype=bool)
    for i, (_, ok, est, _) in enumerate(raw):
        converged[i] = ok
        if ok:
            table[i] = [est.get(name, 0.0) for name in names]
    failures = tuple((i, reason) for i, _, _, reason in raw if reason is not None)
    good = table[converged]
    if good.shape[0] < 2:
        counts = Counter(reason for _, reason in failures)
        why = "; ".join(f"{n}x {reason}" for reason, n in counts.most_common())
        raise RuntimeError(
            f"only {good.shape[0]} of {n_paths} replicas converged; cannot summarise (failures: {why})"
        )
    se = {name: float(np.std(good[:, j], ddof=1)) for j, name in enumerate(names)}
    means = {name: float(np.mean(good[:, j])) for j, name in enumerate(names)}
    return BootstrapResult(
        names=tuple(names),
        estimates=table,
        converged=converged,
        se=se,
        means=means,
        n_nonconverged=int(len(raw) - converged.sum()),
        seed=int(seed),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Nonparametric trawl recovery from the variogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonparametricTrawl:
    """Model-free permanence and profile estimates from a variance grid."""

    b: float
    deltas: np.ndarray
    d_tilde: np.ndarray
    s0: float
    s_inf: float

    def to_trawl_spec(self) -> TrawlSpec:
        """Package the profile as a tabulated trawl (knot added at lag 0)."""
        s = np.concatenate([-self.deltas[::-1], [0.0]])
        d = np.concatenate([self.d_tilde[::-1], [1.0]])
        return TrawlSpec(b=self.b, family=TabulatedTrawl(s, d))


def nonparametric_trawl(stats: EmpiricalStats) -> NonparametricTrawl:
    """Recover ``b`` and the trawl profile from variogram slopes.

    The variogram ``sigma^2(delta)`` has slope
    ``(s0 - (s0 - s_inf) (1 - d_tilde(-delta)))`` ... equivalently the
    local slope interpolates between ``s0`` at 0 and
    ``s_inf = b s0 / (2-b)`` at infinity, with the profile as the
    normalised excess:

        d_tilde(-delta) = (slope(delta) - s_inf) / (s0 - s_inf)

    Slopes are local-linear fits over 3-point windows; ``s_inf`` is the
    least-squares slope over the top quartile of the grid.  A flat
    signature (pure permanent model) degenerates to ``b = 1`` with a unit
    profile.
    """
    n = stats.deltas.size
    if n < 8:
        raise ValueError("need at least 8 variance-grid points")
    if stats.deltas.max() / stats.deltas.min() < 10.0:
        raise ValueError("variance grid must span at least one decade")
    order = np.argsort(stats.deltas)
    d = stats.deltas[order]
    v = stats.variances[order]
    s0 = stats.second_moment_rate()

    slopes = np.empty(n)
    for i in range(n):
        j0, j1 = max(0, i - 1), min(n, i + 2)
        slopes[i] = np.polyfit(d[j0:j1], v[j0:j1], 1)[0]
    tail = slice(3 * n // 4, n)
    s_inf = float(np.polyfit(d[tail], v[tail], 1)[0])

    if s0 - s_inf <= 1e-10 * abs(s0):
        return NonparametricTrawl(b=1.0, deltas=d, d_tilde=np.ones(n), s0=s0, s_inf=s_inf)
    b = float(np.clip(2.0 * s_inf / (s0 + s_inf), 0.0, 1.0))
    profile = np.clip((slopes - s_inf) / (s0 - s_inf), 0.0, 1.0)
    profile = np.minimum.accumulate(profile)
    return NonparametricTrawl(b=b, deltas=d, d_tilde=profile, s0=s0, s_inf=s_inf)
