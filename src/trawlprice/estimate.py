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
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize

from .model import LevyMeasure, ModelParams, TabulatedTrawl, TrawlFamily, TrawlSpec, _family_class
from .simulate import PricePath, _window_sums, realized_pv, simulate_path

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
        n, _, sums = _window_sums(path, delta)
        if n < 2:
            if drop_incompatible:
                warnings.warn(
                    f"dropping window length {delta!r}: fewer than 2 full windows", stacklevel=2
                )
                continue
            raise ValueError(f"window length {delta!r} admits fewer than 2 full windows")
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
    return replace(base, deltas=d, variances=v, counts=n)


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
# form and only the shape coordinates theta of the family's ``coords``
# table are searched, scale parameters on log scale.
_B_BOUNDS = (1e-6, 1.0)
_C_BOUNDS = (_B_BOUNDS[0] / (2.0 - _B_BOUNDS[0]), 1.0)

# grid points per axis, by the number of shape coordinates; the 1-D grid
# across the exponential's hard bounds has spacing 0.29 in log-lambda
_GRID_POINTS = 81
_GRID_POINTS_2D = 61
_GRID_POINTS_3D = 13

# the grid is evaluated in blocks of rows, which keeps its temporaries in
# cache; Nelder-Mead runs of a polish share one evaluation budget
_GRID_BLOCK = 256
_POLISH_RUNS = 3
_POLISH_MAXFEV = 40000


def _fit_family(name: str) -> type[TrawlFamily]:
    """The family class a signature fit searches, after the checks that
    :func:`fit_signature` and :func:`bootstrap` share."""
    cls = _family_class(name)
    if not cls.coords:
        raise ValueError(f"fits need a parametric family; {name!r} has no fit coordinates")
    return cls


def _search_space(cls: type[TrawlFamily]):
    """A family's fit bounds and grid box in search coordinates (log scale
    where the table says so)."""
    coords = cls.coords.values()
    bounds = tuple(tuple(map(math.log, c.bounds)) if c.log else c.bounds for c in coords)
    box = tuple(tuple(map(math.log, c.box)) if c.log else c.box for c in coords)
    return bounds, box


def _shape_fields(cls: type[TrawlFamily], theta: np.ndarray) -> list[np.ndarray]:
    """Constructor fields, one ``(rows, 1)`` column each, for rows of search
    coordinates.  Log coordinates go through libm's ``exp``: numpy's SIMD
    ``exp`` differs from it in the last bit for some arguments."""
    return [
        np.array([[math.exp(x)] for x in col]) if c.log else col[:, None]
        for c, col in zip(cls.coords.values(), theta.T)
    ]


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


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each summed as the 1-d ``x @ y`` sums it."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _project(g: np.ndarray, empirical: np.ndarray, s0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares ``c`` within its bounds for the curve at each row of
    profile ratios ``g`` (one row per shape).

    The objective is a quadratic in ``c``, so clipping the unconstrained
    projection gives the constrained minimum.  Returns ``(c, residuals,
    objective)``, one row or entry per shape, the residuals being
    ``empirical - curve``; a row with a non-finite ratio has objective inf.
    """
    u = s0 * (1.0 - g)
    a = empirical - s0 * g
    uu = _rowdot(u, u)  # finite exactly when the row's ratios are, short of overflow
    positive = uu > 0.0
    c = _rowdot(u, a) / np.where(positive, uu, 1.0)
    c = np.where(positive, np.minimum(np.maximum(c, _C_BOUNDS[0]), _C_BOUNDS[1]), 1.0)
    r = a - c[:, None] * u
    return c, r, np.where(np.isfinite(uu), _rowdot(r, r), np.inf)


def _grid_polish(objective, bounds, box):
    """Minimise a vectorised objective over rows of shape coordinates.

    The objective is evaluated on a grid spanning the box, a block of rows
    per call; a best point on an edge of the box that is not a hard bound
    re-grids once with that side pushed out to the bound.  The best grid
    point is polished within the bounds: one coordinate by bounded Brent
    inside its bracket, more by bounded Nelder-Mead, restarted where a run
    stops while that improves.  Returns the kept point, whether the last
    polish run converged, and the search's diagnostics.
    """
    dim = len(bounds)
    points = (_GRID_POINTS, _GRID_POINTS_2D, _GRID_POINTS_3D)[dim - 1]
    size, best = 0, None
    for _ in range(2):
        axes = [np.linspace(lo, hi, points) for lo, hi in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        values = np.concatenate([objective(grid[j : j + _GRID_BLOCK]) for j in range(0, len(grid), _GRID_BLOCK)])
        size += values.size
        i = int(np.argmin(values))
        where = np.unravel_index(i, (points,) * dim)
        if best is None or values[i] < best[0]:
            best = (values[i], axes, where)
        pushed = tuple(
            (blo if k == 0 else lo, bhi if k == points - 1 else hi)
            for (lo, hi), (blo, bhi), k in zip(box, bounds, where)
        )
        if pushed == box:
            break
        box = pushed
    value, axes, where = best
    x, fun = np.array([axis[k] for axis, k in zip(axes, where)]), value
    if dim == 1:
        axis, k = axes[0], where[0]
        bracket = (axis[max(k - 1, 0)], axis[min(k + 1, points - 1)])
        res = optimize.minimize_scalar(
            lambda t: objective(np.array([[t]]))[0], bounds=bracket, method="bounded", options={"xatol": 1e-10}
        )
        if res.fun < fun:
            x, fun = np.array([res.x]), res.fun
        name = "brent"
    else:
        # each run's first simplex spans one grid cell, inside the bounds; a
        # fresh one gets a run unstuck that collapsed against a bound or in
        # a curved valley.  fatol must sit above the objective's rounding
        # noise (~1e-16 relative) or the spread criterion is unreachable.
        cell = np.array([axis[1] - axis[0] for axis in axes])
        upper = np.array([hi for _, hi in bounds])
        budget = _POLISH_MAXFEV // _POLISH_RUNS
        for _ in range(_POLISH_RUNS):
            simplex = np.vstack([x, x + np.diag(np.where(x + cell > upper, -cell, cell))])
            options = {"initial_simplex": simplex, "xatol": 1e-11, "fatol": max(1e-24, 1e-12 * fun),
                       "maxfev": budget, "maxiter": budget}
            res = optimize.minimize(lambda t: objective(t[None])[0], x, method="Nelder-Mead", bounds=bounds,
                                    options=options)
            if not res.fun < fun:
                break
            x, fun = res.x, res.fun
        name = "nelder-mead"
    diagnostics = {
        "search": f"grid+{name}", "kept": name if fun < value else "grid", "message": str(res.message),
        "grid_size": size, "grid_objective": float(value),
    }
    return x, bool(res.success), diagnostics


def fit_signature(
    stats: EmpiricalStats,
    family: str = "exponential",
    n_starts: int = 20,
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
    the objective is evaluated on a grid of shapes spanning the family's
    box, many shapes per numpy call, then polished from the best grid
    point (bounded Brent for the exponential's one coordinate, bounded
    Nelder-Mead for the two of sup-gamma and the three of sup-gig).  The
    search is deterministic.

    The search coordinates, their bounds and the grid box come from the
    family's ``coords`` table; scale parameters are searched on log scale.
    ``n_starts`` is ignored but must still be an integer >= 1; it stays
    only because the benchmark's workloads and tests pass it.  Returns a
    :class:`FitResult` whose Levy measure is re-derived from the jump
    frequencies at the fitted ``b``, and whose ``fitted`` curve and
    ``objective`` are those of the kept shape; ``converged`` reports the
    polish.
    """
    if not (float(n_starts).is_integer() and n_starts >= 1):
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    cls = _fit_family(family)
    if stats.deltas.size < 3:
        raise ValueError("variance signature needs at least 3 grid points")
    bounds, box = _search_space(cls)
    deltas = stats.deltas
    empirical = stats.variances / deltas
    s0 = stats.second_moment_rate()
    nfev = 0

    def profile(theta: np.ndarray) -> np.ndarray:
        """Profile ratios ``g``, one row per row of search coordinates."""
        return cls._increment(deltas, *_shape_fields(cls, theta)) / deltas

    def objective(theta: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += len(theta)
        with np.errstate(all="ignore"):  # rejected or extreme shapes score inf
            return _project(profile(theta), empirical, s0)[2]

    # the grid and both polishes stay within the hard bounds
    theta, converged, diagnostics = _grid_polish(objective, bounds, box)
    shape = cls.from_params({key: f[0, 0] for key, f in zip(cls.coords, _shape_fields(cls, theta[None]))})
    cs, residuals, values = _project(profile(theta[None]), empirical, s0)
    c, value = float(cs[0]), float(values[0])
    b = min(max(2.0 * c / (1.0 + c), _B_BOUNDS[0]), _B_BOUNDS[1])
    flags = []
    for name, xi, (blo, bhi) in zip(("b", *cls.coords), (b, *theta), [_B_BOUNDS, *bounds]):
        width = bhi - blo
        if xi - blo <= 1e-9 * width or bhi - xi <= 1e-9 * width:
            flags.append(name)
    spec = TrawlSpec(b=b, family=shape)
    levy = levy_from_moments(stats.alpha, stats.beta[0.0], b)
    return FitResult(
        params=ModelParams(levy=levy, trawl=spec),
        objective=value,
        deltas=deltas.copy(),
        empirical=empirical,
        fitted=empirical - residuals[0],
        converged=converged and math.isfinite(value),
        boundary_flags=tuple(flags),
        diagnostics={**diagnostics, "nfev": nfev},
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
    (params, span, v0, family, seed, index, deltas, r_orders) = args
    rng = np.random.default_rng([seed, index])
    try:
        path = simulate_path(params, 0.0, span, v0, rng)
        stats = collect_stats(path, deltas, r_orders=r_orders, drop_incompatible=True)
        fit = fit_signature(stats, family=family)
    except ValueError as exc:
        return index, False, {}, str(exc)
    except Exception as exc:  # a failed replica must not abort the others
        return index, False, {}, f"{type(exc).__name__}: {exc}"
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
    n_workers: int | None = None,
) -> BootstrapResult:
    """Parametric bootstrap: simulate, re-estimate, summarise the spread.

    Each replica ``i`` runs on its own substream ``default_rng([seed, i])``
    so results are identical for any ``n_workers``; replicas that fail to
    converge or raise are excluded from the summary, counted, and listed
    with the reason in ``failures`` (``"<Type>: <text>"`` for exceptions
    other than ``ValueError``).
    """
    if int(n_paths) != n_paths or n_paths < 2:
        raise ValueError(f"need at least 2 replicas, got {n_paths!r}")
    if family is None:
        family = params.trawl.family.name
    _fit_family(family)
    if deltas is None:
        deltas = DEFAULT_GRID
    deltas = np.asarray(deltas, dtype=float)
    jobs = [
        (params, float(span), int(v0), family, int(seed), i, deltas, tuple(r_orders))
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
