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
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from .model import (
    LevyMeasure, ModelParams, TabulatedTrawl, TrawlFamily, TrawlSpec, _family_class, _real, _reals, _whole, sps,
)
from .simulate import PricePath, _running_move, _window_sums, realized_pv, simulate_path

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

#: Window lengths (seconds) used by default for variance signatures: 60
#: log-spaced points from exactly 0.1 s to exactly 60 s (the CLI reads them back).
DEFAULT_GRID = np.geomspace(0.1, 60.0, 60)


@dataclass(frozen=True)
class EmpiricalStats:
    """Summary statistics feeding the moment estimators.

    Attributes
    ----------
    alpha : dict
        Empirical jump-size frequencies (sum to 1).
    beta : dict
        Power-variation rates ``sum |jump|^r / span`` keyed by the orders 0, 1 and 2.
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


def jump_empirics(path: PricePath) -> EmpiricalStats:
    """Count jump-size frequencies and power-variation rates for a path.

    ``beta`` holds the orders 0, 1 and 2; any other order is
    ``realized_pv(path, r) / path.span``.
    """
    if path.n_events == 0:
        raise ValueError("path has no events; nothing to estimate from")
    sizes, counts = np.unique(path.jumps, return_counts=True)
    alpha = {int(y): c / path.n_events for y, c in zip(sizes, counts)}
    beta = {r: realized_pv(path, r) / path.span for r in (0.0, 1.0, 2.0)}
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


def variance_grid(path: PricePath, deltas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample variance of non-overlapping returns for each window length.

    For each ``delta`` the path is cut into ``floor(span/delta)`` windows
    anchored at ``t_start``, with the boundary rule of
    :func:`~trawlprice.simulate.window_index`, and the sample variance
    (denominator ``n-1``) of the integer returns is computed.  The running
    price move is summed once per path, and one scratch buffer of event
    length holds each length's window indices in turn.  A window's return
    is the running move at its last event less that at the previous
    window's last event, so the returns telescope: with ``x`` the running
    move at the window-final events, their total is ``x[-1]`` and their sum
    of squares is ``x[0]**2 + dx.dx`` with ``dx = x[1:] - x[:-1]``, and no
    array of returns is built.  Time and memory per length scale with the
    number of events, not with ``span/delta``.  A window length admitting
    fewer than two full windows is dropped with a warning; a
    ``ValueError`` is raised when no length remains.

    Returns
    -------
    (deltas, variances, counts) : ndarrays
    """
    d_arr = _reals(deltas, "window lengths must be finite and > 0", above=0.0)
    if d_arr.ndim != 1 or d_arr.size == 0:
        raise ValueError("need a nonempty 1-d array of window lengths")
    if np.any(np.diff(d_arr) <= 0.0):
        raise ValueError("window lengths must be strictly increasing")
    rel, csum = _running_move(path)
    k, span = np.empty_like(rel), path.span
    # every window sum is a difference of two values in {0} u csum, so at
    # most `reach` in size; below the bound no int64 sum of squares wraps
    reach = int(np.max(csum, initial=0)) - int(np.min(csum, initial=0))
    int64_squares = reach * reach * path.n_events < 2**63
    out_d, out_v, out_n = [], [], []
    for delta in d_arr.tolist():
        n, _, x = _window_sums(rel, csum, k, span, delta)
        if n < 2:
            warnings.warn(f"dropping window length {delta}: fewer than 2 full windows", stacklevel=2)
            continue
        # integer sums keep n*sum(r^2) - (sum r)^2 exact; one rounding at the end
        if int64_squares and x.size:
            dx = x[1:] - x[:-1]
            total, squares = int(x[-1]), int(x[0]) ** 2 + int(dx.dot(dx))
        else:  # Python ints cannot wrap; no window-final event gives no returns
            returns = np.diff(x, prepend=0).tolist()
            total, squares = sum(returns), sum(r * r for r in returns)
        out_d.append(delta)
        out_v.append((n * squares - total * total) / (n * (n - 1)))
        out_n.append(n)
    if not out_d:
        raise ValueError("no compatible window lengths remain: each admits fewer than 2 full windows")
    return np.asarray(out_d), np.asarray(out_v), np.asarray(out_n, dtype=np.int64)


def collect_stats(path: PricePath, deltas=None) -> EmpiricalStats:
    """Jump empirics plus the :func:`variance_grid` signature, on :data:`DEFAULT_GRID` by default."""
    if deltas is None:
        deltas = DEFAULT_GRID
    base = jump_empirics(path)
    d, v, n = variance_grid(path, deltas)
    return replace(base, deltas=d, variances=v, counts=n)


def levy_from_moments(alpha: Mapping[int, float], beta0: float, b: float) -> LevyMeasure:
    """Invert jump frequencies into Levy intensities for a given ``b``.

    Observed moves of size ``y`` mix births of ``+y`` with deaths of
    fleeting ``-y`` moves, so
    ``nu(y) = (alpha_y - (1-b) alpha_{-y}) * beta_0 / ((2-b) b)``.
    Sampling noise can push one side of a pair negative; it is then
    truncated to zero with the pair's total intensity preserved.
    """
    b = _real(b, "permanence parameter must lie in (0, 1]", high=1.0, above=0.0)
    beta0 = _real(beta0, "event rate beta_0 must be finite and > 0", above=0.0)
    need = "frequencies must be finite, nonnegative, and keyed by nonzero sizes"
    a = {_whole(y, "frequencies must be keyed by nonzero integer sizes"): _real(p, need, 0.0) for y, p in alpha.items()}
    if any(y == 0 for y in a):
        raise ValueError(need)
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

# a grid's profile rows depend only on the family, the window lengths and the
# grid's points, never on the data, so each process keeps them for its later
# fits; past this many bytes the least recently used go first (a sup-gamma
# grid on the 60 default lengths holds 1.8 MB, a sup-gig grid 1.1 MB, and a
# heavy-tail study's grids and re-grids 3.9 MB together)
_GRID_CACHE_BYTES = 8 << 20
_grid_cache: dict[tuple, np.ndarray] = {}
_grid_cache_lock = threading.Lock()


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


def _profile(cls: type[TrawlFamily], deltas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Profile ratios ``g = increment(delta)/delta``, one row per row of search coordinates."""
    return cls._increment(deltas, *_shape_fields(cls, theta)) / deltas


def _one_shape(cls: type[TrawlFamily], theta) -> list[float]:
    """Constructor fields of one point of search coordinates, as floats made
    as :func:`_shape_fields` makes each row's."""
    return [math.exp(x) if c.log else float(x) for c, x in zip(cls.coords.values(), theta)]


def _grid_blocks(cls: type[TrawlFamily], deltas: np.ndarray, grid: np.ndarray):
    """The profile rows of a grid, ``_GRID_BLOCK`` rows at a time.

    The rows of a grid are computed once per process and kept read-only in
    ``_grid_cache``, keyed on the family, the window lengths and the grid's
    points; a grid whose rows exceed ``_GRID_CACHE_BYTES`` on their own is
    computed block by block and not kept.
    """
    starts = range(0, len(grid), _GRID_BLOCK)
    key = (cls, deltas.dtype.str, deltas.tobytes(), grid.tobytes())
    with _grid_cache_lock:
        rows = _grid_cache.pop(key, None)
        if rows is not None:
            _grid_cache[key] = rows  # the most recently used entry goes last
    if rows is None:
        if len(grid) * deltas.size * 8 > _GRID_CACHE_BYTES:
            return (_profile(cls, deltas, grid[j : j + _GRID_BLOCK]) for j in starts)
        rows = np.empty((len(grid), deltas.size))
        for j in starts:
            rows[j : j + _GRID_BLOCK] = _profile(cls, deltas, grid[j : j + _GRID_BLOCK])
        rows.flags.writeable = False
        with _grid_cache_lock:
            _grid_cache[key] = rows
            while sum(r.nbytes for r in _grid_cache.values()) > _GRID_CACHE_BYTES:
                del _grid_cache[next(iter(_grid_cache))]
    return (rows[j : j + _GRID_BLOCK] for j in starts)


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


def _project_row(g: np.ndarray, empirical: np.ndarray, s0: float) -> tuple[float, np.ndarray, float]:
    """:func:`_project` for one 1-d row of profile ratios, as in every polish
    step: 1-d dot products and ``c`` clipped as a float give the same bits as
    the stacked rows, with less numpy call overhead."""
    u = s0 * (1.0 - g)
    a = empirical - s0 * g
    uu = float(u.dot(u))
    c = min(max(float(u.dot(a)) / uu, _C_BOUNDS[0]), _C_BOUNDS[1]) if uu > 0.0 else 1.0
    r = a - c * u
    return c, r, float(r.dot(r)) if math.isfinite(uu) else math.inf


class _Minimum(NamedTuple):
    """A polish run's outcome: the fields of scipy's ``OptimizeResult`` that a fit reads."""

    x: float | list[float]
    fun: float
    nfev: int
    success: bool
    message: str


class _Spent(Exception):
    """A Nelder-Mead run has used its evaluation budget."""


def _clip(v: float, lo: float, hi: float) -> float:
    """``np.clip`` against array bounds, on a float: a bound equal to ``v`` wins, nan stays."""
    v = lo if v <= lo else v
    return hi if v >= hi else v


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in ``np.argsort`` order of the values.  That sort is
    not stable (its SIMD kernels may swap tied values), so it is called here as
    scipy calls it, never replaced by ``sorted``."""
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(func, simplex, bounds, xatol: float, fatol: float, maxfev: int, maxiter: int) -> _Minimum:
    """Bounded Nelder-Mead (Nelder & Mead, *Computer Journal* 1965) on lists of floats.

    Step for step the ``_minimize_neldermead`` of scipy 1.17, as scipy's
    ``minimize(func, x0, method="Nelder-Mead", bounds=bounds)`` runs it with
    ``initial_simplex``, ``xatol``, ``fatol``, ``maxfev`` and ``maxiter``
    set: the initial simplex is reflected at the upper bounds and clipped,
    every trial point is clipped, the centroid is summed in row order, and
    the vertices are sorted by ``np.argsort`` of their values.  So ``x``,
    ``fun``, ``nfev``, ``success`` and ``message`` are those of scipy.
    ``func`` takes a list of floats and returns a float.
    """
    lower, upper = zip(*bounds)
    n = len(lower)
    sim = [[_clip(2.0 * hi - v if v > hi else v, lo, hi) for v, lo, hi in zip(row, lower, upper)] for row in simplex]
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return func(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Spent:
        pass
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts twice here
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            best, fbest = sim[0], fsim[0]
            if all(abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)) and all(
                abs(fbest - fv) <= fatol for fv in fsim[1:]
            ):
                break
            m = sim[0]
            for row in sim[1:-1]:  # the centroid of all but the worst, summed row by row
                m = [a + b for a, b in zip(m, row)]
            m = [a / n for a in m]

            def trial(km, kw):
                """The clipped point ``km * centroid + kw * worst``."""
                return [_clip(km * a + kw * b, lo, hi) for a, b, lo, hi in zip(m, sim[-1], lower, upper)]

            xr = trial(2.0, -1.0)  # reflection
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = trial(3.0, -2.0)  # expansion
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = trial(1.5, -0.5) if outside else trial(0.5, 0.5)  # contraction
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [_clip(b + 0.5 * (v - b), lo, hi) for v, b, lo, hi in zip(sim[j], best, lower, upper)]
                        fsim[j] = f(sim[j])
            iterations += 1
        except _Spent:
            pass
        sim, fsim = _by_value(sim, fsim)
    if nfev >= maxfev:
        message = "Maximum number of function evaluations has been exceeded."
    elif iterations >= maxiter:
        message = "Maximum number of iterations has been exceeded."
    else:
        message = "Optimization terminated successfully."
    return _Minimum(sim[0], float(np.min(fsim)), nfev, nfev < maxfev and iterations < maxiter, message)


def _brent(func, lo: float, hi: float, xatol: float, maxiter: int = 500) -> _Minimum:
    """Bounded Brent minimisation (Brent, *Algorithms for Minimization without
    Derivatives*, 1973) on floats: step for step the ``_minimize_scalar_bounded``
    of scipy 1.17, as scipy's ``minimize_scalar(func, bounds=(lo, hi),
    method="bounded")`` runs it, so ``x``, ``fun``, ``nfev``, ``success`` and
    ``message`` are those of scipy."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num, flag, fu = 1, 0, math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    message = ("Solution found.", "Maximum number of function calls reached.", "NaN result encountered.")[flag]
    return _Minimum(xf, fx, num, flag == 0, message)


def _grid_polish(cls, deltas, empirical, s0, bounds, box):
    """Minimise the variable-projection objective of :func:`_project` over
    shape coordinates.

    The objective is evaluated on a grid spanning the box, a block of rows
    per call, on profile rows that :func:`_grid_blocks` computes once per
    process for each family, set of window lengths and grid; a best point on
    an edge of the box that is not a hard bound re-grids once with that
    side pushed out to the bound.  The best grid point is polished within
    the bounds, one shape per evaluation: one coordinate by bounded Brent
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
        values = np.concatenate([_project(g, empirical, s0)[2] for g in _grid_blocks(cls, deltas, grid)])
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
    x, fun = [float(axis[k]) for axis, k in zip(axes, where)], value

    def objective(theta) -> float:
        return _project_row(cls._increment(deltas, *_one_shape(cls, theta)) / deltas, empirical, s0)[2]

    if dim == 1:
        axis, k = axes[0], where[0]
        bracket = (float(axis[max(k - 1, 0)]), float(axis[min(k + 1, points - 1)]))
        res = _brent(lambda t: objective((t,)), *bracket, xatol=1e-10)
        runs = [res]
        if res.fun < fun:
            x, fun = [res.x], res.fun
        name = "brent"
    else:
        # each run's first simplex spans one grid cell, inside the bounds; a
        # fresh one gets a run unstuck that collapsed against a bound or in
        # a curved valley.  fatol must sit above the objective's rounding
        # noise (~1e-16 relative) or the spread criterion is unreachable.
        cell = [float(axis[1] - axis[0]) for axis in axes]
        budget = _POLISH_MAXFEV // _POLISH_RUNS
        runs = []
        for _ in range(_POLISH_RUNS):
            steps = [-d if v + d > hi else d for v, d, (_, hi) in zip(x, cell, bounds)]
            simplex = [x] + [[v + (d if j == i else 0.0) for j, (v, d) in enumerate(zip(x, steps))] for i in range(dim)]
            res = _nelder_mead(objective, simplex, bounds, 1e-11, max(1e-24, 1e-12 * fun), budget, budget)
            runs.append(res)
            if not res.fun < fun:
                break
            x, fun = res.x, res.fun
        name = "nelder-mead"
    diagnostics = {
        "search": f"grid+{name}", "kept": name if fun < value else "grid", "message": res.message,
        "grid_size": size, "grid_objective": float(value),
        "nfev": size + sum(r.nfev for r in runs),  # a cached grid row is one evaluation, as a computed one is
    }
    return x, res.success, diagnostics


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
    The grid's profile rows ``inc(delta)/delta`` depend only on the family,
    the window lengths and the grid's points, so each process computes them
    once and keeps them, read-only and bounded in bytes, for its later fits
    on the same lengths (a one-shot fit gains nothing from this); a
    bootstrap pool warms one such cache per worker.  Each fit projects its
    own data onto the rows, and ``nfev`` counts a cached row as one
    evaluation, so a fit's result and diagnostics do not depend on what
    the process fitted before.
    ``n_starts`` is ignored but must still be an integer >= 1; it stays
    only because the benchmark's workloads and tests pass it.  Returns a
    :class:`FitResult` whose Levy measure is re-derived from the jump
    frequencies at the fitted ``b``, and whose ``fitted`` curve and
    ``objective`` are those of the kept shape; ``converged`` reports the
    polish.
    """
    _whole(n_starts, "n_starts must be an integer >= 1", 1)
    cls = _fit_family(family)
    if stats.deltas.size < 3:
        raise ValueError("variance signature needs at least 3 grid points")
    bounds, box = _search_space(cls)
    deltas = stats.deltas
    empirical = stats.variances / deltas
    s0 = stats.second_moment_rate()
    # the grid and both polishes stay within the hard bounds
    with np.errstate(all="ignore"):  # rejected or extreme shapes score inf
        theta, converged, diagnostics = _grid_polish(cls, deltas, empirical, s0, bounds, box)
    fields = _one_shape(cls, theta)
    shape = cls.from_params(dict(zip(cls.coords, fields)))
    c, residuals, value = _project_row(cls._increment(deltas, *fields) / deltas, empirical, s0)
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
        fitted=empirical - residuals,
        converged=converged and math.isfinite(value),
        boundary_flags=tuple(flags),
        diagnostics=diagnostics,
    )


def _flatten_estimates(result: FitResult) -> dict[str, float]:
    """Parameter map for a fit: b, per-size intensities, family params."""
    levy = {f"nu({y:+d})": rate for y, rate in result.params.levy.as_dict().items()}
    return {"b": result.params.b, **levy, **result.params.trawl.family.params()}


def _bootstrap_one(args) -> tuple[int, bool, dict[str, float], str | None, dict[str, int]]:
    """One replica: its index, whether it converged, its estimates, the
    reason it failed, and the work of a fit that returned (events,
    windows summed and objective evaluations; empty otherwise)."""
    (params, span, v0, family, seed, index, deltas) = args
    rng = np.random.default_rng([seed, index])
    try:
        path = simulate_path(params, 0.0, span, v0, rng)
        stats = collect_stats(path, deltas)
        fit = fit_signature(stats, family=family)
    except ValueError as exc:
        return index, False, {}, str(exc), {}
    except Exception as exc:  # a failed replica must not abort the others
        return index, False, {}, f"{type(exc).__name__}: {exc}", {}
    work = {"events": path.n_events, "windows": int(stats.counts.sum()), "nfev": int(fit.diagnostics["nfev"])}
    if not fit.converged:
        return index, False, {}, f"fit did not converge: {fit.diagnostics['message']}", work
    return index, True, _flatten_estimates(fit), None, work


@dataclass(frozen=True)
class BootstrapResult:
    """Monte Carlo re-estimation summary.

    ``estimates[i]`` is the parameter vector fitted on replica ``i``
    (NaN where the fit failed); ``se``/``means`` summarise the converged
    replicas with denominator ``n-1``; ``failures`` pairs each failed
    replica's index with its reason.  ``work`` holds the ``events``,
    ``windows`` and objective evaluations (``nfev``) summed over the
    replicas whose fit returned, converged or not.
    """

    names: tuple[str, ...]
    estimates: np.ndarray
    converged: np.ndarray
    se: dict
    means: dict
    n_nonconverged: int
    seed: int
    failures: tuple[tuple[int, str], ...]
    work: dict[str, int]

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
    n_workers: int | None = None,
) -> BootstrapResult:
    """Parametric bootstrap: simulate, re-estimate, summarise the spread.

    Each replica ``i`` runs on its own substream ``default_rng([seed, i])``
    so results are identical for any ``n_workers``; replicas that fail to
    converge or raise are excluded from the summary, counted, and listed
    with the reason in ``failures`` (``"<Type>: <text>"`` for exceptions
    other than ``ValueError``).  ``n_workers`` is an integer >= 1, or
    None for a serial run.
    """
    n_paths = _whole(n_paths, "need at least 2 replicas", 2)
    n_workers = None if n_workers is None else _whole(n_workers, "need an integer worker count >= 1", 1)
    v0 = _whole(v0, "v0 must be an integer tick count")
    seed = _whole(seed, "seed must be an integer >= 0", 0)
    span = _real(span, "span must be finite and > 0", above=0.0)
    if family is None:
        family = params.trawl.family.name
    _fit_family(family)
    if deltas is None:
        deltas = DEFAULT_GRID
    deltas = np.asarray(deltas, dtype=float)
    jobs = [(params, span, v0, family, seed, i, deltas) for i in range(n_paths)]
    if n_workers is not None and n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel bootstrap needs it

        if "sup-gig" in (family, params.trawl.family.name):
            sps.kve  # import scipy.special once, before the workers fork, not in each of them
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            raw = list(pool.map(_bootstrap_one, jobs, chunksize=max(1, n_paths // (4 * n_workers))))
    else:
        raw = [_bootstrap_one(job) for job in jobs]

    names = sorted({k for _, ok, est, _, _ in raw if ok for k in est}, key=lambda n: (n != "b", n))
    table = np.full((len(raw), len(names)), np.nan)
    converged = np.zeros(len(raw), dtype=bool)
    for i, (_, ok, est, _, _) in enumerate(raw):
        converged[i] = ok
        if ok:
            table[i] = [est.get(name, 0.0) for name in names]
    failures = tuple((i, reason) for i, _, _, reason, _ in raw if reason is not None)
    good = table[converged]
    if good.shape[0] < 2:
        counts = Counter(reason for _, reason in failures)
        why = "; ".join(f"{n}x {reason}" for reason, n in counts.most_common())
        raise RuntimeError(
            f"only {good.shape[0]} of {n_paths} replicas converged; cannot summarise (failures: {why})"
        )
    work = Counter()
    for *_, done in raw:
        work.update(done)
    se = {name: float(np.std(good[:, j], ddof=1)) for j, name in enumerate(names)}
    means = {name: float(np.mean(good[:, j])) for j, name in enumerate(names)}
    return BootstrapResult(
        names=tuple(names),
        estimates=table,
        converged=converged,
        se=se,
        means=means,
        n_nonconverged=int(len(raw) - converged.sum()),
        seed=seed,
        failures=failures,
        work=dict(work),
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


def _slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of ``y`` on ``x`` along the last axis, ``Σ(x−x̄)(y−ȳ) / Σ(x−x̄)²``."""
    dx = x - x.mean(axis=-1, keepdims=True)
    return np.sum(dx * (y - y.mean(axis=-1, keepdims=True)), axis=-1) / np.sum(dx * dx, axis=-1)


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

    # each point's slope over itself and its neighbours: 2 points at the ends, 3 inside
    triples = np.lib.stride_tricks.sliding_window_view
    slopes = np.concatenate([[_slope(d[:2], v[:2])], _slope(triples(d, 3), triples(v, 3)), [_slope(d[-2:], v[-2:])]])
    tail = slice(3 * n // 4, n)
    s_inf = float(_slope(d[tail], v[tail]))

    if s0 - s_inf <= 1e-10 * abs(s0):
        return NonparametricTrawl(b=1.0, deltas=d, d_tilde=np.ones(n), s0=s0, s_inf=s_inf)
    b = float(np.clip(2.0 * s_inf / (s0 + s_inf), 0.0, 1.0))
    profile = np.clip((slopes - s_inf) / (s0 - s_inf), 0.0, 1.0)
    profile = np.minimum.accumulate(profile)
    return NonparametricTrawl(b=b, deltas=d, d_tilde=profile, s0=s0, s_inf=s_inf)
