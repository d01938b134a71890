"""Exact event-level simulation of squashed-trawl tick-price paths.

Moves arrive as a marked Poisson stream at rate ``||nu||``; each move is
permanent with probability ``b`` and otherwise reverses after a random
lifetime whose survival function is the trawl profile.  Moves already
alive at the window start are seeded from the stationary law: a Poisson
count with mean ``||nu|| * leb_area`` and residual lifetimes whose
survival function is the normalised overlap.  Both are drawn by the
family's sampling pair, ``sample_lifetimes`` and ``sample_residuals``,
from the uniforms drawn here: a closed-form inverse CDF for the
exponential, sup-gamma and tabulated families, an exact mixture draw for
sup-GIG.  No discretisation is involved; paths are exact to machine
precision.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _real, _whole

__all__ = [
    "PricePath",
    "SurvivorSet",
    "sample_initial_survivors",
    "simulate_path",
    "window_index",
    "returns_at",
    "realized_pv",
    "write_path_csv",
    "read_path_csv",
]


@dataclass(frozen=True)
class PricePath:
    """Piecewise-constant integer price path on ``[t_start, t_end]``.

    ``times[i]`` is the instant of the i-th price change and ``jumps[i]``
    its signed size in ticks; the price starts at ``v0`` and is
    right-continuous.  ``seed`` records provenance when the path came from
    a seeded simulation (None for real data).
    """

    v0: int
    t_start: float
    t_end: float
    times: np.ndarray
    jumps: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        jumps = np.asarray(self.jumps)
        object.__setattr__(self, "t_start", _real(self.t_start, "need finite t_start < t_end"))
        object.__setattr__(self, "t_end", _real(self.t_end, "need finite t_start < t_end", above=self.t_start))
        object.__setattr__(self, "v0", _whole(self.v0, "v0 must be an integer tick count"))
        if times.ndim != 1 or jumps.shape != times.shape:
            raise ValueError("times and jumps must be matching 1-d arrays")
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("event times must be finite")
            if times[0] <= self.t_start or times[-1] > self.t_end:
                raise ValueError("event times must lie in (t_start, t_end]")
            if np.any(np.diff(times) <= 0.0):
                raise ValueError("event times must be strictly increasing")
            if np.any(jumps == 0) or not np.issubdtype(jumps.dtype, np.integer):
                raise ValueError("jumps must be nonzero integers")
            if jumps.dtype.kind == "u" and jumps.max() >= 2**63:
                raise ValueError("jumps must lie in the int64 range")
        jumps = jumps.astype(np.int64)
        times.setflags(write=False)
        jumps.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def prices(self) -> np.ndarray:
        """Price level immediately after each event; a ``ValueError`` when
        a level leaves the int64 range."""
        if abs(self.v0) + float(np.abs(self.jumps, dtype=float).sum()) >= 2**62:  # a level may wrap
            levels = list(itertools.accumulate(self.jumps.tolist(), initial=self.v0))
            if not (-(2**63) <= min(levels) and max(levels) < 2**63):
                raise ValueError("price level leaves the int64 range")
        # int64 wrap in the running move cancels wherever the level is in range
        return self.v0 + np.cumsum(self.jumps)

    def price_at(self, t):
        """Price at time(s) ``t`` in ``[t_start, t_end]`` (right-continuous)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_start) or np.any(t_arr > self.t_end):
            raise ValueError("query time outside the path window")
        levels = np.concatenate([[self.v0], self.prices])
        idx = np.searchsorted(self.times, t_arr, side="right")
        out = levels[idx]
        if np.ndim(t) == 0:
            return int(out)
        return out


@dataclass(frozen=True)
class SurvivorSet:
    """Fleeting moves alive at a window start: sizes and residual lifetimes."""

    sizes: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if self.sizes.shape != self.residuals.shape:
            raise ValueError("sizes and residuals must have matching shapes")

    @property
    def count(self) -> int:
        return int(self.sizes.size)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_initial_survivors(params: ModelParams, rng) -> SurvivorSet:
    """Draw the stationary population of fleeting moves alive at time 0.

    The count is Poisson with mean ``||nu|| * leb_area``; sizes are iid
    from ``nu / ||nu||``; residual lifetimes, with survival function
    ``overlap(t) / leb_area``, come from the family's ``sample_residuals``
    at iid uniforms.
    """
    rng = _as_generator(rng)
    leb = params.trawl.leb_area()
    if leb == 0.0:  # pure permanent model: nothing to carry over
        return SurvivorSet(sizes=np.empty(0, dtype=np.int64), residuals=np.empty(0))
    n = int(rng.poisson(params.levy.total_mass * leb))
    sizes = rng.choice(params.levy.sizes, size=n, p=params.levy.probabilities)
    u = rng.random(n)
    residuals = params.trawl.family.sample_residuals(u, rng) if n else np.empty(0)
    return SurvivorSet(sizes=sizes, residuals=residuals)


def _generate_events(params: ModelParams, t_start: float, t_end: float, rng):
    """Produce the sorted labelled event stream for one window.

    Returns ``(times, jumps, kind, pair)`` where ``kind`` is 0 for a
    survivor's departure, 1 for an arrival, 2 for an arrival's departure,
    and ``pair`` links each departure to its arrival's index (-1 for
    survivors and arrivals themselves).  ``pair`` indexes the drawn
    arrivals, so it skips any arrival dropped because its departure fell on
    its own time stamp (a sub-ulp lifetime; counted in a warning).  Survivors'
    departures, fleeting departures and shown arrivals are stably sorted by
    time, so a tie keeps that order.  Exposed separately from
    :func:`simulate_path` so the pairing bookkeeping can be checked directly.
    """
    rng = _as_generator(rng)
    levy, trawl = params.levy, params.trawl
    span = t_end - t_start

    surv = sample_initial_survivors(params, rng)
    s_times = t_start + surv.residuals
    s_keep = s_times <= t_end

    n_arr = int(rng.poisson(levy.total_mass * span))
    # 1 - U maps [0,1) draws onto (0,1] so arrivals land in (t_start, t_end]
    a_times = np.sort(t_start + span * (1.0 - rng.random(n_arr)))
    a_sizes = rng.choice(levy.sizes, size=n_arr, p=levy.probabilities) if n_arr else np.empty(0, dtype=np.int64)
    heights = rng.random(n_arr)

    b = trawl.b
    fleeting = np.flatnonzero(heights > b)
    shown = np.ones(n_arr, dtype=bool)
    departing, d_times = fleeting, np.empty(0)
    if fleeting.size:
        p_life = (heights[fleeting] - b) / (1.0 - b)
        lifetimes = trawl.family.sample_lifetimes(p_life, rng)
        d_times = a_times[fleeting] + lifetimes
        # a lifetime below half an ulp of its arrival time puts the departure
        # on the arrival's stamp; the pair nets to zero at one instant, so no
        # right-continuous path shows it and both events are dropped
        instant = d_times == a_times[fleeting]
        if instant.any():
            shown[fleeting[instant]] = False
            warnings.warn(
                f"dropping {int(instant.sum())} fleeting move(s) that depart at their arrival's time stamp",
                stacklevel=3,
            )
        keep = (d_times <= t_end) & ~instant
        departing, d_times = fleeting[keep], d_times[keep]
    arrivals = np.flatnonzero(shown)

    counts = [int(s_keep.sum()), departing.size, arrivals.size]
    times = np.concatenate([s_times[s_keep], d_times, a_times[arrivals]])
    jumps = np.concatenate([-surv.sizes[s_keep], -a_sizes[departing], a_sizes[arrivals]]).astype(np.int64)
    kind = np.repeat(np.array([0, 2, 1], dtype=np.int8), counts)
    pair = np.concatenate([np.full(counts[0], -1), departing, np.full(counts[2], -1)])
    order = np.argsort(times, kind="stable")
    return times[order], jumps[order], kind[order], pair[order]


def simulate_path(params: ModelParams, t_start: float, t_end: float, v0: int, rng) -> PricePath:
    """Simulate one exact price path on ``(t_start, t_end]``.

    Parameters
    ----------
    params : ModelParams
    t_start, t_end : float
        Window endpoints, ``t_start < t_end``.
    v0 : int
        Price in ticks at ``t_start``.
    rng : numpy Generator, int seed, or None
        Identical generator state yields an identical path.
    """
    t_start = _real(t_start, "need finite t_start < t_end")
    t_end = _real(t_end, "need finite t_start < t_end", above=t_start)
    v0 = _whole(v0, "v0 must be an integer tick count")  # before the events are drawn
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    times, jumps, _, _ = _generate_events(params, t_start, t_end, rng)
    # other exact time ties have probability zero; they are ordered by
    # insertion sequence and never merged, so a real tie fails the path
    # invariant loudly
    return PricePath(v0=v0, t_start=t_start, t_end=t_end, times=times, jumps=jumps, seed=seed)


def window_index(times, t_start: float, delta: float) -> np.ndarray:
    """Index ``k >= 1`` of the window ``(t_start+(k-1)delta, t_start+k*delta]``
    holding each time.

    The boundary is decided by one rule everywhere:
    ``k = ceil((t - t_start) / delta)`` in floating point, so an event
    stamped on an edge (a millisecond stamp at a window length that is a
    multiple of 1 ms, say) lands in the same window in every signature and
    return series.  :func:`_window_ceil` applies the rule to times already
    taken relative to ``t_start``, which the signature forms once per path.
    Cost and memory are O(events); sorted times give sorted indices.
    """
    delta = _real(delta, "delta must be finite and > 0", above=0.0)
    rel = np.asarray(times, dtype=float) - _real(t_start, "t_start must be finite")
    return _window_ceil(rel, delta, np.empty(np.shape(rel))).astype(np.int64)


def _window_ceil(rel: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
    """:func:`window_index` of the relative times ``rel = t - t_start``, as
    integer-valued floats written into ``out``."""
    np.divide(rel, delta, out=out)
    return np.ceil(out, out=out)


def _running_move(path: PricePath) -> tuple[np.ndarray, np.ndarray]:
    """The per-path inputs of :func:`_window_sums`: the event times relative
    to ``t_start`` followed by ``+inf``, and the running price move
    ``cumsum(jumps)``."""
    return np.append(path.times - path.t_start, np.inf), np.cumsum(path.jumps)


def _window_sums(
    rel: np.ndarray, csum: np.ndarray, k: np.ndarray, span: float, delta: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """The full windows of :func:`window_index` at one length, as telescoped
    sums: their count ``n``, the indices ``last`` of the window-final events
    and the running move ``x = csum[last]`` there.

    ``rel`` and ``csum`` come from :func:`_running_move`; ``k`` is a scratch
    buffer of ``rel``'s size, allocated once per path, that is left holding
    the window indices ``k[last]`` of the windows with events.  A window's
    last event is one whose successor lies in a later window; the ``+inf``
    ending ``rel`` is that successor for the last event in a full window,
    so a path with no event in a full window needs no special case.  The
    sums of the windows with events are ``np.diff(x, prepend=0)``, so they
    total ``x[-1]``: exact, because int64 differences are exact modulo 2**64
    and so give every sum that fits.  Cost and memory are O(events).
    """
    n = math.floor(span / delta)
    _window_ceil(rel, delta, k)
    m = int(k.searchsorted(n, side="right"))  # events in full windows
    last = (k[1 : m + 1] != k[:m]).nonzero()[0]
    return n, last, csum[last]


def returns_at(path: PricePath, delta: float) -> np.ndarray:
    """Integer returns over the windows of :func:`window_index`.

    Produces ``floor(span / delta)`` returns; the ragged tail beyond the
    last full window is discarded.  The result is one int64 per window,
    empty or not, so its memory grows with ``span / delta``, not with the
    events: 400 MB for a 50,000 s span at ``delta = 1e-3``.  The signature
    (:func:`~trawlprice.estimate.variance_grid`) needs no such array.
    """
    delta = _real(delta, "delta must be finite and > 0", above=0.0)
    rel, csum = _running_move(path)
    k = np.empty_like(rel)
    n, last, x = _window_sums(rel, csum, k, path.span, delta)
    if n < 1:
        raise ValueError("delta exceeds the path span")
    out = np.zeros(n, dtype=np.int64)
    out[k[last].astype(np.int64) - 1] = np.diff(x, prepend=0)
    return out


def realized_pv(path: PricePath, r: float) -> float:
    """Realized power variation: ``sum |jump|^r`` (event count for r=0)."""
    r = _real(r, "order must be finite and >= 0", 0.0)
    if path.n_events == 0:
        return 0.0
    return float(np.sum(np.abs(path.jumps).astype(float) ** r))


# ---------------------------------------------------------------------------
# Path serialization: CSV of (time, price) plus a JSON sidecar
# ---------------------------------------------------------------------------


def write_path_csv(path: PricePath, csv_file, sidecar_file) -> None:
    """Write events as ``time,price_ticks`` rows plus a JSON sidecar.

    The sidecar carries what the event rows cannot: the starting price,
    the window endpoints, and the seed (null for real data).
    """
    with open(csv_file, "w", newline="") as fh:
        fh.write("time,price_ticks\n")
        fh.write("".join([f"{t!r},{p}\n" for t, p in zip(path.times.tolist(), path.prices.tolist())]))
    meta = {"v0": path.v0, "t_start": path.t_start, "t_end": path.t_end, "seed": path.seed}
    with open(sidecar_file, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_path_csv(csv_file, sidecar_file) -> PricePath:
    """Inverse of :func:`write_path_csv`; lossless round trip.

    The sidecar's numbers may also be numeric strings.  A malformed CSV or
    sidecar raises ``ValueError``.
    """
    with open(sidecar_file) as fh:
        meta = json.load(fh)
    if not (isinstance(meta, dict) and {"t_start", "t_end", "v0"} <= meta.keys()):
        raise ValueError("sidecar must hold a JSON object with numbers t_start, t_end and v0")
    with open(csv_file) as fh:
        header = fh.readline().split(",")
        if [h.strip() for h in header[:2]] != ["time", "price_ticks"]:
            raise ValueError(f"expected 'time,price_ticks' header in {csv_file}")
        with warnings.catch_warnings():
            # a header-only file is an empty path, not a suspicious input
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            times, prices = np.loadtxt(
                fh, delimiter=",", dtype=[("t", float), ("p", np.int64)],
                usecols=(0, 1), ndmin=1, comments=None, unpack=True,
            )
    v0 = _whole(meta["v0"], "sidecar v0 must be an integer", text=True)
    if not -(2**63) <= v0 < 2**63:
        raise ValueError(f"v0 {v0} leaves the int64 range")
    if abs(v0) + max(int(prices.max(initial=0)), -int(prices.min(initial=0))) >= 2**62:  # a jump may wrap
        levels = [v0, *prices.tolist()]
        if not all(-(2**63) <= after - before < 2**63 for before, after in zip(levels, levels[1:])):
            raise ValueError("price move leaves the int64 range")
    jumps = np.diff(np.concatenate([[v0], prices]))
    seed = meta.get("seed")
    return PricePath(
        v0=v0,
        t_start=_real(meta["t_start"], "sidecar t_start must be a finite number", text=True),
        t_end=_real(meta["t_end"], "sidecar t_end must be a finite number", text=True),
        times=np.ascontiguousarray(times),  # a field view would keep the price column alive
        jumps=jumps,
        seed=None if seed is None else _whole(seed, "sidecar seed must be an integer or null", text=True),
    )
