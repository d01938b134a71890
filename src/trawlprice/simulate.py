"""Exact event-level simulation of squashed-trawl tick-price paths.

Moves arrive as a marked Poisson stream at rate ``||nu||``; each move is
permanent with probability ``b`` and otherwise reverses after a random
lifetime whose quantile function is the inverse trawl profile.  Moves
already alive at the window start are seeded from the stationary law:
a Poisson count with mean ``||nu|| * leb_area`` and residual lifetimes
drawn from the overlap survival function.  No discretisation is involved;
paths are exact to machine precision.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

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
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end) and self.t_start < self.t_end):
            raise ValueError("need finite t_start < t_end")
        if int(self.v0) != self.v0:
            raise ValueError("v0 must be an integer tick count")
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
        jumps = jumps.astype(np.int64)
        times.setflags(write=False)
        jumps.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "v0", int(self.v0))

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def prices(self) -> np.ndarray:
        """Price level immediately after each event."""
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
    from ``nu / ||nu||``; residual lifetimes invert the overlap survival
    function ``overlap(t) / leb_area`` at iid uniforms.
    """
    rng = _as_generator(rng)
    leb = params.trawl.leb_area()
    if leb == 0.0:  # pure permanent model: nothing to carry over
        return SurvivorSet(sizes=np.empty(0, dtype=np.int64), residuals=np.empty(0))
    n = int(rng.poisson(params.levy.total_mass * leb))
    sizes = rng.choice(params.levy.sizes, size=n, p=params.levy.probabilities)
    u = rng.random(n)
    residuals = np.asarray(params.trawl.family.residual_quantile(u)) if n else np.empty(0)
    return SurvivorSet(sizes=sizes, residuals=np.atleast_1d(residuals))


def _generate_events(params: ModelParams, t_start: float, t_end: float, rng):
    """Produce the sorted labelled event stream for one window.

    Returns ``(times, jumps, kind, pair)`` where ``kind`` is 0 for a
    survivor's departure, 1 for an arrival, 2 for an arrival's departure,
    and ``pair`` links each departure to its arrival's index (-1 for
    survivors and arrivals themselves).  Exposed separately from
    :func:`simulate_path` so the pairing bookkeeping can be checked
    directly.
    """
    rng = _as_generator(rng)
    levy, trawl = params.levy, params.trawl
    span = t_end - t_start

    surv = sample_initial_survivors(params, rng)
    s_times = t_start + surv.residuals
    s_keep = s_times <= t_end
    ev_t = [s_times[s_keep]]
    ev_j = [-surv.sizes[s_keep]]
    ev_kind = [np.zeros(int(s_keep.sum()), dtype=np.int8)]
    ev_pair = [np.full(int(s_keep.sum()), -1, dtype=np.int64)]
    ev_seq = [np.flatnonzero(s_keep).astype(np.int64)]

    n_arr = int(rng.poisson(levy.total_mass * span))
    # 1 - U maps [0,1) draws onto (0,1] so arrivals land in (t_start, t_end]
    a_times = np.sort(t_start + span * (1.0 - rng.random(n_arr)))
    a_sizes = rng.choice(levy.sizes, size=n_arr, p=levy.probabilities) if n_arr else np.empty(0, dtype=np.int64)
    heights = rng.random(n_arr)

    base = surv.count
    ev_t.append(a_times)
    ev_j.append(a_sizes)
    ev_kind.append(np.ones(n_arr, dtype=np.int8))
    ev_pair.append(np.full(n_arr, -1, dtype=np.int64))
    ev_seq.append(base + 2 * np.arange(n_arr, dtype=np.int64))

    b = trawl.b
    fleeting = heights > b
    if fleeting.any():
        p_life = (heights[fleeting] - b) / (1.0 - b)
        lifetimes = np.atleast_1d(np.asarray(trawl.family.lifetime_quantile(p_life)))
        d_times = a_times[fleeting] + lifetimes
        keep = d_times <= t_end
        idx = np.flatnonzero(fleeting)[keep]
        ev_t.append(d_times[keep])
        ev_j.append(-a_sizes[idx])
        ev_kind.append(np.full(idx.size, 2, dtype=np.int8))
        ev_pair.append(idx)
        ev_seq.append(base + 2 * idx + 1)

    times = np.concatenate(ev_t)
    jumps = np.concatenate(ev_j).astype(np.int64)
    kind = np.concatenate(ev_kind)
    pair = np.concatenate(ev_pair)
    seq = np.concatenate(ev_seq)
    order = np.lexsort((seq, times))
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
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_start < t_end):
        raise ValueError("need finite t_start < t_end")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    times, jumps, _, _ = _generate_events(params, float(t_start), float(t_end), rng)
    # exact time ties have probability zero; they are ordered by insertion
    # sequence and never merged, so a real tie fails the path invariant loudly
    return PricePath(v0=int(v0), t_start=float(t_start), t_end=float(t_end), times=times, jumps=jumps, seed=seed)


def window_index(times, t_start: float, delta: float) -> np.ndarray:
    """Index ``k >= 1`` of the window ``(t_start+(k-1)delta, t_start+k*delta]``
    holding each time.

    The boundary is decided by one rule everywhere:
    ``k = ceil((t - t_start) / delta)`` in floating point, so an event
    stamped on an edge (a millisecond stamp at a window length that is a
    multiple of 1 ms, say) lands in the same window in every signature and
    return series.  Cost and memory are O(events); sorted times give
    sorted indices.
    """
    return np.ceil((np.asarray(times, dtype=float) - t_start) / delta).astype(np.int64)


def _window_sums(path: PricePath, delta: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The full windows of :func:`window_index` at one length: their count
    ``n``, the indices of those holding events and their integer sums.
    Cost and memory are O(events)."""
    n = int(math.floor(path.span / delta))
    k = window_index(path.times, path.t_start, delta)
    m = int(np.searchsorted(k, n, side="right"))  # events in full windows
    k = k[:m]
    starts = np.flatnonzero(np.diff(k, prepend=0))
    return n, k[starts], np.add.reduceat(path.jumps[:m], starts)


def returns_at(path: PricePath, delta: float) -> np.ndarray:
    """Integer returns over the windows of :func:`window_index`.

    Produces ``floor(span / delta)`` returns; the ragged tail beyond the
    last full window is discarded.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    n, windows, sums = _window_sums(path, delta)
    if n < 1:
        raise ValueError("delta exceeds the path span")
    out = np.zeros(n, dtype=np.int64)
    out[windows - 1] = sums
    return out


def realized_pv(path: PricePath, r: float) -> float:
    """Realized power variation: ``sum |jump|^r`` (event count for r=0)."""
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"order must be finite and >= 0, got {r!r}")
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
        fh.writelines(map("{!r},{}\n".format, path.times.tolist(), path.prices.tolist()))
    meta = {"v0": path.v0, "t_start": path.t_start, "t_end": path.t_end, "seed": path.seed}
    with open(sidecar_file, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_path_csv(csv_file, sidecar_file) -> PricePath:
    """Inverse of :func:`write_path_csv`; lossless round trip."""
    with open(sidecar_file) as fh:
        meta = json.load(fh)
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
    v0 = int(meta["v0"])
    jumps = np.diff(np.concatenate([[v0], prices]))
    seed = meta.get("seed")
    return PricePath(
        v0=v0,
        t_start=float(meta["t_start"]),
        t_end=float(meta["t_end"]),
        times=np.ascontiguousarray(times),  # a field view would keep the price column alive
        jumps=jumps,
        seed=None if seed is None else int(seed),
    )
