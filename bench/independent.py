"""Computations made apart from trawlprice, used to check its outputs.

Nothing in this module imports trawlprice.  It holds:

* a plain-numpy exponential-trawl tick path on a millisecond clock and a
  renderer that turns it into a raw trade-and-quote feed with injected
  noise whose cleaning diagnostics are known in advance;
* a path CSV reader and a sparse variance signature (sums over the
  windows that hold events, exact integer arithmetic) with a tolerance
  that allows for events sitting on a window boundary;
* closed-form and quadrature signature curves for the exponential,
  sup-gamma and sup-GIG profiles;
* an event-count check and a chi-square test of integer return laws.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

# ---------------------------------------------------------------------------
# path files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TickPath:
    """Integer price path: ``prices[i]`` holds from ``times[i]`` on."""

    v0: int
    t_start: float
    t_end: float
    times: np.ndarray
    prices: np.ndarray

    @property
    def jumps(self) -> np.ndarray:
        return np.diff(np.concatenate([[self.v0], self.prices])).astype(np.int64)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


def read_path(csv_file: str) -> TickPath:
    """Read a ``time,price_ticks`` CSV and its ``.meta.json`` sidecar."""
    with open(f"{csv_file}.meta.json") as fh:
        meta = json.load(fh)
    with open(csv_file, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["time", "price_ticks"]:
        raise ValueError(f"{csv_file}: bad header {rows[:1]}")
    times = np.array([float(r[0]) for r in rows[1:]], dtype=float)
    prices = np.array([int(r[1]) for r in rows[1:]], dtype=np.int64)
    return TickPath(int(meta["v0"]), float(meta["t_start"]), float(meta["t_end"]), times, prices)


def read_signature_csv(csv_file: str) -> dict[str, np.ndarray]:
    """Columns of a ``delta,empirical,fitted`` CSV (empty cells are NaN)."""
    with open(csv_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        col: np.array([float(r[col]) if r[col] else math.nan for r in rows])
        for col in ("delta", "empirical", "fitted")
    }


# ---------------------------------------------------------------------------
# variance signature
# ---------------------------------------------------------------------------


def signature(t_start, t_end, times, jumps, deltas):
    """Sample variance of window returns, with a boundary tolerance.

    Window ``k`` (1-based) covers ``(t_start + (k-1) d, t_start + k d]``;
    ``floor(span / d)`` full windows are used.  Returns are summed only
    over windows that hold events, in exact integer arithmetic, so the
    cost is O(events) per window length.

    An event whose offset lies within 1e-9 (relative) of a window edge
    may fall on either side in floating point.  ``tol`` bounds how far
    the variance can move if every such event is placed in the other
    window; it is zero when no event sits on an edge.

    Returns ``(variances, tol, counts)`` arrays over ``deltas``.
    """
    offsets = np.asarray(times, dtype=float) - t_start
    jumps = np.asarray(jumps, dtype=np.int64)
    span = t_end - t_start
    var, tol, counts = [], [], []
    for d in np.asarray(deltas, dtype=float):
        n = math.floor(span / d)
        if n < 2:
            raise ValueError(f"window length {d} gives fewer than 2 windows")
        q = offsets / d
        k = np.ceil(q).astype(np.int64)
        keep = k <= n
        kk, y = k[keep], jumps[keep]
        if kk.size:
            starts = np.flatnonzero(np.concatenate([[True], kk[1:] != kk[:-1]]))
            r = np.add.reduceat(y, starts)
        else:
            r = np.zeros(1, dtype=np.int64)
        s, ss = int(r.sum()), int((r * r).sum())
        v = (ss - s * s / n) / (n - 1)
        edge = np.abs(q - np.round(q)) <= 1e-9 * np.maximum(q, 1.0)
        edge &= np.round(q) <= n
        ya = np.abs(jumps[edge]).astype(float)
        if ya.size:
            big = float(np.abs(r).max()) + float(ya.sum())
            bound = np.sum(2.0 * ya * (2.0 * big + ya) + (2.0 * abs(s) * ya + ya * ya) / n)
            t = bound / (n - 1)
        else:
            t = 0.0
        var.append(v)
        tol.append(t)
        counts.append(n)
    return np.array(var), np.array(tol), np.array(counts, dtype=np.int64)


def signature_mismatch(deltas, program_per_time, path: TickPath) -> list[str]:
    """Compare a program's variance-per-unit-time column with :func:`signature`.

    Allowed difference per window length: the boundary tolerance plus
    1e-9 relative for rounding.  A lost event or window moves a sum of
    squared integer returns by at least about one, far above that.
    """
    v, tol, _ = signature(path.t_start, path.t_end, path.times, path.jumps, deltas)
    prog = np.asarray(program_per_time) * np.asarray(deltas)
    err = np.abs(prog - v)
    allowed = tol + 1e-9 * np.abs(v) + 1e-12
    bad = np.flatnonzero(~(err <= allowed))
    return [
        f"signature at delta={deltas[i]:.6g}: program {prog[i]:.12g}, independent {v[i]:.12g} "
        f"(allowed {allowed[i]:.3g})"
        for i in bad[:5]
    ]


# ---------------------------------------------------------------------------
# model signature curves
# ---------------------------------------------------------------------------


def signature_curve(b: float, inc, s0: float, deltas) -> np.ndarray:
    """Variance per unit time ``(b d + 2 (1-b) inc(d)) / ((2-b) d) * s0``.

    ``inc`` holds the unsquashed ``integral_0^d d_tilde(-u) du`` at each
    window length ``d``.
    """
    d = np.asarray(deltas, dtype=float)
    return (b * d + 2.0 * (1.0 - b) * np.asarray(inc)) / ((2.0 - b) * d) * s0


def exponential_increment(lam: float, deltas) -> np.ndarray:
    return -np.expm1(-lam * np.asarray(deltas, dtype=float)) / lam


def quadrature_increment(profile, deltas) -> np.ndarray:
    """``integral_0^d profile(u) du`` at each ``d``, by adaptive quadrature."""
    out, lo, acc = [], 0.0, 0.0
    for d in np.asarray(deltas, dtype=float):  # increasing grid: integrate piecewise
        part, _ = integrate.quad(profile, lo, d, limit=200, epsabs=0.0, epsrel=1e-11)
        acc += part
        out.append(acc)
        lo = d
    return np.array(out)


def sup_gamma_profile(alpha: float, H: float):
    return lambda u: (1.0 + u / alpha) ** (-H)


def sup_gig_profile(gamma: float, delta: float, order: float):
    """``(w/z)^-order K_order(w) / K_order(z)`` with ``w = delta sqrt(gamma^2 + 2u)``."""
    if gamma <= 0.0:
        raise ValueError("this profile needs gamma > 0")
    z = gamma * delta

    def prof(u):
        w = delta * math.sqrt(gamma * gamma + 2.0 * u)
        return (w / z) ** (-order) * special.kve(order, w) / special.kve(order, z) * math.exp(z - w)

    return prof


def objective(curve, empirical) -> float:
    return float(np.sum((np.asarray(curve) - np.asarray(empirical)) ** 2))


def second_moment_rate(jumps, span: float) -> float:
    return float(np.sum(np.asarray(jumps, dtype=float) ** 2) / span)


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


def event_count_ok(n_events: int, rate: float, span: float, z: float = 5.0) -> tuple[bool, str]:
    """Observed price changes against their stationary mean ``rate * span``.

    A birth and its own death can both fall in the window, so the count is
    over-dispersed against Poisson; its variance is at most twice the mean.
    """
    mean = rate * span
    sd = math.sqrt(2.0 * mean)
    ok = abs(n_events - mean) <= z * sd
    return ok, f"{n_events} events, expected {mean:.1f} +- {z}*{sd:.1f}"


def spaced_returns(path: TickPath, horizon: float, gap: float) -> np.ndarray:
    """Returns over ``(a, a + horizon]`` for window starts ``a`` spaced ``gap`` apart."""
    starts = path.t_start + gap * np.arange(int((path.span - horizon) // gap) + 1)
    cum = np.concatenate([[0], np.cumsum(path.jumps)])
    lo = np.searchsorted(path.times, starts, side="right")
    hi = np.searchsorted(path.times, starts + horizon, side="right")
    return cum[hi] - cum[lo]


def chi_square_pvalue(samples, support, probs, min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson goodness of fit of integer samples to a pmf.

    Adjacent support points are pooled left to right until each bin
    expects at least ``min_expected`` samples; the two end bins also take
    the mass (and samples) beyond the support.  Returns ``(p, n_bins)``.
    """
    samples = np.asarray(samples, dtype=np.int64)
    support = np.asarray(support, dtype=np.int64)
    expected = np.asarray(probs, dtype=float) * samples.size
    edges, acc = [], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= min_expected and expected[i + 1 :].sum() >= min_expected:
            edges.append(support[i])
            acc = 0.0
    # bin j holds values in (edges[j-1], edges[j]]
    bins_obs = np.bincount(np.searchsorted(edges, samples, side="left"), minlength=len(edges) + 1)
    bins_exp = np.bincount(
        np.searchsorted(edges, support, side="left"), weights=expected, minlength=len(edges) + 1
    )
    bins_exp *= samples.size / bins_exp.sum()
    stat = float(np.sum((bins_obs - bins_exp) ** 2 / bins_exp))
    dof = len(bins_obs) - 1
    if dof < 1:
        return 1.0, len(bins_obs)
    return float(stats.chi2.sf(stat, dof)), len(bins_obs)


# ---------------------------------------------------------------------------
# raw feed: true path on a millisecond clock, rendered with injected noise
# ---------------------------------------------------------------------------


def exponential_tick_path(rng, b, lam, nu_up, nu_down, span, v0):
    """Stationary exponential-trawl path, event times rounded up to 1 ms.

    Unit moves arrive at rate ``nu_up + nu_down``; each is permanent with
    probability ``b`` and otherwise reverses after an Exp(``lam``)
    lifetime.  Moves alive at time 0 are a Poisson(``||nu|| (1-b)/lam``)
    population with Exp(``lam``) residual lifetimes.  Moves sharing a
    millisecond are netted; a millisecond whose moves cancel carries no
    price change.  Returns ``(stamps_ms, prices)``, one row per change.
    """
    total = nu_up + nu_down
    n_s = rng.poisson(total * (1.0 - b) / lam)
    s_size = np.where(rng.random(n_s) < nu_up / total, 1, -1)
    s_death = rng.exponential(1.0 / lam, n_s)
    n_a = rng.poisson(total * span)
    a_t = np.sort(rng.uniform(0.0, span, n_a))
    a_size = np.where(rng.random(n_a) < nu_up / total, 1, -1)
    fleeting = rng.random(n_a) >= b
    d_t = a_t[fleeting] + rng.exponential(1.0 / lam, int(fleeting.sum()))
    times = np.concatenate([s_death, a_t, d_t])
    jumps = np.concatenate([-s_size, a_size, -a_size[fleeting]])
    keep = (times > 0.0) & (times <= span)
    ms = np.ceil(times[keep] * 1000.0).astype(np.int64)
    order = np.argsort(ms, kind="stable")
    ms, jumps = ms[order], jumps[keep][order]
    starts = np.flatnonzero(np.concatenate([[True], ms[1:] != ms[:-1]]))
    net = np.add.reduceat(jumps, starts)
    moved = net != 0
    return ms[starts][moved], v0 + np.cumsum(net[moved])


@dataclass(frozen=True)
class NoiseMix:
    """Raw-feed noise, as shares of the true price changes (counts round down)."""

    quote_share: float = 0.25  # extra quote after a change (quotes also re-centre)
    out_of_band: float = 0.01  # trade 40 ticks off the quotes
    duplicate_fill: float = 0.02  # second fill one tick further out, same stamp
    straddle: float = 0.01  # two fills one tick either side, new stamp
    repeat: float = 0.02  # print at the prevailing price, new stamp


@dataclass(frozen=True)
class RawFeed:
    text: str
    true_path: TickPath
    injected: dict[str, int]

    @property
    def n_records(self) -> int:
        return self.text.count("\n") - 1

    def expected_diagnostics(self) -> dict[str, int]:
        """Diagnostic lines per cleaning rule that the noise must produce."""
        inj = self.injected
        return {
            "step1": inj["out_of_band"],
            "step2": 1,
            "step3-1": inj["duplicate_fill"],
            "step3-2": inj["straddle"],
            "step4": inj["repeat"] + inj["straddle"],
        }

    def expected_no_trade_records(self) -> int:
        """Records step 2 drops: quotes plus the out-of-band prints step 1 blanked."""
        return self.injected["quotes"] + self.injected["out_of_band"]


def _stamp(ms: int) -> str:
    return f"{ms // 1000}.{ms % 1000:03d}"


def _price(ticks: int, tick: float) -> str:
    return repr(ticks * tick)


def render_feed(rng, stamps_ms, prices, v0: int, tick: float, noise: NoiseMix) -> RawFeed:
    """Render a true path as raw ``log_t,bid,bidsz,ask,asksz,trade,tradesz`` rows.

    Every true change is one trade at its stamp.  Quotes (bid/ask one
    tick either side) follow a change at random and whenever the price
    has moved 4 ticks from the last quote's mid, so genuine trades stay
    inside any band of 9.5 ticks.  Injected noise never changes what a
    correct cleaner outputs: duplicate fills sit further from the
    previous price than the true trade, straddles and repeats use
    stamps without a true change, out-of-band prints sit 40 ticks away.
    """
    n = stamps_ms.size
    prev = np.concatenate([[v0], prices[:-1]])
    recs: list[tuple[int, int, str]] = []

    def quote(ms, seq, mid):
        recs.append((ms, seq, f"{_stamp(ms)},{_price(mid - 1, tick)},{rng.integers(1, 50)},"
                               f"{_price(mid + 1, tick)},{rng.integers(1, 50)},,"))

    def trade(ms, seq, ticks):
        recs.append((ms, seq, f"{_stamp(ms)},,,,,{_price(ticks, tick)},{rng.integers(1, 20)}"))

    quote(0, 0, v0)
    trade(0, 1, v0)
    n_quotes = 1
    dup = np.zeros(n, dtype=bool)
    dup[rng.choice(n, int(noise.duplicate_fill * n), replace=False)] = True
    want_quote = rng.random(n) < noise.quote_share
    mid = v0
    for i in range(n):
        ms, p = int(stamps_ms[i]), int(prices[i])
        trade(ms, 0, p)
        if dup[i]:
            trade(ms, 1, p + (1 if p > prev[i] else -1))
        if want_quote[i] or abs(p - mid) >= 4:
            quote(ms, 2, p)
            mid = p
            n_quotes += 1

    n_oob, n_str, n_rep = (int(share * n) for share in (noise.out_of_band, noise.straddle, noise.repeat))
    need = n_oob + n_str + n_rep
    cand = np.unique(rng.integers(1, int(stamps_ms[-1]), size=3 * need + 10))
    free = rng.permutation(np.setdiff1d(cand, stamps_ms))[:need]
    if free.size < need:
        raise ValueError("path too short for the requested noise")
    idx = np.searchsorted(stamps_ms, free, side="right") - 1
    level = np.where(idx >= 0, prices[np.maximum(idx, 0)], v0)
    for j, (ms, q) in enumerate(zip(free.tolist(), level.tolist())):
        if j < n_oob:
            trade(ms, 0, q + (40 if rng.random() < 0.5 else -40))
        elif j < n_oob + n_str:
            lo_first = rng.random() < 0.5
            trade(ms, 0, q - 1 if lo_first else q + 1)
            trade(ms, 1, q + 1 if lo_first else q - 1)
        else:
            trade(ms, 0, q)
    recs.sort(key=lambda r: (r[0], r[1]))
    text = "log_t,bid,bidsz,ask,asksz,trade,tradesz\n" + "".join(r[2] + "\n" for r in recs)
    true_path = TickPath(
        v0=int(v0),
        t_start=0.0,
        t_end=float(stamps_ms[-1]) / 1000.0,
        times=stamps_ms / 1000.0,
        prices=np.asarray(prices, dtype=np.int64),
    )
    injected = {
        "quotes": n_quotes,
        "out_of_band": n_oob,
        "duplicate_fill": int(dup.sum()),
        "straddle": n_str,
        "repeat": n_rep,
    }
    return RawFeed(text=text, true_path=true_path, injected=injected)


def count_diagnostics(lines) -> tuple[dict[str, int], int | None]:
    """Diagnostic lines per rule, and the record count in the step-2 summary."""
    counts: dict[str, int] = {}
    dropped = None
    for line in lines:
        rule = line.split(":", 1)[0]
        counts[rule] = counts.get(rule, 0) + 1
        if rule == "step2":
            dropped = int(line.split()[2])
    return counts, dropped
