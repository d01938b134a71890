"""Tick-data cleaning: raw trade/quote records to an integer price path.

The pipeline condenses a raw feed into one integer tick price per time
stamp, suitable for event-based estimation:

1. optionally drop trades printing outside a band around the prevailing
   quotes (fat-finger / out-of-market prints);
2. keep trade records only;
3. collapse records sharing a time stamp to a single price -- the one
   closest to the previous resolved price, except that a straddle of
   exactly one tick above and one tick below the previous price is
   treated as no information (the previous price is kept);
4. drop consecutive repeats so every remaining row is a price change.

Every dropped or modified record is reported on a diagnostics stream with
the rule that fired (step 2 removals are summarised in one line: they are
structural, not data-quality events).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simulate import PricePath

__all__ = ["RawTick", "CleanConfig", "CleanResult", "clean_ticks", "read_raw_csv"]


@dataclass(frozen=True)
class RawTick:
    """One raw feed record; missing fields are None."""

    log_t: float
    bid: float | None = None
    bidsz: float | None = None
    ask: float | None = None
    asksz: float | None = None
    trade: float | None = None
    tradesz: float | None = None


@dataclass(frozen=True)
class CleanConfig:
    """Cleaning options.

    Parameters
    ----------
    tick_size : float
        Price currency units per tick; output prices are integer multiples.
    m_factor : float
        Half-band width in ticks for the quote filter (step 1).
    apply_step1 : bool
        Whether to run the quote-band filter; needs quotes in the feed.
    """

    tick_size: float
    m_factor: float = 9.5
    apply_step1: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tick_size) and self.tick_size > 0.0):
            raise ValueError(f"tick_size must be finite and > 0, got {self.tick_size!r}")
        if not (math.isfinite(self.m_factor) and self.m_factor > 0.0):
            raise ValueError(f"m_factor must be finite and > 0, got {self.m_factor!r}")


@dataclass(frozen=True)
class CleanResult:
    path: PricePath
    diagnostics: tuple[str, ...]


def _fmt(x: float) -> str:
    return repr(float(x))


def clean_ticks(records: Sequence[RawTick], config: CleanConfig) -> CleanResult:
    """Run the cleaning pipeline on time-sorted raw records.

    Raises ``ValueError`` for unsorted input or when fewer than two
    distinct price changes survive (no usable path).
    """
    diagnostics: list[str] = []
    last = None
    for rec in records:
        if not math.isfinite(rec.log_t):
            raise ValueError(f"record has nonfinite time stamp {rec.log_t!r}")
        if last is not None and rec.log_t < last:
            raise ValueError(f"records not sorted by time at t={_fmt(rec.log_t)}")
        last = rec.log_t

    # step 1: drop trades printing outside [bid - M*tick, ask + M*tick]
    survivors: list[RawTick] = []
    if config.apply_step1:
        band = config.m_factor * config.tick_size
        bid = ask = None
        for rec in records:
            if rec.bid is not None:
                bid = rec.bid
            if rec.ask is not None:
                ask = rec.ask
            if rec.trade is not None and bid is not None and ask is not None:
                lo, hi = bid - band, ask + band
                if not (lo <= rec.trade <= hi):
                    diagnostics.append(
                        f"step1: t={_fmt(rec.log_t)} dropped trade {_fmt(rec.trade)} "
                        f"outside band [{_fmt(lo)}, {_fmt(hi)}]"
                    )
                    rec = RawTick(
                        log_t=rec.log_t, bid=rec.bid, bidsz=rec.bidsz,
                        ask=rec.ask, asksz=rec.asksz, trade=None, tradesz=None,
                    )
            survivors.append(rec)
    else:
        survivors = list(records)

    # step 2: trades only
    trades = [rec for rec in survivors if rec.trade is not None]
    n_quotes = len(survivors) - len(trades)
    if n_quotes:
        diagnostics.append(f"step2: dropped {n_quotes} record(s) without a trade")

    # tick alignment: prices must sit on the grid
    aligned: list[tuple[float, int]] = []
    for rec in trades:
        if not math.isfinite(rec.trade) or rec.trade <= 0.0:
            diagnostics.append(f"tick-align: t={_fmt(rec.log_t)} rejected nonpositive trade {rec.trade!r}")
            continue
        ticks = round(rec.trade / config.tick_size)
        if abs(rec.trade - ticks * config.tick_size) > 1e-6 * abs(rec.trade):
            diagnostics.append(
                f"tick-align: t={_fmt(rec.log_t)} rejected trade {_fmt(rec.trade)} "
                f"off the {_fmt(config.tick_size)} grid"
            )
            continue
        aligned.append((rec.log_t, int(ticks)))

    # step 3: one price per time stamp (exact equality of recorded stamps)
    times: list[float] = []
    prices: list[int] = []
    prev: int | None = None
    i = 0
    while i < len(aligned):
        j = i
        while j < len(aligned) and aligned[j][0] == aligned[i][0]:
            j += 1
        stamp = aligned[i][0]
        cands = [p for _, p in aligned[i:j]]
        if len(cands) == 1:
            price = cands[0]
        elif prev is not None and len(cands) == 2 and sorted(cands) == [prev - 1, prev + 1]:
            # straddle one tick either side of the previous price: no information
            price = prev
            diagnostics.append(
                f"step3-2: t={_fmt(stamp)} pair {sorted(cands)} straddles previous {prev}; kept {prev}"
            )
        elif prev is None:
            price = cands[0]
            diagnostics.append(
                f"step3-1: t={_fmt(stamp)} {len(cands)} candidates {cands}, "
                f"no previous price; kept first {price}"
            )
        else:
            price = min(cands, key=lambda c: (abs(c - prev), cands.index(c)))
            diagnostics.append(
                f"step3-1: t={_fmt(stamp)} {len(cands)} candidates {cands}, "
                f"kept {price} (closest to previous {prev})"
            )
        times.append(stamp)
        prices.append(price)
        prev = price
        i = j

    # step 4: keep only genuine price changes
    out_t: list[float] = []
    out_p: list[int] = []
    for t, p in zip(times, prices):
        if out_p and p == out_p[-1]:
            diagnostics.append(f"step4: t={_fmt(t)} dropped repeat price {p}")
            continue
        out_t.append(t)
        out_p.append(p)

    if len(out_p) < 2:
        raise ValueError("cleaning left fewer than two price changes; no usable path")
    path = PricePath(
        v0=out_p[0],
        t_start=out_t[0],
        t_end=out_t[-1],
        times=np.asarray(out_t[1:]),
        jumps=np.diff(np.asarray(out_p, dtype=np.int64)),
    )
    return CleanResult(path=path, diagnostics=tuple(diagnostics))


def read_raw_csv(file) -> list[RawTick]:
    """Read a raw feed CSV with columns log_t,bid,bidsz,ask,asksz,trade,tradesz.

    Empty fields are missing values.  Extra columns are ignored; rows
    must at least carry a time stamp.
    """
    fields = ["log_t", "bid", "bidsz", "ask", "asksz", "trade", "tradesz"]
    out: list[RawTick] = []
    with open(file, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in fields if reader.fieldnames is None or c not in reader.fieldnames]
        if missing:
            raise ValueError(f"raw CSV is missing column(s) {missing}")
        for row in reader:
            vals = {}
            for col in fields:
                cell = (row.get(col) or "").strip()
                vals[col] = float(cell) if cell else None
            if vals["log_t"] is None:
                raise ValueError("raw CSV row without a time stamp")
            out.append(RawTick(**vals))
    return out
