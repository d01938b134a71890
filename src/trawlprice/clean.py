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
import io
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .simulate import PricePath

__all__ = ["RawTick", "RawColumns", "CleanConfig", "CleanResult", "clean_ticks", "read_raw_csv"]


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


_FIELDS = tuple(f.name for f in fields(RawTick))


class RawColumns(Sequence[RawTick]):
    """A raw feed held as columns, read as a sequence of :class:`RawTick`.

    ``values`` is an ``(n, 7)`` float array with one column per
    :class:`RawTick` field, in field order; ``present`` is a boolean
    array of the same shape, false where a cell is missing.  A recorded
    ``nan`` is a present cell.  Indexing builds a :class:`RawTick` on
    demand.
    """

    def __init__(self, values: np.ndarray, present: np.ndarray):
        self.values = values
        self.present = present

    @classmethod
    def from_ticks(cls, records: Sequence[RawTick]) -> "RawColumns":
        """The columns of ``records``; a field holding None is missing."""
        flat = itertools.chain.from_iterable(map(operator.attrgetter(*_FIELDS), records))
        cells = np.fromiter(flat, dtype=object, count=len(_FIELDS) * len(records)).reshape(-1, len(_FIELDS))
        return cls(cells.astype(float), np.not_equal(cells, None))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RawColumns(self.values[i], self.present[i])
        return RawTick(*(float(v) if p else None for v, p in zip(self.values[i], self.present[i])))


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

    ``records`` is the :class:`RawColumns` that :func:`read_raw_csv`
    returns, or any sequence of :class:`RawTick`, which is first turned
    into columns by :meth:`RawColumns.from_ticks`.  Each rule is one
    array operation over the columns, except that a stamp holding
    several trades is resolved from the price before it.

    Raises ``ValueError`` for unsorted input or when fewer than two
    distinct price changes survive (no usable path).
    """
    cols = records if isinstance(records, RawColumns) else RawColumns.from_ticks(records)
    log_t, bid, _, ask, _, trade, _ = cols.values.T
    stamped, has_bid, _, has_ask, _, has_trade, _ = cols.present.T
    diagnostics: list[str] = []

    bad = ~np.isfinite(log_t)
    bad[1:] |= log_t[1:] < log_t[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        if not math.isfinite(log_t[i]):
            stamp = float(log_t[i]) if stamped[i] else None
            raise ValueError(f"record has nonfinite time stamp {stamp!r}")
        raise ValueError(f"records not sorted by time at t={_fmt(log_t[i])}")

    # step 1: drop trades printing outside [bid - M*tick, ask + M*tick] of the latest quotes
    if config.apply_step1:
        rows = np.arange(log_t.size)[:, None]
        last_bid, last_ask = np.maximum.accumulate(np.where(np.column_stack([has_bid, has_ask]), rows, -1), axis=0).T
        band = config.m_factor * config.tick_size
        lo, hi = bid[last_bid] - band, ask[last_ask] + band
        outside = has_trade & (last_bid >= 0) & (last_ask >= 0) & ~((lo <= trade) & (trade <= hi))
        for i in np.flatnonzero(outside):
            diagnostics.append(
                f"step1: t={_fmt(log_t[i])} dropped trade {_fmt(trade[i])} "
                f"outside band [{_fmt(lo[i])}, {_fmt(hi[i])}]"
            )
        has_trade = has_trade & ~outside
        del rows, last_bid, last_ask, lo, hi

    # step 2: trades only
    n_quotes = int(np.count_nonzero(~has_trade))
    if n_quotes:
        diagnostics.append(f"step2: dropped {n_quotes} record(s) without a trade")

    # tick alignment: prices must sit on the grid (np.round rounds half to even, as round does)
    with np.errstate(invalid="ignore"):
        ticks = np.round(trade / config.tick_size)
        off_grid = np.abs(trade - ticks * config.tick_size) > 1e-6 * np.abs(trade)
    nonpositive = ~(np.isfinite(trade) & (trade > 0.0))
    rejected = has_trade & (nonpositive | off_grid)
    for i in np.flatnonzero(rejected):
        if nonpositive[i]:
            diagnostics.append(f"tick-align: t={_fmt(log_t[i])} rejected nonpositive trade {_fmt(trade[i])}")
        else:
            diagnostics.append(
                f"tick-align: t={_fmt(log_t[i])} rejected trade {_fmt(trade[i])} "
                f"off the {_fmt(config.tick_size)} grid"
            )
    aligned = has_trade & ~rejected
    if np.any(np.abs(ticks[aligned]) >= 2.0**63):
        raise ValueError("a trade price exceeds the int64 range of tick counts")
    t, p = log_t[aligned], ticks[aligned].astype(np.int64)

    # step 3: one price per time stamp (exact equality of recorded stamps)
    stamps, starts, counts = np.unique(t, return_index=True, return_counts=True)
    prices = p[starts]
    for g in np.flatnonzero(counts > 1):
        cands = p[starts[g]:starts[g] + counts[g]].tolist()
        prev = int(prices[g - 1]) if g else None
        if prev is not None and len(cands) == 2 and sorted(cands) == [prev - 1, prev + 1]:
            # straddle one tick either side of the previous price: no information
            price = prev
            diagnostics.append(
                f"step3-2: t={_fmt(stamps[g])} pair {sorted(cands)} straddles previous {prev}; kept {prev}"
            )
        elif prev is None:
            price = cands[0]
            diagnostics.append(
                f"step3-1: t={_fmt(stamps[g])} {len(cands)} candidates {cands}, "
                f"no previous price; kept first {price}"
            )
        else:
            price = min(cands, key=lambda c: (abs(c - prev), cands.index(c)))
            diagnostics.append(
                f"step3-1: t={_fmt(stamps[g])} {len(cands)} candidates {cands}, "
                f"kept {price} (closest to previous {prev})"
            )
        prices[g] = price

    # step 4: keep only genuine price changes
    repeat = np.zeros(prices.size, dtype=bool)
    repeat[1:] = prices[1:] == prices[:-1]
    for i in np.flatnonzero(repeat):
        diagnostics.append(f"step4: t={_fmt(stamps[i])} dropped repeat price {int(prices[i])}")
    out_t, out_p = stamps[~repeat], prices[~repeat]

    if out_p.size < 2:
        raise ValueError("cleaning left fewer than two price changes; no usable path")
    path = PricePath(
        v0=int(out_p[0]),
        t_start=float(out_t[0]),
        t_end=float(out_t[-1]),
        times=out_t[1:],
        jumps=np.diff(out_p),
    )
    return CleanResult(path=path, diagnostics=tuple(diagnostics))


def read_raw_csv(file) -> RawColumns:
    """Read a raw feed CSV with columns log_t,bid,bidsz,ask,asksz,trade,tradesz.

    Returns the feed as :class:`RawColumns`.  A cell that is empty,
    whitespace only or a quoted empty string is a missing value; a
    recorded ``nan`` is a value.  Extra columns are ignored, and when a
    column name repeats, its last occurrence is read.  Rows must carry a
    time stamp.  ``file`` is read once, so it may be a pipe, and decoded
    as UTF-8 whatever the locale, skipping a leading byte-order mark; a
    byte that is not UTF-8 reads as U+FFFD.  A feed whose body holds only
    plain numbers, commas and line ends is parsed in one pass, undecoded;
    the meaning of a cell does not depend on the path taken.

    Raises ``ValueError`` naming the line for a row that ends before one
    of the seven columns, and naming the line, column and cell for a
    cell that is not a number.  A number is read as ASCII text, so a
    non-ASCII character in a read cell (e.g. U+00A0 or U+FFFD) makes it
    not a number; in an ignored column it does no harm.
    """
    with open(file, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    usecols, start = _usecols(data)
    values = _read_plain(data[start:], usecols)
    cols = _read_cells(data, start, usecols) if values is None else RawColumns(values, ~np.isnan(values))
    if not cols.present[:, 0].all():
        raise ValueError("raw CSV row without a time stamp")
    return cols


_decode = operator.methodcaller("decode", "utf-8", "replace")  # a feed's bytes as text, whatever the locale
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")  # one line, ended as open(newline="") ends it
_PLAIN = b"0123456789.,+-eE\n"  # and "\r", but only as part of "\r\n"


def _usecols(data: bytes) -> tuple[list[int], int]:
    """The positions of the seven columns in field order, from the header of ``data``; and the offset of its body."""
    lines = _LINE.finditer(data)
    header = next(csv.reader(_decode(line.group()) for line in lines), None)
    start = next(lines, None)  # the reader took only the header's lines (more than one inside quotes)
    missing = [c for c in _FIELDS if header is None or c not in header]
    if missing:
        raise ValueError(f"raw CSV is missing column(s) {missing}")
    position = {name: j for j, name in enumerate(header)}  # the last of a repeated name, as csv.DictReader
    return [position[c] for c in _FIELDS], len(data) if start is None else start.start()


def _read_plain(body: bytes, usecols: list[int]) -> np.ndarray | None:
    """The values of a plain feed ``body``, in one float parse with no decoding; None for any other body.

    A plain body holds only the bytes of :data:`_PLAIN`.  It has no
    quote, no space and no recorded ``nan``, so its missing cells are
    exactly its empty ones: each gets ``nan``, and a cell is present
    where its value is not nan.  A body that does not parse is left to
    :func:`_read_cells`, which names the bad row.
    """
    if body.translate(None, _PLAIN) != b"\r" * body.count(b"\r\n"):
        return None
    # an empty cell lies between two commas, or between a comma and the
    # start or end of the body or of a line.  In a run of empty cells one
    # ",," pass fills every other cell, so a second pass fills the rest.
    # Rebinding ``body`` frees each copy: only the filled text is held
    # during the parse.
    body = b"nan" * body.startswith(b",") + body + b"nan" * body.endswith(b",")
    for empty in (b",,", b",,", b"\n,", b",\r", b",\n"):
        body = body.replace(empty, empty[:1] + b"nan" + empty[1:])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on blank lines and on no rows
            return np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2, usecols=usecols)
    except ValueError:
        return None


def _read_cells(data: bytes, start: int, usecols: list[int]) -> RawColumns:
    """The columns of the body ``data[start:]``, cell by cell: each cell is decoded, stripped and converted."""
    text = io.StringIO(_decode(data[start:]), newline="")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on blank lines and on no rows
            cells = np.loadtxt(text, delimiter=",", dtype=bytes, quotechar='"', comments=None, ndmin=2, usecols=usecols)
        present = np.char.strip(cells) != b""
        values = np.full(cells.shape, np.nan)
        values[present] = cells[present].astype(float)
    except ValueError as exc:
        located = _locate_bad_row(data, start, usecols)
        if located is None:
            raise
        raise located from exc
    return RawColumns(values, present)


def _locate_bad_row(data: bytes, start: int, usecols: list[int]) -> ValueError | None:
    """The error naming the first row of the body ``data[start:]`` that the columnar read rejects, or None."""
    above = len(_LINE.findall(data, 0, start))  # the header's lines
    reader = csv.reader(_decode(line.group()) for line in _LINE.finditer(data, start))
    for row in reader:
        if not row:
            continue  # a blank line holds no row
        line = above + reader.line_num
        for name, j in zip(_FIELDS, usecols):
            if j >= len(row):
                return ValueError(f"raw CSV line {line} ends after {len(row)} cell(s), before column {name!r}")
            try:
                cell = np.bytes_(row[j].encode("latin-1"))  # as np.loadtxt stores text as bytes
                if cell.strip():
                    cell.astype(float)
            except ValueError:
                return ValueError(f"raw CSV line {line}, column {name!r}: {row[j]!r} is not a number")
    return None
