"""Tests for the tick-data cleaning pipeline.

Each rule gets a minimal hand-checked unit case; a combined fixture that
fires every rule at least once is frozen as golden files and must
reproduce byte-identically.  Cleaning an already-clean series must be a
no-op (idempotence).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

import trawlprice.clean as clean
from trawlprice import (
    CleanConfig,
    RawColumns,
    RawTick,
    clean_ticks,
    read_raw_csv,
    write_path_csv,
)

DATA = Path(__file__).parent / "data"
CFG = CleanConfig(tick_size=0.25, m_factor=9.5, apply_step1=True)


def _trade(t: float, price: float) -> RawTick:
    return RawTick(log_t=t, trade=price, tradesz=1.0)


def _quote(t: float, bid: float, ask: float) -> RawTick:
    return RawTick(log_t=t, bid=bid, bidsz=1.0, ask=ask, asksz=1.0)


class TestQuoteBandFilter:
    def test_drops_trades_outside_m_ticks_of_quotes(self):
        # band is quotes +- 9.5 * 0.25 = 2.375 currency units
        recs = [
            _quote(0.0, 100.0, 100.5),
            _trade(1.0, 100.25),
            _trade(2.0, 102.9),   # above 100.5 + 2.375
            _trade(3.0, 97.50),   # below 100.0 - 2.375
            _trade(4.0, 102.75),  # exactly on the upper edge: kept
            _trade(5.0, 100.0),
        ]
        res = clean_ticks(recs, CFG)
        assert_array_equal(res.path.prices, [411, 400])  # 102.75, 100.00 in ticks
        fired = [d for d in res.diagnostics if d.startswith("step1:")]
        assert len(fired) == 2
        assert "t=2.0" in fired[0] and "t=3.0" in fired[1]

    def test_band_tracks_latest_quotes(self):
        recs = [
            _quote(0.0, 100.0, 100.5),
            _trade(1.0, 104.0),   # outside the first band
            _quote(2.0, 103.0, 103.5),
            _trade(3.0, 104.0),   # inside the updated band
            _trade(4.0, 103.75),
        ]
        res = clean_ticks(recs, CFG)
        assert res.path.v0 == 416  # 104.00
        assert sum(d.startswith("step1:") for d in res.diagnostics) == 1

    def test_step1_skipped_without_flag(self):
        recs = [_quote(0.0, 100.0, 100.5), _trade(1.0, 200.0), _trade(2.0, 100.0)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25, apply_step1=False))
        assert res.path.v0 == 800  # the out-of-band print survives
        assert not any(d.startswith("step1:") for d in res.diagnostics)


    def test_nan_bid_band_drops_trades_until_next_bid(self):
        recs = [
            _quote(0.0, 100.0, 100.5),
            _trade(1.0, 100.25),
            RawTick(log_t=2.0, bid=math.nan, ask=100.5),
            _trade(3.0, 100.0),   # the band [nan, ...] holds no price
            _quote(4.0, 100.0, 100.5),
            _trade(5.0, 100.5),
        ]
        res = clean_ticks(recs, CFG)
        assert_array_equal(res.path.prices, [402])
        assert [d for d in res.diagnostics if d.startswith("step1:")] == [
            "step1: t=3.0 dropped trade 100.0 outside band [nan, 102.875]"
        ]

    def test_bid_without_ask_leaves_trades_alone(self):
        recs = [RawTick(log_t=0.0, bid=100.0), _trade(1.0, 200.0), _trade(2.0, 100.0)]
        res = clean_ticks(recs, CFG)
        assert res.path.v0 == 800
        assert not any(d.startswith("step1:") for d in res.diagnostics)

class TestTradeOnly:
    def test_quotes_summarised_in_one_line(self):
        recs = [_quote(0.0, 1, 2), _quote(0.5, 1, 2), _trade(1.0, 100.0), _trade(2.0, 100.25)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        lines = [d for d in res.diagnostics if d.startswith("step2:")]
        assert lines == ["step2: dropped 2 record(s) without a trade"]


class TestTickAlignment:
    def test_off_grid_price_rejected(self):
        recs = [_trade(0.0, 100.0), _trade(1.0, 100.1), _trade(2.0, 100.25)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        assert_array_equal(res.path.prices, [401])
        assert any(d.startswith("tick-align:") and "100.1" in d for d in res.diagnostics)

    def test_nonpositive_price_rejected(self):
        recs = [_trade(0.0, 100.0), _trade(1.0, -3.0), _trade(2.0, 100.25)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        assert res.path.n_events == 1
        assert any("nonpositive" in d for d in res.diagnostics)


    @pytest.mark.parametrize("cell, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")])
    def test_nonfinite_trade_rejected(self, tmp_path, cell, shown):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "log_t,bid,bidsz,ask,asksz,trade,tradesz\n"
            f"0.0,,,,,100.0,1\n1.0,,,,,{cell},1\n2.0,,,,,100.25,1\n"
        )
        res = clean_ticks(read_raw_csv(raw), CleanConfig(tick_size=0.25))
        assert_array_equal(res.path.prices, [401])
        assert res.diagnostics == (f"tick-align: t=1.0 rejected nonpositive trade {shown}",)

    def test_price_beyond_int64_ticks_rejected(self):
        recs = [_trade(0.0, 100.0), _trade(1.0, 1e300), _trade(2.0, 100.25)]
        with pytest.raises(ValueError, match="int64"):
            clean_ticks(recs, CleanConfig(tick_size=0.25))

class TestDuplicateStamps:
    def test_closest_to_previous_wins(self):
        recs = [
            _trade(0.0, 100.0),
            _trade(1.0, 100.75),
            _trade(1.0, 100.25),
            _trade(1.0, 99.0),
        ]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        # previous price 400 ticks; candidates 403, 401, 396 -> 401
        assert_array_equal(res.path.prices, [401])
        assert any(d.startswith("step3-1:") for d in res.diagnostics)

    def test_tie_broken_by_arrival_order(self):
        recs = [_trade(0.0, 100.0), _trade(1.0, 100.5), _trade(1.0, 99.5)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        # 402 and 398 are equally far from 400: the first recorded wins
        assert_array_equal(res.path.prices, [402])

    def test_one_tick_straddle_keeps_previous_price(self):
        recs = [
            _trade(0.0, 100.0),
            _trade(1.0, 100.25),
            _trade(1.0, 99.75),
            _trade(2.0, 100.5),
        ]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        # the +-1 tick pair at t=1 carries no information: price stays 400,
        # so t=1 contributes no change and the only event is at t=2
        assert_array_equal(res.path.times, [2.0])
        assert_array_equal(res.path.prices, [402])
        assert any(d.startswith("step3-2:") for d in res.diagnostics)

    def test_straddle_rule_needs_previous_price(self):
        recs = [_trade(0.0, 100.25), _trade(0.0, 99.75), _trade(1.0, 100.5)]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        assert res.path.v0 == 401  # first candidate kept, with a diagnostic
        assert any("no previous price" in d for d in res.diagnostics)


    def test_straddle_after_a_multi_candidate_stamp(self):
        recs = [
            _trade(0.0, 100.0),
            _trade(1.0, 100.75),
            _trade(1.0, 100.25),  # closest to 400: resolves t=1 to 401
            _trade(2.0, 100.5),
            _trade(2.0, 100.0),   # 402 and 400 straddle 401: keep 401
            _trade(3.0, 99.0),
        ]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        assert_array_equal(res.path.times, [1.0, 3.0])
        assert_array_equal(res.path.prices, [401, 396])
        assert res.diagnostics == (
            "step3-1: t=1.0 2 candidates [403, 401], kept 401 (closest to previous 400)",
            "step3-2: t=2.0 pair [400, 402] straddles previous 401; kept 401",
            "step4: t=2.0 dropped repeat price 401",
        )

class TestCollapseRepeats:
    def test_adjacent_equal_prices_keep_first(self):
        recs = [
            _trade(0.0, 100.0),
            _trade(1.0, 100.25),
            _trade(2.0, 100.25),
            _trade(3.0, 100.25),
            _trade(4.0, 100.0),
        ]
        res = clean_ticks(recs, CleanConfig(tick_size=0.25))
        assert_array_equal(res.path.times, [1.0, 4.0])
        assert_array_equal(res.path.jumps, [1, -1])
        assert sum(d.startswith("step4:") for d in res.diagnostics) == 2


class TestValidation:
    def test_unsorted_records_rejected(self):
        recs = [_trade(1.0, 100.0), _trade(0.5, 100.25)]
        with pytest.raises(ValueError, match="not sorted"):
            clean_ticks(recs, CleanConfig(tick_size=0.25))

    def test_nonfinite_stamp_rejected(self):
        with pytest.raises(ValueError, match="nonfinite"):
            clean_ticks([_trade(math.nan, 100.0)], CleanConfig(tick_size=0.25))

    def test_too_few_changes_rejected(self):
        recs = [_trade(0.0, 100.0), _trade(1.0, 100.0)]
        with pytest.raises(ValueError, match="fewer than two"):
            clean_ticks(recs, CleanConfig(tick_size=0.25))

    @pytest.mark.parametrize("kwargs", [
        {"tick_size": 0.0}, {"tick_size": -1.0}, {"tick_size": math.inf},
        {"tick_size": 0.25, "m_factor": 0.0}, {"tick_size": 0.25, "m_factor": math.nan},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CleanConfig(**kwargs)


HEADER = "log_t,bid,bidsz,ask,asksz,trade,tradesz\n"
NAN, INF = math.nan, math.inf

# (csv text, the RawTick tuples read, or the ValueError message pattern)
RAW_EDGES = {
    "recorded-nan-inf": (HEADER + "0.5,nan,1,inf,2,-inf,3\n", [(0.5, NAN, 1.0, INF, 2.0, -INF, 3.0)]),
    "spaces": (HEADER + " 0.5 , 1.25,,\t2 ,  ,3 ,4\n", [(0.5, 1.25, None, 2.0, None, 3.0, 4.0)]),
    "quoted-cells": (HEADER + '"0.5","1.25",""," ",,"3",4\n', [(0.5, 1.25, None, None, None, 3.0, 4.0)]),
    "extra-columns": (
        "log_t,venue,bid,bidsz,ask,asksz,trade,tradesz,flag\n0.5,X,1,2,3,4,5,6,y\n",
        [(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)],
    ),
    "reordered-columns": (
        "trade,log_t,tradesz,ask,asksz,bid,bidsz\n5,0.5,6,3,4,1,2\n",
        [(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)],
    ),
    "duplicate-names": (
        "log_t,bid,bidsz,ask,asksz,trade,tradesz,trade\n0.5,1,2,3,4,99,6,5\n",
        [(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)],  # the last of a repeated name is read
    ),
    "blank-lines": (
        HEADER + "0.5,,,,,1,1\n\n1.5,,,,,2,1\n\n",
        [(0.5, None, None, None, None, 1.0, 1.0), (1.5, None, None, None, None, 2.0, 1.0)],
    ),
    "crlf": (HEADER.replace("\n", "\r\n") + "0.5,1,2,3,4,,\r\n", [(0.5, 1.0, 2.0, 3.0, 4.0, None, None)]),
    "header-only": (HEADER, []),
    "long-row": (HEADER + "0.5,,,,,1,1,7,8\n", [(0.5, None, None, None, None, 1.0, 1.0)]),
    "underscore-digits": (HEADER + "0.5,,,,,1_00.0,1\n", [(0.5, None, None, None, None, 100.0, 1.0)]),
    "quoted-comma-ignored": (
        "log_t,note,bid,bidsz,ask,asksz,trade,tradesz\n0.5,\"a,b\",,,,,1,1\n",
        [(0.5, None, None, None, None, 1.0, 1.0)],
    ),
    "non-ascii-ignored": (
        "log_t,note,bid,bidsz,ask,asksz,trade,tradesz\n0.5,\u20acuro \u00e9t\u00e9,,,,,1,1\n",
        [(0.5, None, None, None, None, 1.0, 1.0)],
    ),
    "missing-stamp": (HEADER + ",,,,,1.0,1\n", "row without a time stamp"),
    "short-row": (HEADER + "0.5,,,,,1,1\n1.5,,,,\n", r"^raw CSV line 3 ends after 5 cell\(s\), before column 'trade'$"),
    "non-ascii-space-in-number": (
        HEADER + "0.5,,,,,\u00a01.5,1\n", r"^raw CSV line 2, column 'trade': '\\xa01.5' is not a number$"
    ),
    "bad-cell": (HEADER + "0.5,,,,,1,1\n1.5,abc,,,,1,1\n", r"^raw CSV line 3, column 'bid': 'abc' is not a number$"),
    "cr-line-ends": (
        HEADER.replace("\n", "\r") + "0.5,,,,,1,1\r1.5,,,,,x,1\r",
        r"^raw CSV line 3, column 'trade': 'x' is not a number$",
    ),
    "quoted-line-end-in-header": (
        'log_t,"a\r\nb",bid,bidsz,ask,asksz,trade,tradesz\r\n0.5,x,,,,,1,1\r\n1.5,y,z,,,,1,1\r\n',
        r"^raw CSV line 4, column 'bid': 'z' is not a number$",
    ),
}


NOTE_HEADER = b"log_t,note,bid,bidsz,ask,asksz,trade,tradesz\n"
BOM = b"\xef\xbb\xbf"

# (feed bytes, the RawTick tuples read, or the ValueError message pattern):
# every feed is decoded as UTF-8 whatever the locale, a bad byte as U+FFFD
BYTE_EDGES = {
    "latin-1-ignored": (NOTE_HEADER + b"0.5,caf\xe9,,,,,1,1\n", [(0.5, None, None, None, None, 1.0, 1.0)]),
    "latin-1-in-ignored-name": (
        b"log_t,caf\xe9,bid,bidsz,ask,asksz,trade,tradesz\n0.5,x,,,,,1,1\n", [(0.5, None, None, None, None, 1.0, 1.0)]
    ),
    "byte-order-mark": (BOM + HEADER.encode() + b"0.5,,,,,1,1\n", [(0.5, None, None, None, None, 1.0, 1.0)]),
    "byte-order-mark-quoted": (BOM + HEADER.encode() + b'0.5,,,,,"1",1\n', [(0.5, None, None, None, None, 1.0, 1.0)]),
    "byte-order-mark-crlf": (
        BOM + HEADER.replace("\n", "\r\n").encode() + b"0.5,,,,,1,1\r\n", [(0.5, None, None, None, None, 1.0, 1.0)]
    ),
    "latin-1-in-read-cell": (
        HEADER.encode() + b"0.5,,,,,1,1\n1.5,,,,,\xe91.5,1\n",
        r"^raw CSV line 3, column 'trade': '\ufffd1.5' is not a number$",
    ),
    "truncated-utf-8-in-read-cell": (
        NOTE_HEADER + b"0.5,\xe2\x82,\xe2\x82,,,,1,1\n", r"^raw CSV line 2, column 'bid': '\ufffd' is not a number$"
    ),
}


class TestRawCsv:
    def test_reads_fixture(self):
        recs = read_raw_csv(DATA / "raw_ticks.csv")
        assert len(recs) == 17
        assert recs[0].bid == 1498.25 and recs[0].trade is None
        assert recs[1].trade == 1498.50 and recs[1].bid is None

    def test_reads_columns(self):
        recs = read_raw_csv(DATA / "raw_ticks.csv")
        assert isinstance(recs, RawColumns) and recs.values.shape == recs.present.shape == (17, 7)
        assert list(recs[1:3]) == [recs[1], recs[2]] and recs[-1] == recs[16]
        assert list(RawColumns.from_ticks(list(recs))) == list(recs)

    @pytest.mark.parametrize(
        "text, expected", [*RAW_EDGES.values(), *BYTE_EDGES.values()], ids=[*RAW_EDGES, *BYTE_EDGES]
    )
    def test_edge_inputs(self, tmp_path, text, expected):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                read_raw_csv(raw)
        else:  # compared as repr so that nan equals nan
            assert repr([dataclasses.astuple(r) for r in read_raw_csv(raw)]) == repr(expected)

    @pytest.mark.parametrize("body, error", [
        ("0.5,,,,,1,1\n", None),  # plain: the one float parse
        ('0.5,,,,,"1",1\n', None),  # quoted: the cell-by-cell reader
        ("0.5,,,,,1,1\n1.5,,,,,x,1\n", "raw CSV line 3, column 'trade': 'x' is not a number"),
    ], ids=["plain", "quoted", "bad-cell"])
    def test_opens_the_feed_once(self, tmp_path, monkeypatch, body, error):
        raw = tmp_path / "raw.csv"
        raw.write_text(HEADER + body)
        opened = []
        monkeypatch.setattr(clean, "open", lambda *args, **kw: opened.append(args) or open(*args, **kw), raising=False)
        assert _outcome(read_raw_csv, raw) == (error or _outcome(clean._read_cells, *_split(raw.read_bytes())))
        assert opened == [(raw, "rb")]

    def test_missing_column_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("log_t,bid\n0.0,1.0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_raw_csv(bad)

    def test_missing_stamp_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("log_t,bid,bidsz,ask,asksz,trade,tradesz\n,,,,,1.0,1\n")
        with pytest.raises(ValueError, match="time stamp"):
            read_raw_csv(bad)


# (csv text, whether read_raw_csv parses it in one pass)
FAST_EDGES = {
    "crlf": (HEADER.replace("\n", "\r\n") + "0.5,1,2,3,4,,\r\n\r\n1.5,,,,,2,1\r\n", True),
    "trailing-empty-cell": (HEADER + "0.5,1,2,3,4,5,\n1.5,1,2,3,4,5,", True),
    "stamp-only-row": (HEADER + "0.5,,,,,,\n1.5,,,,,,", True),
    "reordered-repeated-columns": (
        "trade,log_t,tradesz,ask,asksz,bid,bidsz,trade\n9,0.5,6,,4,1,2,5\n,1.5,,3,,,,\n,2.5,,,,,,7\n", True
    ),
    "number-forms": (HEADER + "1E5,+.5,-0,1e400,-1e400,1e-400,5.\n", True),
    "blank-lines": (HEADER + "\n0.5,,,,,1,1\n\n\n1.5,,,,,2,1\n", True),
    "header-only": (HEADER, True),
    "short-row": (HEADER + "0.5,,,,,1,1\n1.5,,,,\n", False),
    "lone-minus": (HEADER + "0.5,,,,,1,1\n1.5,-,,,,1,1\n", False),
    "quote": (HEADER + '0.5,,,,,"1",1\n', False),
    "space": (HEADER + "0.5, 1 ,,,,1,1\n", False),
    "recorded-nan": (HEADER + "0.5,nan,,,,1,1\n", False),
    "underscore-digits": (HEADER + "0.5,,,,,1_00.0,1\n", False),
    "lone-cr": (HEADER + "0.5,,,,,1,1\r1.5,,,,,2,1\n", False),
}


def _outcome(read, *args):
    """What ``read(*args)`` makes of a feed: its columns as bytes, or its error text."""
    try:
        cols = read(*args)
    except ValueError as exc:
        return str(exc)
    return cols.values.shape, cols.values.tobytes(), cols.present.tobytes()


def _split(data: bytes) -> tuple[bytes, int, list[int]]:
    """The feed ``data``, the offset of its body and the positions of its seven columns, as the readers take them."""
    usecols, start = clean._usecols(data)
    return data, start, usecols


PLAIN_NUMBER = st.one_of(
    st.just(""),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1E5", "+.5", "-0", "1e400", "-1e-400", "5.", "+1e+3", "007"]),
)


class TestFastPath:
    """A plain numeric body is read in one float parse, cell for cell as the fallback reads it."""

    @pytest.mark.parametrize("text, plain", FAST_EDGES.values(), ids=FAST_EDGES.keys())
    def test_agrees_with_fallback(self, tmp_path, text, plain):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(text.encode("ascii"))
        data, start, usecols = _split(raw.read_bytes())
        assert (clean._read_plain(data[start:], usecols) is not None) == plain
        assert _outcome(read_raw_csv, raw) == _outcome(clean._read_cells, data, start, usecols)

    @given(
        rows=st.lists(
            st.one_of(
                st.just([]),  # a blank line
                st.lists(PLAIN_NUMBER, min_size=7, max_size=9),
                st.lists(st.one_of(PLAIN_NUMBER, st.text("0123456789.+-eE", min_size=1, max_size=4)), max_size=9),
            ),
            max_size=6,
        ),
        line_end=st.sampled_from(["\n", "\r\n"]),
        final_end=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_plain_bodies_agree_with_fallback(self, rows, line_end, final_end):
        body = line_end.join(",".join(row) for row in rows)
        data, start, usecols = _split((HEADER.replace("\n", line_end) + body + line_end * final_end).encode("ascii"))
        values, expected = clean._read_plain(data[start:], usecols), _outcome(clean._read_cells, data, start, usecols)
        if isinstance(expected, str):  # the fallback rejects the body, and names the bad row
            assert values is None
        else:  # every plain body the fallback reads takes the fast path
            assert values is not None
            assert (values.shape, values.tobytes(), (~np.isnan(values)).tobytes()) == expected


def _synthetic_feed(seed: int, n: int = 400) -> str:
    """A feed with quoted cells, a recorded-nan bid, duplicate stamps and one-tick straddles."""
    rng = np.random.default_rng(seed)
    price, t, lines = 400, 0.0, [HEADER.rstrip("\n")]
    for k in range(n):
        t += float(rng.integers(1, 4)) * 0.001
        stamp = f"{t:.3f}"
        price += int(rng.choice([-1, 1]))
        if k % 7 == 0:
            bid = "nan" if k % 35 == 0 else repr((price - 1) * 0.25)
            lines.append(f'{stamp},{bid},3,"{(price + 1) * 0.25!r}",4,,')
        if k % 11 == 0:  # a straddle of the previous price at its own stamp
            lines += [f"{stamp},,,,,{(price - 1) * 0.25!r},1", f"{stamp},,,,,{(price + 1) * 0.25!r},1"]
            continue
        lines.append(f'{stamp},,,,,"{price * 0.25!r}",2')
        if k % 5 == 0:  # a second fill at the same stamp
            lines.append(f"{stamp},,,,,{(price + 2) * 0.25!r},1")
    return "\n".join(lines) + "\n"


class TestInputForms:
    """``clean_ticks`` cleans a ``RawTick`` list exactly as the columns it was read from."""

    @pytest.mark.parametrize("source", ["golden", "synthetic"])
    def test_list_and_columns_clean_alike(self, tmp_path, source):
        raw = DATA / "raw_ticks.csv"
        if source == "synthetic":
            raw = tmp_path / "raw.csv"
            raw.write_text(_synthetic_feed(5))
        cols = read_raw_csv(raw)
        from_list, from_cols = clean_ticks(list(cols), CFG), clean_ticks(cols, CFG)
        assert from_list.path.v0 == from_cols.path.v0
        assert_array_equal(from_list.path.times, from_cols.path.times)
        assert_array_equal(from_list.path.jumps, from_cols.path.jumps)
        assert from_list.diagnostics == from_cols.diagnostics
        fired = {d.split()[0] for d in from_cols.diagnostics}
        assert {"step3-1:", "step3-2:", "step4:"} <= fired


class TestGoldenFiles:
    """The combined fixture fires every rule; outputs are frozen."""

    def _clean_fixture(self):
        return clean_ticks(read_raw_csv(DATA / "raw_ticks.csv"), CFG)

    def test_output_matches_golden_bytes(self, tmp_path):
        res = self._clean_fixture()
        write_path_csv(res.path, tmp_path / "clean.csv", tmp_path / "clean.json")
        assert (tmp_path / "clean.csv").read_bytes() == (DATA / "clean_expected.csv").read_bytes()
        assert (tmp_path / "clean.json").read_bytes() == (DATA / "clean_expected.json").read_bytes()

    def test_diagnostics_match_golden(self):
        res = self._clean_fixture()
        expected = (DATA / "clean_expected_diagnostics.txt").read_text().splitlines()
        assert list(res.diagnostics) == expected

    def test_every_rule_fires_in_fixture(self):
        prefixes = {d.split()[0] for d in self._clean_fixture().diagnostics}
        assert prefixes == {
            "step1:", "step2:", "tick-align:", "step3-1:", "step3-2:", "step4:",
        }

    def test_idempotent(self):
        first = self._clean_fixture().path
        stamps = np.concatenate([[first.t_start], first.times])
        levels = np.concatenate([[first.v0], first.prices])
        again = clean_ticks(
            [_trade(float(t), float(p) * 0.25) for t, p in zip(stamps, levels)],
            CleanConfig(tick_size=0.25),  # clean output has no quotes: no step 1
        ).path
        assert again.v0 == first.v0
        assert again.t_start == first.t_start and again.t_end == first.t_end
        assert_array_equal(again.times, first.times)
        assert_array_equal(again.jumps, first.jumps)
