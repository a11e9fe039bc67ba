"""Tests for quote parsing, exact quantization, and contract splicing."""

from __future__ import annotations

import calendar as _cal
import csv
import io
import random
from datetime import date, datetime, timedelta, timezone
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_continuous import build_continuous_by_sample
from reference_ingest import parse_ticks_by_row

from persistick import ingest
from persistick.core import Sample
from persistick.ingest import (
    CalendarError,
    InstrumentSpec,
    RollRule,
    SpliceError,
    TickParseError,
    TickSeries,
    build_continuous,
    dequantize,
    parse_ticks,
    parse_timestamp,
    quantize,
)

DATA = Path(__file__).parent / "data"
DAY_NS = 86_400 * 10**9
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class TestQuantize:
    def test_plain_rounding(self):
        assert quantize("1.23457", "0.0001") == 12346
        assert quantize("1.23452", "0.0001") == 12345
        assert quantize(100, 1) == 100

    def test_half_to_even_both_directions(self):
        # 12345.5 rounds down to the even 12346? no: 12346 is even, 12345.5
        # sits between 12345 (odd) and 12346 (even) -> up; 12344.5 sits
        # between 12344 (even) and 12345 (odd) -> down.
        assert quantize("123.455", "0.01") == 12346
        assert quantize("123.445", "0.01") == 12344
        assert quantize("2.5", 1) == 2
        assert quantize("3.5", 1) == 4

    def test_fraction_and_decimal_inputs(self):
        assert quantize(Fraction(1, 3), Fraction(1, 300)) == 100
        assert quantize(Decimal("0.75"), Decimal("0.25")) == 3

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            quantize(1.23, "0.01")
        with pytest.raises(TypeError):
            quantize("1.23", 0.01)
        with pytest.raises(TypeError):
            dequantize(5, 0.01)

    def test_dequantize_exact(self):
        assert dequantize(12346, "0.0001") == Fraction(12346, 10000)
        assert isinstance(dequantize(3, "0.5"), Fraction)

    @given(
        ticks=st.integers(min_value=-(10**9), max_value=10**9),
        num=st.integers(min_value=1, max_value=1000),
        den=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=100)
    def test_round_trip_is_identity(self, ticks, num, den):
        size = Fraction(num, den)
        assert quantize(dequantize(ticks, size), size) == ticks


class TestParseTimestamp:
    def test_epoch_ns_passthrough(self):
        assert parse_timestamp("1704187802000000000") == 1704187802000000000
        assert parse_timestamp(" 42 ") == 42

    def test_iso_variants_agree(self):
        want = 1704187800 * 10**9
        assert parse_timestamp("2024-01-02T09:30:00Z") == want
        assert parse_timestamp("2024-01-02T09:30:00+00:00") == want
        assert parse_timestamp("2024-01-02T09:30:00") == want  # naive = UTC
        assert parse_timestamp("2024-01-02T10:30:00+01:00") == want

    def test_fractional_seconds(self):
        base = 1704187800 * 10**9
        assert parse_timestamp("2024-01-02T09:30:00.250000Z") == base + 250_000_000

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_timestamp("not-a-time")


class TestParseTicks:
    def test_fixture_head_frozen(self):
        with open(DATA / "quotes_1k.csv") as f:
            samples = parse_ticks(f, InstrumentSpec("0.01"))
        assert len(samples) == 1000
        assert samples[:6] == [
            Sample(1704187802000000000, 12354),
            Sample(1704187806000000000, 12352),
            Sample(1704187807000000000, 12347),
            Sample(1704187809000000000, 12355),
            Sample(1704187811000000000, 12350),
            Sample(1704187813000000000, 12346),
        ]

    def test_fixture_matches_independent_decimal_route(self):
        # Recompute every row with Decimal half-even arithmetic and a
        # separate epoch conversion; the parser must agree exactly.
        expected: list[Sample] = []
        with open(DATA / "quotes_1k.csv", newline="") as f:
            for ts, bid, ask in csv.reader(f):
                s = ts.strip()
                if s.endswith("Z"):
                    s = s[:-1] + "+00:00"
                dt = datetime.fromisoformat(s)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                ns = _cal.timegm(dt.utctimetuple()) * 10**9 + dt.microsecond * 1000
                mid = (Decimal(bid) + Decimal(ask)) / 2
                ticks = int(
                    (mid / Decimal("0.01")).to_integral_value(rounding=ROUND_HALF_EVEN)
                )
                expected.append(Sample(ns, ticks))
        with open(DATA / "quotes_1k.csv") as f:
            samples = parse_ticks(f, InstrumentSpec("0.01"))
        assert samples == expected

    def test_fixture_times_sorted(self):
        with open(DATA / "quotes_1k.csv") as f:
            samples = parse_ticks(f, InstrumentSpec("0.01"))
        assert all(b.time > a.time for a, b in zip(samples, samples[1:]))

    def test_price_only_layout(self):
        stream = io.StringIO("0,5\n1,6\n2,4\n")
        samples = parse_ticks(stream, InstrumentSpec(1), columns="time,price")
        assert samples == [Sample(0, 5), Sample(1, 6), Sample(2, 4)]

    def test_custom_delimiter(self):
        stream = io.StringIO("0;1.5;2.5\n")
        samples = parse_ticks(
            stream, InstrumentSpec("0.5"), columns="time,bid,ask", delimiter=";"
        )
        assert samples == [Sample(0, 4)]

    def test_blank_lines_skipped(self):
        stream = io.StringIO("0,5\n\n   \n1,6\n")
        samples = parse_ticks(stream, InstrumentSpec(1), columns="time,price")
        assert [s.value for s in samples] == [5, 6]

    def test_unsupported_layout(self):
        with pytest.raises(ValueError):
            parse_ticks(io.StringIO(""), InstrumentSpec(1), columns="bid,ask,time")


class TestParseErrors:
    def test_bad_rows_collected_with_line_numbers(self):
        stream = io.StringIO(
            "0,1.0,1.1\n"  # ok
            "1,oops,1.2\n"  # bad price
            "frog,1.0,1.1\n"  # bad timestamp
            "3,1.0\n"  # wrong field count
            "4,1.3,1.2\n"  # crossed
            "5,-1.0,1.0\n"  # non-positive mid? mid = 0 -> non-positive
        )
        with pytest.raises(TickParseError) as ei:
            parse_ticks(stream, InstrumentSpec("0.1"))
        lines = [ln for ln, _ in ei.value.errors]
        assert lines == [2, 3, 4, 5, 6]
        assert "line 2" in str(ei.value)
        assert "crossed" in str(ei.value)

    @pytest.mark.parametrize("path", [parse_ticks, parse_ticks_by_row])
    @pytest.mark.parametrize("source", ["universal", "translated", "lf"])
    @pytest.mark.parametrize("block_chars", [7, 3 << 20])
    @pytest.mark.parametrize(
        "text, want",
        [
            (
                "10,1.0,1.1\n20,1.0,1.1\n15,1.0,1.1\njunk,row\n",
                (3, "timestamp decreases (15 after 20)"),
            ),
            # From the "lf" source the bare CR makes line 3 unreadable; it is never reached.
            ("10,1.0,1.1\n5,1.0,1.1\n6,1.0\r,1.1\nbad\n", (2, "timestamp decreases (5 after 10)")),
        ],
    )
    def test_decreasing_timestamp_fails_immediately(self, path, source, block_chars, text, want):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            with pytest.raises(TickParseError) as ei:
                path(_SOURCES[source](text), InstrumentSpec("0.1"))
        assert ei.value.errors == [want]  # later rows never reached
        assert f"line {want[0]}" in str(ei.value)

    def test_equal_timestamps_allowed(self):
        stream = io.StringIO("10,1.0,1.1\n10,1.2,1.3\n")
        samples = parse_ticks(stream, InstrumentSpec("0.1"))
        assert len(samples) == 2

    @pytest.mark.parametrize("path", [parse_ticks, parse_ticks_by_row])
    def test_bare_cr_in_a_line_without_universal_newlines(self, path):
        stream = io.StringIO("0,1.0,1.1\n1,1.0\r,1.1\n2,1.0,1.1\n", newline="\n")
        with pytest.raises(TickParseError) as ei:
            path(stream, InstrumentSpec("0.1"))
        assert [ln for ln, _ in ei.value.errors] == [2]
        assert "line 2: unreadable row" in str(ei.value)

    @pytest.mark.parametrize("path", [parse_ticks, parse_ticks_by_row])
    @pytest.mark.parametrize("source", ["universal", "translated", "lf", "list"])
    @pytest.mark.parametrize("block_chars", [7, 3 << 20])
    def test_line_numbers_are_physical_after_a_multiline_record(self, path, source, block_chars):
        # The quoted price of the second record spans lines 2 and 3.
        head = '0,1.00,1.02\n1,"1.00\n",1.02\n2,1.00,1.02\n'
        cases = [
            (head + "3,bad,1.02\n", (5, "bad price field")),
            (head + "1,1.00,1.02\n", (5, "timestamp decreases (1 after 2)")),
        ]
        for text, want in cases:
            with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
                with pytest.raises(TickParseError) as ei:
                    path(_SOURCES[source](text), InstrumentSpec("0.01"))
            assert ei.value.errors == [want]

    def test_field_over_csv_limit_keeps_earlier_errors(self):
        stream = io.StringIO(f"0,junk,1.1\n1,1.0,1.1\n2,1.{'0' * 200_000},1.1\n", newline="")
        with pytest.raises(TickParseError) as ei:
            parse_ticks(stream, InstrumentSpec("0.1"))
        assert [ln for ln, _ in ei.value.errors] == [1, 3]
        assert "field larger than field limit" in ei.value.errors[1][1]

    def test_error_message_caps_at_ten_lines(self):
        rows = "\n".join(f"{i},junk,1.0" for i in range(12))
        with pytest.raises(TickParseError) as ei:
            parse_ticks(io.StringIO(rows), InstrumentSpec("0.1"))
        assert len(ei.value.errors) == 12
        assert "and 2 more" in str(ei.value)


PATHS = [parse_ticks, parse_ticks_by_row]


class TestRowGrammar:
    @pytest.mark.parametrize("parse", PATHS)
    @pytest.mark.parametrize(
        "row, error",
        [
            ("1,1/3", "bad price field"),
            ("1,1_0.5", "bad price field"),
            ("1,1e1", "bad price field"),
            ("1,\u0663", "bad price field"),
            ("\u0663,5", "bad timestamp '\u0663'"),
            ("1_000,5", "bad timestamp '1_000'"),
            ("9223372036854775808,5", "bad timestamp '9223372036854775808'"),
            ("2262-04-12T00:00:00Z,5", "bad timestamp '2262-04-12T00:00:00Z'"),
            ("1,9300000000000000000", "price is outside the int64 tick range"),
        ],
    )
    def test_rejected_with_line_number(self, parse, row, error):
        with pytest.raises(TickParseError) as ei:
            parse(io.StringIO(f"0,5\n{row}\n"), InstrumentSpec(1), columns="time,price")
        assert ei.value.errors == [(2, error)]

    @pytest.mark.parametrize("parse", PATHS)
    def test_accepted_forms(self, parse):
        text = (
            "1,5.\n"
            "2,.5\n"
            "3, +7.25 \n"
            "0004,007\n"
            "1970-01-01T00:00:00.000005Z,2\n"
            "1970-01-01T00:00:01Z,3\n"
            "1970-01-01T00:00:02+00:00,4\n"
        )
        got = parse(io.StringIO(text), InstrumentSpec("0.5"), columns="time,price")
        assert got == [
            Sample(1, 10),
            Sample(2, 1),
            Sample(3, 14),
            Sample(4, 14),
            Sample(5000, 4),
            Sample(10**9, 6),
            Sample(2 * 10**9, 8),
        ]

    def test_fraction_strings_still_quantize(self):
        assert quantize("1/3", "1/300") == 100
        assert InstrumentSpec("1/3").tick_size == Fraction(1, 3)


class TestTickSeries:
    def test_columns_and_items(self):
        got = parse_ticks(io.StringIO("0,5\n1,6\n"), InstrumentSpec(1), columns="time,price")
        assert isinstance(got, TickSeries)
        assert got.times.dtype == np.int64 and got.values.dtype == np.int64
        assert len(got) == 2
        assert got[1] == Sample(1, 6) and got[-1] == Sample(1, 6)
        assert got[:1] == [Sample(0, 5)]
        assert list(got) == [Sample(0, 5), Sample(1, 6)]
        assert got != [Sample(0, 5)]
        assert got == TickSeries(np.array([0, 1]), np.array([5, 6]))

    def test_empty_input(self):
        for text in ("", "\n\n", "  \r\n"):
            got = parse_ticks(io.StringIO(text), InstrumentSpec(1))
            assert len(got) == 0 and got == []


# How a quote file can reach parse_ticks.  Universal-newline streams take
# the block path; the others are taken line item by line item.
_SOURCES = {
    "universal": lambda text: io.StringIO(text, newline=""),
    "translated": lambda text: io.StringIO(text, newline=None),
    "lf": lambda text: io.StringIO(text, newline="\n"),
    "list": lambda text: list(io.StringIO(text, newline="")),
}


def _outcome(parse, source, text, spec, columns, delimiter=","):
    try:
        got = parse(_SOURCES[source](text), spec, columns=columns, delimiter=delimiter)
    except TickParseError as e:
        return "errors", e.errors
    except csv.Error as e:  # csv refuses a bare CR inside a line item
        return "csv.Error", str(e)
    return "ok", got.times.tolist(), got.values.tolist()


def _assert_paths_agree(text, spec, columns, delimiter=",", block_chars=(1, 7, 3 << 20)):
    """parse_ticks agrees with the per-row path, for every source and block size."""
    for source in _SOURCES:
        want = _outcome(parse_ticks_by_row, source, text, spec, columns, delimiter)
        for chars in block_chars:
            with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
                assert _outcome(parse_ticks, source, text, spec, columns, delimiter) == want
    return want


_ISO_EDGES = [
    "1677-12-31T23:59:59Z",
    "1678-01-01T00:00:00Z",
    "2261-12-31T23:59:59.999999Z",
    "2262-01-01T00:00:00Z",
    "2024-02-29T12:00:00Z",
    "2023-02-29T12:00:00Z",
    "2024-13-01T00:00:00Z",
    "2024-01-01T24:00:00Z",
    "2024-01-01T00:60:00Z",
    "2024-01-01T00:00:60Z",
    "2024-01-01T00:00:00.12345Z",
    "2024-01-01 00:00:00Z",
]
_PRICE_ODDITIES = [
    "", " ", "1/3", "1_0.5", "1e1", "\u0663", "abc", "1.2.3", ".", "-1.5", "+2.5",
    "0", "0.000", " 3.25", "9" * 18, "9" * 19, "1" + "0" * 18, "123456789.123456789",
    '"5.5"', "5.5\r", "\u00a05",
]
_TIME_ODDITIES = [
    "", "-5", "+5", "007", "1_000", "\u0663", "999999999999999999",
    "9223372036854775807", "9223372036854775808", " 12", "1.5", "junk",
]


@st.composite
def _quote_files(draw):
    """Quote files mixing rows the block path takes with rows it leaves to the row path.

    Half the files are clean, so their parsed values are compared; the
    rest mix in malformed fields, crossed quotes and, sometimes, a time
    going backwards.
    """
    layout = draw(st.sampled_from(["time,bid,ask", "time,price"]))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    style = draw(st.sampled_from(["bare", "iso_s", "iso_us", "mixed"]))
    messy = draw(st.booleans())
    steps = [0, 1, 10**3, 10**6, 10**9, 86_400 * 10**9]
    if style == "mixed":  # whole seconds, so every format gives the same time
        steps = [0, 10**9, 86_400 * 10**9]
    if messy and draw(st.booleans()):
        steps.append(-(10**9))
    t = draw(st.integers(0, 2 * 10**18))
    if style == "mixed":
        t -= t % 10**9
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = "valid"
        if messy:
            kinds = ["valid"] * 8 + ["blank", "fields", "odd_time", "odd_price"]
            kind = draw(st.sampled_from(kinds))
        t += draw(st.sampled_from(steps))
        stamp = datetime(1970, 1, 1) + timedelta(microseconds=max(t, 0) // 1000)
        formats = {
            "bare": str(t),
            "iso_s": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "iso_us": stamp.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
            "offset": stamp.strftime("%Y-%m-%dT%H:%M:%S+00:00"),
        }
        time_field = formats[draw(st.sampled_from(list(formats))) if style == "mixed" else style]
        decimals = draw(st.integers(0, 5))
        units = [draw(st.integers(1, 10**draw(st.integers(1, 12))))]
        if layout == "time,bid,ask":
            units.append(units[0] + draw(st.integers(-2 if messy else 0, 40)))
        prices = [
            f"{u // 10**decimals}.{u % 10**decimals:0{decimals}d}" if decimals else str(u)
            for u in units
        ]
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        if kind == "fields":
            prices = prices[:-1] if draw(st.booleans()) else prices + ["1"]
        if kind == "odd_time":
            time_field = draw(st.sampled_from(_TIME_ODDITIES + _ISO_EDGES))
        if kind == "odd_price":
            prices[draw(st.integers(0, len(prices) - 1))] = draw(st.sampled_from(_PRICE_ODDITIES))
        lines.append(delimiter.join([time_field, *prices]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    tick = draw(st.sampled_from(["0.01", "0.0001", "1", "0.25", "1/3", "7", "1e-18"]))
    return text, InstrumentSpec(tick), layout, delimiter


class TestBlockParserMatchesRowPath:
    @given(
        case=_quote_files(),
        block_chars=st.integers(1, 200),
        source=st.sampled_from(["universal", "universal", "translated", "lf"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_ticks_and_errors(self, case, block_chars, source):
        text, spec, columns, delimiter = case
        want = _outcome(parse_ticks_by_row, source, text, spec, columns, delimiter)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            got = _outcome(parse_ticks, source, text, spec, columns, delimiter)
        assert got == want

    def test_fixture_across_block_sizes(self):
        text = (DATA / "quotes_1k.csv").read_text()
        want = _assert_paths_agree(
            text, InstrumentSpec("0.01"), "time,bid,ask", block_chars=(1, 100, 3 << 20)
        )
        assert want[0] == "ok" and len(want[1]) == 1000

    @pytest.mark.parametrize("layout", ["time,price", "time,bid,ask"])
    @pytest.mark.parametrize("field", _TIME_ODDITIES + _ISO_EDGES + _PRICE_ODDITIES)
    def test_each_odd_field(self, field, layout):
        prices = ",".join(["1.25"] * layout.count(","))
        for text in (f"{field},{prices}\n", f"7,{prices[:-4]}{field}\n"):
            _assert_paths_agree(text, InstrumentSpec("0.01"), layout, block_chars=(3 << 20,))

    @pytest.mark.parametrize("source", ["universal", "translated"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "layout, rows",
        [
            ("time,bid,ask", ["1704187800000000000,1.5,1.75", "2024-01-02T09:30:00Z,1.5,1.75"]),
            ("time,price", ["2024-01-02T09:30:00.250000Z,.5", "1704187800250000000,0002."]),
        ],
    )
    def test_clean_rows_skip_the_row_path(self, layout, rows, newline, source):
        text = newline.join(rows) + newline
        spec = InstrumentSpec("0.25")
        with mock.patch.object(ingest._TickReader, "_row", side_effect=AssertionError):
            got = _outcome(parse_ticks, source, text, spec, layout)
        assert got == _outcome(parse_ticks_by_row, source, text, spec, layout)

    @pytest.mark.parametrize(
        "text",
        [
            '0,1.0,1.1\n1,"1.0",1.1\n2,1.0,1.1\n',  # quotes: csv decides the records
            '0,1.0,1.1\n1,"1.0\n2",1.1\n3,1.0,1.1\n',  # a quoted newline joins two lines
            "0,1.0,1.1\r1,1.0,1.1\n2,1.0,1.1\n",  # a bare carriage return ends a record
            "5,1.0,1.1\n4,1.0,1.1\n3,junk\n",  # decreasing time in one block
            "0,1.0,1.1,5\n1,1.0\n2,1.0,1.1\n",  # delimiter counts add up across lines
        ],
    )
    def test_awkward_inputs(self, text):
        _assert_paths_agree(text, InstrumentSpec("0.1"), "time,bid,ask")


class TestInstrumentSpec:
    def test_requires_positive_tick(self):
        with pytest.raises(ValueError):
            InstrumentSpec("0")
        with pytest.raises(ValueError):
            InstrumentSpec("-0.01")

    def test_rejects_float_tick(self):
        with pytest.raises(TypeError):
            InstrumentSpec(0.01)

    def test_exact_storage(self):
        assert InstrumentSpec("0.0001").tick_size == Fraction(1, 10000)


class TestRollRule:
    def test_roll_time_is_midnight_utc(self):
        rule = RollRule([("H", date(2024, 3, 15))], days_before_expiry=6)
        want = _cal.timegm(datetime(2024, 3, 9, tzinfo=timezone.utc).utctimetuple())
        assert rule.roll_time_ns(date(2024, 3, 15)) == want * 10**9

    def test_calendar_must_be_sorted(self):
        with pytest.raises(CalendarError):
            RollRule([("M", date(2024, 6, 21)), ("H", date(2024, 3, 15))])

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            RollRule([("H", date(2024, 3, 15))], days_before_expiry=-1)

    @pytest.mark.parametrize(
        "expiry, days", [(date(1, 1, 3), 6), (date(1, 1, 1), 1), (date(2024, 3, 15), 10**10)]
    )
    def test_roll_day_before_year_one(self, expiry, days):
        rule = RollRule([("H", expiry)], days_before_expiry=days)
        message = f"^the roll day {days} days before the expiry {expiry} is before 0001-01-01$"
        with pytest.raises(CalendarError, match=message):
            rule.roll_time_ns(expiry)

    def test_roll_day_on_year_one(self):
        rule = RollRule([("H", date(1, 1, 7))], days_before_expiry=6)
        assert rule.roll_time_ns(date(1, 1, 7)) == -62_135_596_800 * 10**9  # 0001-01-01T00:00Z

    def test_default_eligible_months(self):
        rule = RollRule([("H", date(2024, 3, 15))])
        assert rule.eligible_months == frozenset({3, 6, 9, 12})

    def test_duplicate_contract_rejected(self):
        with pytest.raises(CalendarError, match="'H' appears twice"):
            RollRule([("H", date(2024, 3, 15)), ("H", date(2024, 6, 21))])

    @pytest.mark.parametrize("months, first", [((13,), 13), ((0, 3), 0), ((3, 6, -1, 14), -1)])
    def test_months_outside_the_year_rejected(self, months, first):
        # No expiry could be eligible, so the splice would be silently empty.
        with pytest.raises(ValueError, match=f"^eligible month {first} is not in 1-12$"):
            RollRule([("H", date(2024, 3, 15))], eligible_months=months)

    def test_every_month_accepted(self):
        rule = RollRule([("H", date(2024, 3, 15))], eligible_months=range(1, 13))
        assert rule.eligible_months == frozenset(range(1, 13))

    def test_shared_expiry_rejected(self):
        # Otherwise the splice of H and X would depend on their input order.
        d = date(2024, 3, 15)
        message = "^contracts 'H' and 'X' share the expiry 2024-03-15$"
        with pytest.raises(CalendarError, match=message):
            RollRule([("Z", date(2023, 12, 15)), ("H", d), ("X", d)])

    @pytest.mark.parametrize("days", [6.7, 6.0, "6"])
    def test_days_must_be_an_integer(self, days):
        with pytest.raises(TypeError):
            RollRule([], days_before_expiry=days)

    def test_integer_days_kept(self):
        assert RollRule([], days_before_expiry=np.int64(3)).days_before_expiry == 3


def _mk(times_values):
    return [Sample(t, v) for t, v in times_values]


def _ts(samples):
    return TickSeries(
        np.array([s.time for s in samples], dtype=np.int64),
        np.array([s.value for s in samples], dtype=np.int64),
    )


class TestBuildContinuous:
    CAL = [
        ("H24", date(2024, 3, 15)),
        ("M24", date(2024, 6, 21)),
        ("U24", date(2024, 9, 20)),
    ]

    def test_roll_day_before_year_one(self):
        rule = RollRule([("H01", date(1, 1, 3)), ("M01", date(1, 6, 20))], eligible_months=(1, 6))
        series = [("H01", _mk([(0, 1), (1, 2)])), ("M01", _mk([(0, 3), (1, 4)]))]
        with pytest.raises(CalendarError, match="the expiry 0001-01-03 is before 0001-01-01$"):
            build_continuous(series, rule)
        # A single contract has no roll, so its roll day is never computed.
        assert build_continuous(series[:1], rule) == [Sample(0, 1), Sample(1, 2)]

    def _rule(self):
        return RollRule(self.CAL, days_before_expiry=6)

    def _three_contracts(self):
        rule = self._rule()
        r1 = rule.roll_time_ns(date(2024, 3, 15))
        r2 = rule.roll_time_ns(date(2024, 6, 21))
        a = _mk(
            [
                (r1 - 3 * DAY_NS, 100),
                (r1 - 2 * DAY_NS, 104),
                (r1 - 1 * DAY_NS, 101),
                (r1, 103),
                (r1 + 1 * DAY_NS, 999),  # after the roll: dropped
            ]
        )
        b = _mk(
            [
                (r1 - 1 * DAY_NS, 90),  # before the splice point: dropped
                (r1, 93),
                (r1 + 1 * DAY_NS, 95),
                (r1 + 2 * DAY_NS, 92),
                (r2, 96),
                (r2 + 1 * DAY_NS, 999),  # after the roll: dropped
            ]
        )
        c = _mk(
            [
                (r2, 100),
                (r2 + 1 * DAY_NS, 98),
                (r2 + 2 * DAY_NS, 103),
            ]
        )
        return rule, r1, r2, a, b, c

    def test_single_contract_identity(self):
        rule = self._rule()
        raw = _mk([(0, 10), (1, 12), (2, 11)])
        assert build_continuous([("U24", raw)], rule) == raw

    def test_empty_chain(self):
        assert build_continuous([], self._rule()) == []

    def test_three_contract_shifts_and_returns(self):
        rule, r1, r2, a, b, c = self._three_contracts()
        out = build_continuous([("H24", a), ("M24", b), ("U24", c)], rule)

        seg_a_raw = [100, 104, 101, 103]
        seg_b_raw = [93, 95, 92, 96]
        seg_c_raw = [100, 98, 103]
        # cumulative shifts: 0, then 103-93=+10, then 10+(96-100)=+6
        want_values = (
            seg_a_raw
            + [v + 10 for v in seg_b_raw]
            + [v + 6 for v in seg_c_raw]
        )
        assert [s.value for s in out] == want_values
        assert [s.time for s in out] == sorted(s.time for s in out)

        # splice steps are zero: last outgoing equals first incoming
        na, nb = len(seg_a_raw), len(seg_b_raw)
        assert out[na].value - out[na - 1].value == 0
        assert out[na + nb].value - out[na + nb - 1].value == 0

        # within-segment returns equal the raw per-contract returns
        def diffs(vals):
            return [y - x for x, y in zip(vals, vals[1:])]

        got = [s.value for s in out]
        assert diffs(got[:na]) == diffs(seg_a_raw)
        assert diffs(got[na : na + nb]) == diffs(seg_b_raw)
        assert diffs(got[na + nb :]) == diffs(seg_c_raw)

        # splices add no variation: total equals the per-segment sum
        def tv(vals):
            return sum(abs(d) for d in diffs(vals))

        assert tv(got) == tv(seg_a_raw) + tv(seg_b_raw) + tv(seg_c_raw)

    def test_input_order_does_not_matter(self):
        rule, _, _, a, b, c = self._three_contracts()
        fwd = build_continuous([("H24", a), ("M24", b), ("U24", c)], rule)
        rev = build_continuous([("U24", c), ("H24", a), ("M24", b)], rule)
        assert fwd == rev

    def test_ineligible_month_skipped(self):
        rule = RollRule(
            [("H24", date(2024, 3, 15)), ("J24", date(2024, 4, 19))],
            days_before_expiry=6,
        )
        r1 = rule.roll_time_ns(date(2024, 3, 15))
        a = _mk([(r1 - DAY_NS, 100), (r1, 101)])
        april = _mk([(r1, 55), (r1 + DAY_NS, 56)])
        out = build_continuous([("H24", a), ("J24", april)], rule)
        # April is not an eligible month, so H24 is the whole (last) chain.
        assert out == a

    def test_no_eligible_contract(self):
        rule = RollRule(
            [("H24", date(2024, 3, 15)), ("M24", date(2024, 6, 21))],
            days_before_expiry=6,
            eligible_months=[1],
        )
        quotes = _mk([(0, 100), (1, 101)])
        names = r"eligible month \(1\); given H24 \(month 3\), M24 \(month 6\)"
        with pytest.raises(SpliceError, match=names):
            build_continuous([("H24", quotes), ("M24", quotes)], rule)

    def test_missing_calendar_entry(self):
        rule = self._rule()
        with pytest.raises(CalendarError):
            build_continuous([("Z99", _mk([(0, 1)]))], rule)

    def test_no_outgoing_reference(self):
        rule, r1, _, _, b, c = self._three_contracts()
        late_a = _mk([(r1 + DAY_NS, 100)])  # only quotes after its roll
        with pytest.raises(SpliceError):
            build_continuous([("H24", late_a), ("M24", b), ("U24", c)], rule)

    def test_no_incoming_reference(self):
        rule, r1, _, a, _, _ = self._three_contracts()
        early_b = _mk([(r1 - 2 * DAY_NS, 90), (r1 - DAY_NS, 91)])
        with pytest.raises(SpliceError):
            build_continuous([("H24", a), ("M24", early_b)], rule)

    def test_unsorted_samples_rejected(self):
        rule = self._rule()
        bad = _mk([(10, 1), (5, 2)])
        with pytest.raises(ValueError):
            build_continuous([("U24", bad)], rule)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_returns_int64_columns(self, columnar):
        rule, _, _, a, b, c = self._three_contracts()
        given = [("H24", a), ("M24", b), ("U24", c)]
        out = build_continuous([(cid, _ts(x) if columnar else x) for cid, x in given], rule)
        assert isinstance(out, TickSeries)
        assert out.times.dtype == out.values.dtype == np.int64
        assert out == build_continuous_by_sample(given, rule)

    @pytest.mark.parametrize("contract", [[], _ts([])])
    def test_single_empty_contract(self, contract):
        out = build_continuous([("U24", contract)], self._rule())
        assert isinstance(out, TickSeries)
        assert out == [] and out.times.dtype == out.values.dtype == np.int64

    @pytest.mark.parametrize("first", ["H24", "M24"])
    def test_contract_given_twice(self, first):
        # Both H24 series used to be chained at one roll, repeating its sample.
        rule, _, _, a, b, c = self._three_contracts()
        given = [("H24", a), ("M24", b), ("U24", c), (first, a)]
        with pytest.raises(ValueError, match=f"^contract '{first}' is given twice$"):
            build_continuous(given, rule)

    def _two_at(self, out_value, in_values):
        """H24 ends on out_value at its roll; M24 starts there with in_values."""
        rule = self._rule()
        r1 = rule.roll_time_ns(date(2024, 3, 15))
        a = _mk([(r1 - DAY_NS, 0), (r1, out_value)])
        b = _mk([(r1 + i, v) for i, v in enumerate(in_values)])
        return [("H24", a), ("M24", b)], rule

    @pytest.mark.parametrize(
        "out_value, in_values",
        [
            (INT64_MAX, [0, 0, -5]),  # shifted by 2**63 - 1 up to the top of int64
            (INT64_MIN, [0, 7, 0]),  # shifted down to the bottom
            (INT64_MIN, [1, 2, 1]),  # the shift, -2**63 - 1, is itself outside int64
            (INT64_MAX, [-1, -1, -3]),  # and here +2**63
        ],
    )
    def test_shift_just_inside_int64(self, out_value, in_values):
        given, rule = self._two_at(out_value, in_values)
        for cols in (False, True):
            out = build_continuous([(cid, _ts(x) if cols else x) for cid, x in given], rule)
            shift = out_value - in_values[0]
            assert out.values.tolist() == [0, out_value, *(v + shift for v in in_values)]

    @pytest.mark.parametrize(
        "out_value, in_values",
        [(INT64_MAX, [0, 1]), (INT64_MIN, [0, -1]), (INT64_MIN, [1, 0]), (INT64_MAX, [-1, 0])],
    )
    def test_shift_just_outside_int64(self, out_value, in_values):
        given, rule = self._two_at(out_value, in_values)
        shift = out_value - in_values[0]
        message = f"^contract 'M24' shifted by {shift} leaves the int64 range$"
        for cols in (False, True):
            with pytest.raises(ValueError, match=message):
                build_continuous([(cid, _ts(x) if cols else x) for cid, x in given], rule)

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([1.5], TypeError, "contract 'U24' values must be integers"),
            ([2**63], ValueError, "contract 'U24' values must lie in the int64 range"),
        ],
    )
    def test_values_meet_the_int64_gate(self, values, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build_continuous([("U24", [Sample(0, v) for v in values])], self._rule())

    def test_roll_beyond_int64_times(self):
        # Rolls after 2262-04-11 lie past every int64 time, also the largest.
        rule = RollRule([("H", date(2262, 6, 15)), ("M", date(2262, 9, 15))])
        a = _mk([(INT64_MAX - 1, 5), (INT64_MAX, 6)])
        b = _mk([(INT64_MAX, 1)])
        with pytest.raises(SpliceError, match="contract 'M' has no quote at or after"):
            build_continuous([("H", a), ("M", b)], rule)
        early = RollRule([("H", date(1677, 3, 15)), ("M", date(1677, 6, 15))])
        with pytest.raises(SpliceError, match="contract 'H' has no quote at or before"):
            build_continuous([("H", _mk([(INT64_MIN, 5)])), ("M", b)], early)


def _splice_outcome(f):
    """f()'s result as a list of Samples, or the type and message of what it raised."""
    try:
        return list(f())
    except (ValueError, TypeError) as e:
        return type(e), str(e)


@st.composite
def _splices(draw):
    """Contracts, each a sorted list of Samples (ties, empties), with a calendar and rule.

    Expiries fall from late March to early April 2024, with quotes every
    half day around their rolls, so a roll meets quotes, ties and gaps on
    both sides.  Rarely a contract is empty, unsorted or left out of the
    calendar, to reach every error path.
    """
    # Seeded, because hypothesis draws lean to their bounds and rare cases would be common.
    rarely = random.Random(draw(st.integers(0, 2**32))).random
    ids = draw(st.permutations(["H24", "J24", "K24", "M24", "N24"]))[: draw(st.integers(1, 5))]
    days = draw(st.lists(st.integers(0, 10), min_size=len(ids), max_size=len(ids), unique=True))
    expiries = [date(2024, 3, 26) + timedelta(days=d) for d in days]
    calendar = sorted(zip(ids, expiries), key=lambda e: e[1])
    if rarely() < 0.05:
        calendar.pop(draw(st.integers(0, len(calendar) - 1)))
    rule = RollRule(
        calendar,
        days_before_expiry=draw(st.integers(0, 3)),
        eligible_months=draw(st.sampled_from([{3, 4}] * 6 + [{3}, {4}, {5}])),
    )
    half_day = DAY_NS // 2
    base = rule.roll_time_ns(date(2024, 3, 26)) - 4 * half_day
    contracts = []
    for cid in ids:
        least = 0 if rarely() < 0.05 else 6
        steps = draw(st.lists(st.integers(0, 28), min_size=least, max_size=16))
        if rarely() > 0.03:
            steps.sort()
        times = [base + k * half_day for k in steps]
        values = draw(st.lists(st.integers(-50, 50), min_size=len(times), max_size=len(times)))
        contracts.append((cid, _mk(zip(times, values))))
    return contracts, rule


class TestColumnarSplice:
    @given(_splices())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_sample_splice(self, case):
        contracts, rule = case
        want = _splice_outcome(lambda: build_continuous_by_sample(contracts, rule))
        assert _splice_outcome(lambda: build_continuous(contracts, rule)) == want
        columnar = [(cid, _ts(x)) for cid, x in contracts]
        assert _splice_outcome(lambda: build_continuous(columnar, rule)) == want
