"""Quote-file parsing, exact tick quantization, and contract splicing.

All prices become integer tick counts on ingestion and every later stage
works on those integers.  Quantization is exact: mid-prices landing
exactly between two ticks round half-to-even rather than drifting, and
dequantizing a tick count reproduces it exactly.

parse_ticks reads quote rows in blocks of lines with numpy, in int64
integer arithmetic.  Rows outside the block grammar (and every row that
is rejected) go through a per-row Fraction path, which is the reference
the block path is tested against and the only source of error messages.

build_continuous splices contracts on their int64 columns: searchsorted
finds the two references at each roll, and one concatenation joins the
shifted runs.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import re
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import _INT64_MAX, _INT64_MIN, Sample, _as_index, _as_int64

__all__ = [
    "InstrumentSpec",
    "RollRule",
    "TickParseError",
    "SpliceError",
    "CalendarError",
    "TickSeries",
    "quantize",
    "dequantize",
    "parse_ticks",
    "parse_timestamp",
    "build_continuous",
]

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MAX_REPORTED_LINES = 10


class TickParseError(ValueError):
    """Input rows failed to parse; carries (line number, reason) details."""

    def __init__(self, errors: list[tuple[int, str]]) -> None:
        self.errors = errors
        shown = "; ".join(f"line {ln}: {msg}" for ln, msg in errors[:_MAX_REPORTED_LINES])
        extra = len(errors) - _MAX_REPORTED_LINES
        if extra > 0:
            shown += f"; and {extra} more"
        super().__init__(shown)


class SpliceError(ValueError):
    """A roll point has no usable reference quote on one side, or no contract is eligible."""


class CalendarError(ValueError):
    """A contract is missing from, or inconsistent with, the roll calendar."""


def _exact(value: str | int | Decimal | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, int, Decimal)):
        return Fraction(value)
    raise TypeError(
        f"pass prices as str, int, Decimal or Fraction, not {type(value).__name__}"
    )


@dataclass(frozen=True)
class InstrumentSpec:
    tick_size: Fraction  # given as str, int, Decimal or Fraction

    def __post_init__(self) -> None:
        ts = _exact(self.tick_size)
        if ts <= 0:
            raise ValueError("tick size must be positive")
        object.__setattr__(self, "tick_size", ts)


@dataclass(frozen=True)
class RollRule:
    """When to leave each contract: N calendar days before eligible expiries."""

    calendar: tuple[tuple[str, date], ...]  # any iterable of (contract_id, expiry)
    days_before_expiry: int = 6
    eligible_months: frozenset[int] = frozenset({3, 6, 9, 12})  # any iterable of ints

    def __post_init__(self) -> None:
        days = self.days_before_expiry
        days = _as_index(days, f"days_before_expiry must be an integer, not {type(days).__name__}")
        if days < 0:
            raise ValueError("days_before_expiry must be non-negative")
        message = "eligible_months must hold integers, got {!r}"
        months = frozenset(_as_index(m, message.format(m)) for m in self.eligible_months)
        outside = sorted(m for m in months if not 1 <= m <= 12)
        if outside:
            raise ValueError(f"eligible month {outside[0]} is not in 1-12")
        cal = tuple(self.calendar)
        if any(b[1] < a[1] for a, b in zip(cal, cal[1:])):
            raise CalendarError("calendar must be sorted by expiry date")
        seen: set[str] = set()
        for cid, _ in cal:
            if cid in seen:
                raise CalendarError(f"contract {cid!r} appears twice in the roll calendar")
            seen.add(cid)
        for (a, day), (b, next_day) in zip(cal, cal[1:]):
            if day == next_day:
                raise CalendarError(f"contracts {a!r} and {b!r} share the expiry {day}")
        object.__setattr__(self, "calendar", cal)
        object.__setattr__(self, "days_before_expiry", days)
        object.__setattr__(self, "eligible_months", months)

    def roll_time_ns(self, expiry: date) -> int:
        """Midnight UTC of the roll day; CalendarError if that day is before 0001-01-01."""
        try:
            roll_day = expiry - timedelta(days=self.days_before_expiry)
        except OverflowError:
            raise CalendarError(
                f"the roll day {self.days_before_expiry} days before the expiry {expiry}"
                " is before 0001-01-01"
            ) from None
        dt = datetime(roll_day.year, roll_day.month, roll_day.day, tzinfo=timezone.utc)
        return _datetime_ns(dt)


def quantize(price: str | int | Decimal | Fraction, tick_size: str | int | Decimal | Fraction) -> int:
    """Price to integer tick count, rounding half-to-even."""
    return round(_exact(price) / _exact(tick_size))


def dequantize(ticks: int, tick_size: str | int | Decimal | Fraction) -> Fraction:
    """Tick count back to an exact price."""
    return ticks * _exact(tick_size)


def _datetime_ns(dt: datetime) -> int:
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return (delta.days * 86400 + delta.seconds) * 10**9 + delta.microseconds * 1000


# The per-row grammar, on stripped text: ASCII digits only, so "1/3",
# "1_0.5", "1e1" and non-ASCII digits are rejected rather than read.
_PRICE_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_EPOCH_NS_RE = re.compile(r"[+-]?[0-9]+")


def parse_timestamp(text: str) -> int:
    """Epoch nanoseconds from either a bare integer or an ISO-8601 string.

    Naive timestamps count as UTC.  Only ASCII digits are accepted, and
    the result must fit in int64.
    """
    s = text.strip()
    if _EPOCH_NS_RE.fullmatch(s):
        ns = int(s)
    elif s.isascii():
        iso = s[:-1] + "+00:00" if s.endswith("Z") else s
        ns = _datetime_ns(datetime.fromisoformat(iso))
    else:
        raise ValueError(f"timestamp {text!r} is not ASCII")
    if not _INT64_MIN <= ns <= _INT64_MAX:
        raise ValueError(f"timestamp {text!r} is outside the int64 nanosecond range")
    return ns


def _parse_price(text: str) -> Fraction:
    s = text.strip()
    if not _PRICE_RE.fullmatch(s):
        raise ValueError(f"price {text!r} is not a decimal number")
    return Fraction(s)


class TickSeries(_SequenceABC):
    """Parsed quotes as int64 columns; items are Sample(time, value)."""

    __slots__ = ("times", "values")

    def __init__(self, times: np.ndarray, values: np.ndarray) -> None:
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TickSeries(self.times[i], self.values[i])
        return Sample(int(self.times[i]), int(self.values[i]))

    def __iter__(self) -> Iterator[Sample]:
        return map(Sample, self.times.tolist(), self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TickSeries):
            return np.array_equal(self.times, other.times) and np.array_equal(
                self.values, other.values
            )
        if not isinstance(other, _SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"TickSeries({len(self)} samples)"


_COLUMN_SETS = (("time", "bid", "ask"), ("time", "price"))
# Characters read per block: about 2**16 rows of a bid/ask quote file.
# Tests shrink it to cut blocks inside lines.
_BLOCK_CHARS = 3 << 20
_NL, _CR, _DOT, _ZERO = b"\n\r.0"
# Zero bytes after a block, so fixed-width windows never leave it.
_PAD = 32
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
# Years whose every instant fits in int64 nanoseconds (1677-09-21 .. 2262-04-11).
_MIN_YEAR, _MAX_YEAR = 1678, 2261
# Days from 1970-01-01 to the first of each month from _MIN_YEAR-01 to
# (_MAX_YEAR + 1)-01, in the proleptic Gregorian calendar.
_MONTH_FIRST_DAY = np.arange(
    f"{_MIN_YEAR}-01", f"{_MAX_YEAR + 1}-02", dtype="datetime64[M]"
).astype("datetime64[D]").astype(np.int64)
_MONTH_LENGTH = np.diff(_MONTH_FIRST_DAY)
# Block timestamp layouts; '0' stands for any digit.
_ISO_S = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)[:, None]
_ISO_US = np.frombuffer(b"0000-00-00T00:00:00.000000Z", dtype=np.uint8)[:, None]


def _by_width(n: np.ndarray, widest: int) -> Iterator[tuple[int, np.ndarray | slice]]:
    """(width, rows) for each field width from 1 to widest that occurs in n."""
    counts = np.bincount(n, minlength=widest + 1)
    for width in (np.flatnonzero(counts[1 : widest + 1]) + 1).tolist():
        yield width, slice(None) if counts[width] == n.size else np.flatnonzero(n == width)


def _columns(b: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """width x rows bytes of the padded block b: column i starts at first[i]."""
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(b, width)[first].T)


def _value(digits: np.ndarray) -> np.ndarray:
    """Base-10 value of each column of digit values; int64, so it may wrap."""
    value = np.zeros(digits.shape[1], dtype=np.int64)
    for row in digits:
        value *= 10
        value += row
    return value


def _block_decimals(
    b: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fields of 1-18 bytes: ASCII digits with at most one '.'.

    Returns (ok, the digits read as one integer, the number of decimals).
    """
    n = end - start
    ok = np.zeros(n.size, dtype=bool)
    value = np.zeros(n.size, dtype=np.int64)
    decimals = np.zeros(n.size, dtype=np.int64)
    for width, rows in _by_width(n, 18):
        c = _columns(b, start[rows], width)
        digits = c - np.uint8(_ZERO)  # wraps for bytes below '0'
        is_dot = c == _DOT
        n_dot = is_dot.sum(axis=0)
        ok[rows] = (n_dot <= 1) & (n_dot < width) & ((digits < 10) | is_dot).all(axis=0)
        dot_rows = np.flatnonzero(is_dot.any(axis=1))
        if len(dot_rows) <= 1 and is_dot[dot_rows].all():  # one layout, as quote files have
            value[rows] = _value(np.delete(digits, dot_rows, axis=0))
            decimals[rows] = width - 1 - dot_rows[0] if len(dot_rows) else 0
            continue
        v = np.zeros(c.shape[1], dtype=np.int64)
        f = np.zeros(c.shape[1], dtype=np.int64)
        for j in range(width):
            v = np.where(is_dot[j], v, v * 10 + digits[j])
            f[is_dot[j]] = width - 1 - j
        value[rows] = v
        decimals[rows] = f
    return ok, value, decimals


def _iso_timestamps(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns laid out as _ISO_S or _ISO_US: (ok, epoch ns)."""
    digits = c - np.uint8(_ZERO)
    template = _ISO_US if len(c) == len(_ISO_US) else _ISO_S
    ok = (np.where(digits < 10, np.uint8(_ZERO), c) == template).all(axis=0)
    year, month, day, hour, minute, second = (
        _value(digits[a : a + k]) for a, k in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))
    )
    ok &= (year >= _MIN_YEAR) & (year <= _MAX_YEAR) & (month >= 1) & (month <= 12)
    month_index = np.where(ok, (year - _MIN_YEAR) * 12 + month - 1, 0)
    ok &= (day >= 1) & (day <= _MONTH_LENGTH[month_index])
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    days = _MONTH_FIRST_DAY[month_index] + day - 1
    ns = (((days * 24 + hour) * 60 + minute) * 60 + second) * 10**9
    if template is _ISO_US:
        ns += _value(digits[20:26]) * 1000
    return ok, ns


def _block_timestamps(
    b: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of 1-19 ASCII digits, or YYYY-MM-DDTHH:MM:SS[.ffffff]Z.

    Nineteen digits are taken only below 9 * 10**18, so they fit in int64.
    """
    n = end - start
    ok = np.zeros(n.size, dtype=bool)
    ns = np.zeros(n.size, dtype=np.int64)
    for width, rows in _by_width(n, len(_ISO_US)):
        c = _columns(b, start[rows], width)
        if width <= 19:
            digits = c - np.uint8(_ZERO)
            ok[rows] = (digits < 10).all(axis=0) & (digits[0] < (9 if width == 19 else 10))
            ns[rows] = _value(digits)
        elif width in (len(_ISO_S), len(_ISO_US)):
            ok[rows], ns[rows] = _iso_timestamps(c)
    return ok, ns


class _TickReader:
    """Parse state shared by the block and per-row paths.

    It holds the line count, the last accepted time, the collected errors
    and the parsed columns, so a parse can switch from blocks to rows
    part-way through and report exactly what a row-by-row parse would.
    """

    def __init__(self, spec: InstrumentSpec, columns: str | Sequence[str], delimiter: str) -> None:
        cols = (
            tuple(c.strip() for c in columns.split(","))
            if isinstance(columns, str)
            else tuple(columns)
        )
        if cols not in _COLUMN_SETS:
            raise ValueError(f"unsupported column layout: {','.join(cols)}")
        csv.reader((), delimiter=delimiter)  # the TypeError csv gives a bad delimiter
        self.n_fields = len(cols)
        self.tick = spec.tick_size
        self.delimiter = delimiter
        self.lineno = 0
        self.last_t: int | None = None
        self.errors: list[tuple[int, str]] = []
        self.times: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        # The block path splits bytes on the delimiter, as csv does on text
        # without quote characters.
        self.blocks_ok = (
            len(delimiter) == 1
            and delimiter.isascii()
            and (delimiter.isprintable() or delimiter == "\t")
            and delimiter != '"'
            and self.tick.denominator <= _INT64_MAX
        )
        # ticks = round((sum of prices) * den / (k * num * 10**decimals)),
        # k = 2 for a mid; divisors that would leave int64 are 0.
        k = self.n_fields - 1
        num, self.den = self.tick.numerator, self.tick.denominator
        self.divisor = np.array(
            [k * num * 10**f if k * num * 10**f <= _INT64_MAX else 0 for f in range(19)],
            dtype=np.int64,
        )

    def _row(self, row: list[str]) -> tuple[int, int] | str | None:
        """One csv record: (time, ticks), an error message, or None if blank."""
        if not row or (len(row) == 1 and not row[0].strip()):
            return None
        if len(row) != self.n_fields:
            return f"expected {self.n_fields} fields, got {len(row)}"
        try:
            t = parse_timestamp(row[0])
        except ValueError:
            return f"bad timestamp {row[0].strip()!r}"
        try:
            prices = [_parse_price(f) for f in row[1:]]
        except ValueError:
            return "bad price field"
        if len(prices) == 2:
            bid, ask = prices
            if bid > ask:
                return f"crossed market: bid {row[1].strip()} > ask {row[2].strip()}"
            price = (bid + ask) / 2
        else:
            price = prices[0]
        if price <= 0:
            return "non-positive price"
        ticks = quantize(price, self.tick)
        if ticks > _INT64_MAX:
            return "price is outside the int64 tick range"
        return t, ticks

    def feed_rows(self, reader: Iterator[list[str]]) -> None:
        """The per-row path: a csv reader's records, one Fraction computation each.

        Each record is numbered by its first physical line, from the
        reader's line_num, so a quoted field spanning lines shifts no later
        number.  A record csv cannot read (a field over
        csv.field_size_limit(), or a bare carriage return inside a line of
        a stream not opened with universal newlines) stops the parse at its
        line.
        """
        base = self.lineno
        times = []
        values = []
        try:
            for row in reader:
                line = self.lineno + 1
                self.lineno = base + reader.line_num
                got = self._row(row)
                if got is None:
                    continue
                if isinstance(got, str):
                    self.errors.append((line, got))
                    continue
                t, v = got
                if self.last_t is not None and t < self.last_t:
                    raise TickParseError(
                        [(line, f"timestamp decreases ({t} after {self.last_t})")]
                    )
                self.last_t = t
                times.append(t)
                values.append(v)
        except csv.Error as e:  # only the csv reader raises it
            raise TickParseError(self.errors + [(self.lineno + 1, f"unreadable row: {e}")]) from None
        self.times.append(np.array(times, dtype=np.int64))
        self.values.append(np.array(values, dtype=np.int64))

    def feed_block(self, text: str) -> bool:
        """The block path for text of whole lines; False leaves it to feed_rows.

        Text is left whole to the per-row path when csv could split it
        into records other than its lines: it holds a quote character or a
        bare carriage return, or a line exceeds csv's field size limit.
        """
        if '"' in text:
            return False
        raw = text.encode("utf-8", "surrogatepass")
        b = np.zeros(len(raw) + 1 + _PAD, dtype=np.uint8)
        b[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        nl = np.flatnonzero(b == _NL)
        if not text.endswith("\n"):  # the last line lacks its newline
            b[len(raw)] = _NL
            nl = np.append(nl, len(raw))
        start = np.concatenate(([0], nl[:-1] + 1))
        crlf = b[nl - 1] == _CR  # an empty first line reads the zero pad at b[-1]
        if np.count_nonzero(b == _CR) != np.count_nonzero(crlf):
            return False
        if int((nl - start).max()) > csv.field_size_limit():
            return False
        end = nl - crlf
        n = nl.size

        # Lines with the right number of delimiters, split into fields.
        k = self.n_fields - 1
        delim = np.flatnonzero(b == ord(self.delimiter))
        cuts = delim.reshape(-1, k) if delim.size == k * n else None
        if cuts is not None and (cuts[:, 0] >= start).all() and (cuts[:, -1] < nl).all():
            rows = np.arange(n)
        else:
            delim_row = np.searchsorted(nl, delim)
            shaped = np.bincount(delim_row, minlength=n) == k
            rows = np.flatnonzero(shaped)
            cuts = delim[shaped[delim_row]].reshape(-1, k)
        starts = [start[rows], *(cuts.T + 1)]
        ends = [*cuts.T, end[rows]]
        ok, t = _block_timestamps(b, starts[0], ends[0])
        v_ok, v = self._block_ticks(
            [_block_decimals(b, s, e) for s, e in zip(starts[1:], ends[1:])]
        )
        ok &= v_ok

        times = np.zeros(n, dtype=np.int64)
        values = np.zeros(n, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        times[rows[ok]] = t[ok]
        values[rows[ok]] = v[ok]
        valid[rows[ok]] = True
        # Every other non-empty line, errors included, takes the per-row path.
        redo = np.flatnonzero(~valid & (end > start)).tolist()
        redo_text = [raw[start[i] : end[i]].decode("utf-8", "surrogatepass") for i in redo]
        errors = []
        for i, row in zip(redo, csv.reader(redo_text, delimiter=self.delimiter)):
            got = self._row(row)
            if got is None:
                continue
            if isinstance(got, str):
                errors.append((self.lineno + i + 1, got))
                continue
            times[i], values[i] = got
            valid[i] = True

        keep = np.flatnonzero(valid)
        kept = times[keep]
        before = np.empty_like(kept)
        before[:1] = _INT64_MIN if self.last_t is None else self.last_t
        before[1:] = kept[:-1]
        back = np.flatnonzero(kept < before)
        if back.size:
            j = int(back[0])
            raise TickParseError([(
                self.lineno + int(keep[j]) + 1,
                f"timestamp decreases ({int(kept[j])} after {int(before[j])})",
            )])
        if kept.size:
            self.last_t = int(kept[-1])
        self.errors += errors
        self.lineno += n
        self.times.append(kept)
        self.values.append(values[keep])
        return True

    def feed_blocks(self, stream: IO[str] | Iterable[str]) -> Iterable[str]:
        """Feed the input to the block path; return the lines left for feed_rows.

        Only a text stream with universal newlines (opened with newline=None
        or "") takes the block path.  It ends its lines at "\n", "\r\n" or
        "\r"; in text with no bare "\r" those are the "\n"s, so it is read
        in chunks and cut there.  Other inputs are left whole to feed_rows,
        which takes them line item by line item, as csv does.
        """
        if not (self.blocks_ok and isinstance(stream, io.TextIOBase)):
            return stream
        first = stream.readline()
        if stream.newlines is None:  # set only under universal newlines
            return itertools.chain([first] if first else [], stream)
        text = first
        while True:
            chunk = stream.read(_BLOCK_CHARS)
            text += chunk
            cut = text.rfind("\n") + 1 if chunk else len(text)
            if cut and not self.feed_block(text[:cut]):
                if not text.endswith("\n"):  # finish the line read in part
                    text += stream.readline()
                return itertools.chain(io.StringIO(text, newline=""), stream)
            text = text[cut:]
            if not chunk:
                return stream

    def _block_ticks(self, fields: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Exact half-to-even tick counts of the price or bid/ask fields."""
        oks, digits, decimals = zip(*fields)
        ok = np.logical_and.reduce(oks)
        places = np.minimum(np.maximum.reduce(decimals), 18)
        total = np.zeros(len(ok), dtype=np.int64)
        scaled = []
        for x, f in zip(digits, decimals):
            shift = np.clip(places - f, 0, 18)
            ok &= x < _POW10[18 - shift]  # scaled value stays below 10**18
            scaled.append(x * _POW10[shift])
            total += scaled[-1]
        if len(scaled) == 2:
            ok &= scaled[0] <= scaled[1]  # crossed markets are reported per row
        divisor = self.divisor[places]
        ok &= (total > 0) & (total <= _INT64_MAX // self.den) & (divisor > 0)
        divisor[~ok] = 1
        q, r = np.divmod(total * self.den, divisor)
        rest = divisor - r
        return ok, q + ((r > rest) | ((r == rest) & (q % 2 == 1)))

    def result(self) -> TickSeries:
        if self.errors:
            raise TickParseError(self.errors)
        return TickSeries(np.concatenate(self.times), np.concatenate(self.values))


def parse_ticks(
    stream: IO[str] | Iterable[str],
    spec: InstrumentSpec,
    columns: str | Sequence[str] = "time,bid,ask",
    delimiter: str = ",",
) -> TickSeries:
    """Read delimited quote rows into quantized samples.

    Rows must follow the declared column layout; with bid/ask columns the
    quantized value is the mid-price.  Any malformed, non-positive or
    crossed (bid > ask) row fails the parse with its line number, and a
    timestamp going backwards fails immediately naming the first offending
    line.  Input order is checked, never silently fixed.

    A text stream opened with universal newlines (newline=None or "", as
    open() does by default) is read in blocks and parsed with numpy in
    exact integer arithmetic.  Rows the block grammar does not take,
    blocks csv could split differently (quote characters, bare carriage
    returns) and other inputs go through the per-row path, with the same
    result.
    """
    reader = _TickReader(spec, columns, delimiter)
    rest = reader.feed_blocks(stream)
    reader.feed_rows(csv.reader(rest, delimiter=delimiter))
    return reader.result()


def _search(t: np.ndarray, x: int, side: str) -> int:
    """np.searchsorted(t, x, side) for int64 t, exact for a Python int x beyond int64."""
    return int(np.searchsorted(t, x, side)) if _INT64_MIN <= x <= _INT64_MAX else (x > 0) * len(t)


def _contract_expiries(cids: Iterable[str], rule: RollRule) -> Iterator[date]:
    """Each contract's expiry, checked one ID at a time as the caller draws it.

    ValueError for an ID given twice, CalendarError for one missing from the
    roll calendar.
    """
    expiries = dict(rule.calendar)
    seen: set[str] = set()
    for cid in cids:
        if cid in seen:
            raise ValueError(f"contract {cid!r} is given twice")
        if cid not in expiries:
            raise CalendarError(f"contract {cid!r} missing from the roll calendar")
        seen.add(cid)
        yield expiries[cid]


def build_continuous(
    contract_series: Sequence[tuple[str, Sequence[Sample]]],
    rule: RollRule,
) -> TickSeries:
    """Splice per-contract series into one continuous tick series.

    Each eligible contract contributes quotes up to its roll time (expiry
    minus the rule's day count); every later contract is shifted by the
    accumulated difference between the outgoing reference (last quote at or
    before the roll) and the incoming reference (first quote at or after
    it), so no splice introduces a price step and within-contract changes
    are untouched.  Contracts are TickSeries or Sample sequences in int64;
    a contract given twice or shifted outside int64 raises ValueError.  No
    contracts give an empty series; contracts of which none expires in an
    eligible month raise SpliceError.
    """
    expiries = dict(rule.calendar)
    chain: list[tuple[date, str, np.ndarray, np.ndarray]] = []
    checked = _contract_expiries((cid for cid, _ in contract_series), rule)
    # zip checks each contract's ID just before its samples.
    for (cid, ts), expiry in zip(contract_series, checked):
        if expiry.month not in rule.eligible_months:
            continue
        if not isinstance(ts, TickSeries):
            ts = TickSeries([s.time for s in ts], [s.value for s in ts])
        t = _as_int64(ts.times, f"contract {cid!r} times")
        if np.any(t[1:] < t[:-1]):
            raise ValueError(f"contract {cid!r} samples are not sorted by time")
        chain.append((expiry, cid, t, _as_int64(ts.values, f"contract {cid!r} values")))
    chain.sort(key=lambda c: c[0])
    if not chain and contract_series:
        months = ", ".join(map(str, sorted(rule.eligible_months)))
        given = ", ".join(f"{cid} (month {expiries[cid].month})" for cid, _ in contract_series)
        raise SpliceError(f"no contract expires in an eligible month ({months}); given {given}")

    parts = [(np.zeros(0, dtype=np.int64),) * 2]  # (times, values) of each retained run
    shift = start = 0
    for (expiry, cid, t, v), (_, nxt_cid, nxt_t, nxt_v) in zip(chain, [*chain[1:], (None,) * 4]):
        end = len(t) if nxt_t is None else _search(t, rule.roll_time_ns(expiry), "right")
        if nxt_t is not None and end == start:
            raise SpliceError(
                f"no splice reference: contract {cid!r} has no quote at or before its roll"
            )
        seg = v[start:end]  # not empty once shift is set
        if shift and (int(seg.min()) + shift < _INT64_MIN or int(seg.max()) + shift > _INT64_MAX):
            raise ValueError(f"contract {cid!r} shifted by {shift} leaves the int64 range")
        # shift may itself leave int64, so it is added mod 2**64: exact, as just checked.
        parts.append((t[start:end], seg + ((shift - _INT64_MIN) % 2**64 + _INT64_MIN)))
        if nxt_t is not None:
            start = _search(nxt_t, rule.roll_time_ns(expiry), "left")
            if start == len(nxt_t):
                raise SpliceError(
                    f"no splice reference: contract {nxt_cid!r} has no quote at or after the roll"
                )
            shift += int(v[end - 1]) - int(nxt_v[start])
    return TickSeries(*map(np.concatenate, zip(*parts)))
