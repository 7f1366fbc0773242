"""Investor-flow data model: CSV streaming and daily aggregation.

A FlowPanel carries the nine market-wide series (three investor groups x
BUY/SELL/NET) on a shared trading calendar. Dates are real calendar dates
written YYYY-MM-DD, so they sort as strings; the toolkit never invents
calendar dates, so holidays are simply whatever the input omits.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import FlowError


# the investor groups, the sides of a trade and the flow types of a panel,
# spelled as the flows files, artifact names and reports spell them
GROUPS = ("retail", "institutional", "foreign")
SIDES = ("BUY", "SELL")
FLOW_TYPES = (*SIDES, "NET")

LONG_HEADER = ("date", "firm_id", "group", "side", "amount")
WIDE_HEADER = ("date", "group", "buy", "sell")


@dataclass(frozen=True, eq=False)
class FlowPanel:
    """Calendar-aligned flow series keyed by (group, flow type) string
    pairs, e.g. ("retail", "NET").

    Immutable after construction; the value arrays are read-only views.
    """

    calendar: tuple[str, ...]
    series: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.calendar) == 0:
            raise FlowError("panel calendar is empty")
        if any(b <= a for a, b in zip(self.calendar, self.calendar[1:])):
            raise FlowError("calendar must be strictly increasing")
        length = len(self.calendar)
        frozen = {}
        keys = {(group, flow_type) for group in GROUPS for flow_type in FLOW_TYPES}
        for key, values in self.series.items():
            if key not in keys:
                raise FlowError(f"unknown series key {key!r}")
            group, flow_type = key
            arr = np.asarray(values, dtype=float)
            if arr.shape != (length,):
                raise FlowError(f"series {key} length {arr.size} != calendar {length}")
            if not np.all(np.isfinite(arr)):
                raise FlowError(f"series {key} contains non-finite values")
            if flow_type in SIDES and np.any(arr < 0):
                raise FlowError(f"series {key} has negative amounts")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen[group, flow_type] = arr
        object.__setattr__(self, "series", frozen)
        for group in GROUPS:
            if all((group, ft) in frozen for ft in FLOW_TYPES):
                buy, sell, net = (frozen[group, ft] for ft in FLOW_TYPES)
                if not np.array_equal(net, buy - sell):
                    raise FlowError(f"NET != BUY - SELL for group {group}")

    def __eq__(self, other):
        if not isinstance(other, FlowPanel):
            return NotImplemented
        return (
            self.calendar == other.calendar
            and set(self.series) == set(other.series)
            and all(np.array_equal(self.series[k], other.series[k]) for k in self.series)
        )


def aggregate_daily(records) -> FlowPanel:
    """Pivot (date, group, side, amount) tuples into the nine per-day
    series; NET = BUY - SELL.

    `records` is any iterable of tuples as `read_flows_csv` yields them,
    consumed once. Summation per (date, group, side) cell uses exactly
    rounded compensated accumulation (math.fsum), so the result is
    invariant under any reordering of the input. Days with no records for
    a group get an explicit zero, and the calendar is the sorted set of
    distinct dates present in the input.
    """
    cells: defaultdict[tuple[str, str, str], list[float]] = defaultdict(list)
    for date, group, side, amount in records:
        cells[date, group, side].append(amount)
    return _panel(cells)


class _SumOverflow(FlowError):
    """A cell summed past the float range; `pipeline.read_panel` names the file."""


def _panel(cells) -> FlowPanel:
    """The panel of {(date, group, side): amounts}, each cell summed with
    math.fsum."""
    if not cells:
        raise FlowError("no records")
    calendar = tuple(sorted({date for date, _, _ in cells}))
    index = {date: i for i, date in enumerate(calendar)}
    columns = {(group, side): np.zeros(len(calendar)) for group in GROUPS for side in SIDES}
    for (date, group, side), amounts in cells.items():
        try:
            column = columns[group, side]
        except KeyError:
            raise FlowError(f"unknown group or side ({group!r}, {side!r})") from None
        try:
            column[index[date]] = math.fsum(amounts)
        except OverflowError:
            raise _SumOverflow(f"cell ({date}, {group}, {side}) exceeds the float range") from None
    series = {}
    for group in GROUPS:
        buy, sell = columns[group, "BUY"], columns[group, "SELL"]
        series[group, "BUY"] = buy
        series[group, "SELL"] = sell
        series[group, "NET"] = buy - sell
    return FlowPanel(calendar=calendar, series=series)


def _valid_date(token: str) -> bool:
    """True for a real calendar date written YYYY-MM-DD."""
    try:
        return datetime.date.fromisoformat(token).isoformat() == token
    except ValueError:
        return False


def _parse_date(token: str) -> str:
    token = token.strip()
    if not _valid_date(token):
        raise ValueError(f"bad date {token!r}, expected a YYYY-MM-DD date")
    return token


def _parse_group(token: str) -> str:
    group = token.strip().lower()
    if group not in GROUPS:
        raise ValueError(f"unknown group {token!r}")
    return group


def _parse_side(token: str) -> str:
    side = token.strip().upper()
    if side not in SIDES:
        raise ValueError(f"unknown side {token!r}")
    return side


def _parse_amount(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"bad amount {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite amount {token!r}")
    if value < 0:
        raise ValueError(f"negative amount {token!r}")
    return value


class _Checked(dict):
    """Raw token -> its checked value, `parse` called on a token's first lookup."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, token: str):
        value = self[token] = self.parse(token)
        return value


def read_csv(path, headers, convert, error) -> Iterator:
    """`convert(header, line, row)` for each data row of a CSV file, as the
    file is read: `header` is the one of `headers` (tuples of column names)
    that the first row spells, stripped and case-folded, and `line` is the
    row's line number. Empty rows are skipped.

    A file that is not UTF-8, is empty, starts with another header or has
    no data rows, a row the csv module cannot read or with another field
    count, and a ValueError from `convert` each raise `error` naming the
    file, and the line where there is one.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise error(f"{path}: empty file")
            spelled = tuple(name.strip().casefold() for name in first)
            header = next((h for h in headers if tuple(map(str.casefold, h)) == spelled), None)
            if header is None:
                expected = " or ".join(",".join(h) for h in headers)
                raise error(f"{path}: line 1: expected header {expected}, got {','.join(first)!r}")
            rows, width = 0, len(header)
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields, got {len(row)}")
                    value = convert(header, reader.line_num, row)
                except ValueError as exc:
                    raise error(f"{path}: line {reader.line_num}: {exc}") from None
                rows += 1
                yield value
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise error(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise error(f"{path}: no data rows")


def increasing(convert):
    """`convert` for `read_csv`, also checking that the first item of each
    value it returns, a date, comes after the previous row's; a date that
    does not is a ValueError naming the previous row's line."""
    previous = None  # the previous row's date and line

    def checked(header, line, row):
        nonlocal previous
        value = convert(header, line, row)
        if previous is not None and value[0] <= previous[0]:
            raise ValueError(f"dates must be strictly increasing: {value[0]} is not after "
                             f"{previous[0]} of line {previous[1]}")
        previous = value[0], line
        return value

    return checked


def read_flows_csv(path) -> Iterator[tuple[str, str, str, float]]:
    """Stream a flows CSV in either supported schema as (date, group,
    side, amount) tuples, for `aggregate_daily`.

    Long: date,firm_id,group,side,amount, one tuple per row (firm_id is
    not read and may be empty). Wide (pre-aggregated): date,group,buy,sell,
    one BUY and one SELL tuple per row; a repeated (date, group) row is an
    error. Dates must be real calendar dates and amounts finite and
    non-negative. The file is read as the tuples are consumed, and a bad
    row raises a FlowError naming the file and line then (see `read_csv`).

    Each distinct raw date, group and side token is checked once per file
    and its value cached; every amount is checked.
    """
    dates, groups, sides = _Checked(_parse_date), _Checked(_parse_group), _Checked(_parse_side)
    first_lines: dict = {}  # wide schema: (date, group) -> line

    def records(header, line, row):
        if header == WIDE_HEADER:
            d, g, buy, sell = row
            date, group = dates[d], groups[g]
            first = first_lines.setdefault((date, group), line)
            if first != line:
                raise ValueError(f"repeats the {date} {group} row of line {first}")
            buy, sell = _parse_amount(buy), _parse_amount(sell)
            return (date, group, "BUY", buy), (date, group, "SELL", sell)
        d, _, g, s, amount = row
        return ((dates[d], groups[g], sides[s], _parse_amount(amount)),)

    return itertools.chain.from_iterable(
        read_csv(path, (LONG_HEADER, WIDE_HEADER), records, FlowError)
    )


# The raw-token read (`pipeline.read_panel`): each byte range of a file
# (the whole file, or each of its two halves) keys its cells by the raw
# tokens and checks every amount as its row arrives; the join checks each
# distinct token once. Where only the serial read can judge the file (a
# quote, a lone CR, a bad row, amount or token, a repeated wide row) these
# return None, and the serial read raises the error naming the file and line.

_BLOCK_BYTES = 1 << 20


def _text(data: bytes) -> str | None:
    """`data` decoded, CRLF line ends made LF; None where `read_csv` might
    split it otherwise than on commas and LFs, or it is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    return None if '"' in text or "\r" in text else text


def _halves(path):
    """(header, [first, second]): the byte ranges of a flows CSV's two
    halves, split at the first line boundary after its midpoint; None if
    the header is not one `read_csv` would read as a flows header."""
    with open(path, "rb") as fh:
        first = fh.readline()
        end = fh.seek(0, 2)
        fh.seek(max(len(first), end // 2))
        fh.readline()
        middle = fh.tell()
    text = _text(first) or ""
    header = tuple(h.strip().casefold() for h in text.rstrip("\n").split(","))
    if header not in (LONG_HEADER, WIDE_HEADER):
        return None
    return header, [(len(first), middle), (middle, end)]


def _read_cells(path, header, start: int, stop: int):
    """(cells, records) for bytes [start, stop) of a flows CSV, read in
    blocks of whole lines: cells are {(date, group, side): amounts} in the
    long schema and {(date, group): (buy, sell)} in the wide, keyed by raw
    tokens, and a wide row counts as 2 records."""
    wide = header == WIDE_HEADER
    cells = {} if wide else defaultdict(list)
    records = 0
    inf = math.inf
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop:
            data = fh.read(min(_BLOCK_BYTES, stop - start))
            if not data:
                break
            if start + len(data) < stop:
                data += fh.readline()
            start += len(data)
            text = _text(data)
            if text is None:
                return None
            lines = text.split("\n")
            try:
                for line in lines:
                    if not line:
                        continue
                    if wide:
                        d, g, buy, sell = line.split(",")
                        b, s = float(buy), float(sell)
                        if not (0.0 <= b < inf and 0.0 <= s < inf) or (d, g) in cells:
                            return None
                        cells[d, g] = b, s
                    else:
                        d, _, g, s, amount = line.split(",")
                        value = float(amount)
                        if not 0.0 <= value < inf:
                            return None
                        cells[d, g, s].append(value)
            except ValueError:  # a field count or an amount that does not parse
                return None
            records += len(lines) - lines.count("")
    return cells, records * (2 if wide else 1)


def _joined_panel(header, reads) -> tuple[FlowPanel, int] | None:
    """The panel and record count of the `_read_cells` results of a file's
    byte ranges, each distinct raw token checked once. The raw cells are
    emptied as they are joined, so raw and joined never coexist in memory."""
    wide = header == WIDE_HEADER
    dates, groups, sides = _Checked(_parse_date), _Checked(_parse_group), _Checked(_parse_side)
    cells: dict = {}
    try:
        for raw_cells, _ in reads:
            while raw_cells:
                raw, amounts = raw_cells.popitem()
                date, group = dates[raw[0]], groups[raw[1]]
                if wide:
                    if (date, group, "BUY") in cells:
                        return None
                    cells[date, group, "BUY"] = [amounts[0]]
                    cells[date, group, "SELL"] = [amounts[1]]
                    continue
                cell = cells.setdefault((date, group, sides[raw[2]]), amounts)
                if cell is not amounts:
                    cell.extend(amounts)
        return _panel(cells), sum(records for _, records in reads)
    except (ValueError, FlowError):
        return None
