"""Investor-flow data model: CSV streaming and daily aggregation.

A FlowPanel carries the nine market-wide series (three investor groups x
BUY/SELL/NET) on a shared trading calendar. Dates are real calendar dates
written YYYY-MM-DD, so they sort as strings; the toolkit never invents
calendar dates, so holidays are simply whatever the input omits.
"""

from __future__ import annotations

import array
import csv
import datetime
import itertools
import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

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
    pairs, e.g. ("retail", "NET"), as `aggregate_daily` and the readers
    build them (`_panel`): the calendar strictly increases, each series is
    a read-only array as long as it, BUY and SELL are finite and
    non-negative, and NET = BUY - SELL."""

    calendar: tuple[str, ...]
    series: dict

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
    distinct dates present in the input. A date that is not a YYYY-MM-DD
    calendar date (checked once per distinct token, as the readers check
    it), an unknown group or side, and a cell that sums past the float
    range, to a non-finite or to a negative value, raise a FlowError.
    """
    dates = _Checked(_parse_date)
    cells: defaultdict[tuple[str, str, str], list[float]] = defaultdict(list)
    for date, group, side, amount in records:
        try:
            date = dates[date]
        except ValueError as exc:
            raise FlowError(str(exc)) from None
        cells[date, group, side].append(amount)
    return _summed_panel(cells)


class _SumOverflow(FlowError):
    """A cell summed past the float range; `pipeline.read_panel` names the file."""


def _summed_panel(cells) -> FlowPanel:
    """The `_panel` of {(date, group, side): amounts}, each cell summed with
    math.fsum."""
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
        except ValueError:  # inf and -inf in one cell
            column[index[date]] = math.nan
    return _panel(calendar, columns)


def _panel(calendar: tuple[str, ...], columns: dict) -> FlowPanel:
    """The panel of a sorted calendar and its six {(group, side): array}
    BUY and SELL columns, and the one check of a panel's values: no
    calendar is a FlowError, and so is a BUY or SELL value that is not
    finite or is negative, naming its series."""
    if not calendar:
        raise FlowError("no records")
    for key, column in columns.items():
        if not np.all(np.isfinite(column)):
            raise FlowError(f"series {key} contains non-finite values")
        if np.any(column < 0):
            raise FlowError(f"series {key} has negative amounts")
    series = {}
    for group in GROUPS:
        buy, sell = columns[group, "BUY"], columns[group, "SELL"]
        series[group, "BUY"] = buy
        series[group, "SELL"] = sell
        series[group, "NET"] = buy - sell
    for values in series.values():
        values.flags.writeable = False
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
# (the whole file, or each of its two halves) keeps its rows by their raw
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
    blocks of whole lines, with raw tokens: in the long schema cells are
    {(date, group, side): amounts}; in the wide, (date tokens, group
    tokens, day, group, buy, sell), the distinct tokens as {token: index}
    in order of first sight and, per row, its date and group token indexes
    and its two amounts in flat arrays. A wide row counts as 2 records."""
    wide = header == WIDE_HEADER
    if wide:
        cells = date_ids, group_ids, days, groups, buys, sells = (
            {}, {}, array.array("i"), array.array("i"), array.array("d"), array.array("d"))
    else:
        cells = defaultdict(list)
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
                        if not (0.0 <= b < inf and 0.0 <= s < inf):
                            return None
                        days.append(date_ids.setdefault(d, len(date_ids)))
                        groups.append(group_ids.setdefault(g, len(group_ids)))
                        buys.append(b)
                        sells.append(s)
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
    byte ranges, each distinct raw token checked once. Long-schema raw
    cells are emptied as they are joined, so raw and joined never coexist
    in memory."""
    ranges = [cells for cells, _ in reads]
    dates, groups, sides = _Checked(_parse_date), _Checked(_parse_group), _Checked(_parse_side)
    cells: dict = {}
    try:
        if header == WIDE_HEADER:
            panel = _wide_panel(ranges, dates, groups)
        else:
            for raw_cells in ranges:
                while raw_cells:
                    (d, g, s), amounts = raw_cells.popitem()
                    cell = cells.setdefault((dates[d], groups[g], sides[s]), amounts)
                    if cell is not amounts:
                        cell.extend(amounts)
            panel = _summed_panel(cells)
    except (ValueError, FlowError):
        return None
    return panel, sum(records for _, records in reads)


def _wide_panel(ranges, dates: _Checked, groups: _Checked) -> FlowPanel:
    """The panel of the ranges' wide rows, each amount put into its column
    by its cell's code, group index x days + day index; a (date, group)
    cell given twice, found by sorting the codes, is a FlowError."""
    calendar = tuple(sorted({dates[token] for date_ids, *_ in ranges for token in date_ids}))
    index = {date: i for i, date in enumerate(calendar)}
    codes = []
    for date_ids, group_ids, row_days, row_groups, _, _ in ranges:
        day_at = np.array([index[dates[token]] for token in date_ids], dtype=np.intp)
        group_at = np.array([GROUPS.index(groups[token]) for token in group_ids], dtype=np.intp)
        codes.append(group_at[row_groups] * len(calendar) + day_at[row_days])
    codes = np.concatenate(codes)
    ordered = np.sort(codes)
    if np.any(ordered[1:] == ordered[:-1]):
        raise FlowError("a (date, group) row given twice")
    *_, buys, sells = zip(*ranges)  # each side's amount arrays, one per range
    columns = {}
    for side, amounts in zip(SIDES, (buys, sells)):
        block = np.zeros((len(GROUPS), len(calendar)))
        np.put(block, codes, np.concatenate(amounts))
        for group, column in zip(GROUPS, block):
            # an array of its own; + 0.0 makes -0.0 the 0.0 that math.fsum sums it to
            columns[group, side] = column + 0.0
    return _panel(calendar, columns)
