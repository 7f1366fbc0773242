"""Investor-flow data model: records, daily aggregation, panel extraction.

A FlowPanel carries the nine market-wide series (three investor groups x
BUY/SELL/NET) on a shared trading calendar. Dates are opaque sortable
identifiers (ISO strings); the toolkit never invents calendar dates, so
holidays are simply whatever the input omits.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FlowError


class Group(str, Enum):
    RETAIL = "retail"
    INSTITUTIONAL = "institutional"
    FOREIGN = "foreign"


class Side(str, Enum):
    BUY = "BUY"
    SELL = "SELL"


class FlowType(str, Enum):
    BUY = "BUY"
    SELL = "SELL"
    NET = "NET"


GROUPS = tuple(Group)
FLOW_TYPES = tuple(FlowType)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

LONG_HEADER = ("date", "firm_id", "group", "side", "amount")
WIDE_HEADER = ("date", "group", "buy", "sell")


@dataclass(frozen=True)
class FlowRecord:
    """One (date, group, side) cash amount, optionally per firm."""

    date: str
    group: Group
    side: Side
    amount: float
    firm_id: str | None = None


@dataclass(frozen=True, eq=False)
class FlowPanel:
    """Calendar-aligned flow series keyed by (group, flow type).

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
        for key, values in self.series.items():
            group, flow_type = key
            arr = np.asarray(values, dtype=float)
            if arr.shape != (length,):
                raise FlowError(f"series {key} length {arr.size} != calendar {length}")
            if not np.all(np.isfinite(arr)):
                raise FlowError(f"series {key} contains non-finite values")
            if flow_type in (FlowType.BUY, FlowType.SELL) and np.any(arr < 0):
                raise FlowError(f"series {key} has negative amounts")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen[(Group(group), FlowType(flow_type))] = arr
        object.__setattr__(self, "series", frozen)
        for group in {g for g, _ in self.series}:
            triple = [(group, ft) in self.series for ft in FLOW_TYPES]
            if all(triple):
                buy = self.series[(group, FlowType.BUY)]
                sell = self.series[(group, FlowType.SELL)]
                net = self.series[(group, FlowType.NET)]
                if not np.array_equal(net, buy - sell):
                    raise FlowError(f"NET != BUY - SELL for group {group.value}")

    def __eq__(self, other):
        if not isinstance(other, FlowPanel):
            return NotImplemented
        return (
            self.calendar == other.calendar
            and set(self.series) == set(other.series)
            and all(np.array_equal(self.series[k], other.series[k]) for k in self.series)
        )


@dataclass(frozen=True)
class LabeledSeries:
    """One panel column with its calendar and (group, flow type) label."""

    calendar: tuple[str, ...]
    values: np.ndarray
    group: Group
    flow_type: FlowType


def aggregate_daily(records) -> FlowPanel:
    """Pivot records into the nine per-day series; NET = BUY - SELL.

    Summation per (date, group, side) cell uses exactly rounded
    compensated accumulation (math.fsum), so the result is invariant
    under any reordering of the input records. Days with no records for
    a group get an explicit zero, and the calendar is the sorted set of
    distinct dates present in the input.
    """
    records = list(records)
    if not records:
        raise FlowError("no records")
    cells: dict[tuple[str, Group, Side], list[float]] = {}
    for rec in records:
        amount = float(rec.amount)
        if not math.isfinite(amount):
            raise FlowError(f"non-finite amount in record {rec!r}")
        if amount < 0:
            raise FlowError(f"negative amount in record {rec!r}")
        try:
            key = (rec.date, Group(rec.group), Side(rec.side))
        except ValueError:
            raise FlowError(f"unknown group or side in record {rec!r}") from None
        cells.setdefault(key, []).append(amount)

    calendar = tuple(sorted({rec.date for rec in records}))
    index = {date: i for i, date in enumerate(calendar)}
    series = {}
    for group in GROUPS:
        buy = np.zeros(len(calendar))
        sell = np.zeros(len(calendar))
        for (date, g, side), amounts in cells.items():
            if g is not group:
                continue
            target = buy if side is Side.BUY else sell
            target[index[date]] = math.fsum(amounts)
        series[(group, FlowType.BUY)] = buy
        series[(group, FlowType.SELL)] = sell
        series[(group, FlowType.NET)] = buy - sell
    return FlowPanel(calendar=calendar, series=series)


def extract_series(panel: FlowPanel, group, flow_type) -> LabeledSeries:
    """Pull one labeled series out of a panel."""
    key = (Group(group), FlowType(flow_type))
    if key not in panel.series:
        raise FlowError(f"series ({key[0].value}, {key[1].value}) not in panel")
    return LabeledSeries(
        calendar=panel.calendar,
        values=panel.series[key],
        group=key[0],
        flow_type=key[1],
    )


def _parse_date(token: str, line_num: int) -> str:
    token = token.strip()
    if not _DATE_RE.match(token):
        raise FlowError(f"line {line_num}: bad date {token!r}, expected YYYY-MM-DD")
    return token


def _parse_group(token: str, line_num: int) -> Group:
    try:
        return Group(token.strip().lower())
    except ValueError:
        raise FlowError(f"line {line_num}: unknown group {token!r}") from None


def _parse_side(token: str, line_num: int) -> Side:
    try:
        return Side(token.strip().upper())
    except ValueError:
        raise FlowError(f"line {line_num}: unknown side {token!r}") from None


def _parse_amount(token: str, line_num: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FlowError(f"line {line_num}: bad amount {token!r}") from None
    if not math.isfinite(value):
        raise FlowError(f"line {line_num}: non-finite amount {token!r}")
    if value < 0:
        raise FlowError(f"line {line_num}: negative amount {token!r}")
    return value


def read_flows_csv(path) -> list[FlowRecord]:
    """Parse a flows CSV in either supported schema.

    Long: date,firm_id,group,side,amount (firm_id may be empty).
    Wide (pre-aggregated): date,group,buy,sell -> one BUY and one SELL
    record per row; a repeated (date, group) row is an error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip().lower() for h in next(reader))
        except StopIteration:
            raise FlowError(f"{path}: empty file") from None
        if header == LONG_HEADER:
            wide = False
        elif header == WIDE_HEADER:
            wide = True
        else:
            raise FlowError(
                f"{path}: unrecognized header {header!r}; expected "
                f"{','.join(LONG_HEADER)} or {','.join(WIDE_HEADER)}"
            )
        records: list[FlowRecord] = []
        first_lines: dict = {}  # wide schema: (date, group) -> line
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise FlowError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            if wide:
                date = _parse_date(row[0], line)
                group = _parse_group(row[1], line)
                first = first_lines.setdefault((date, group), line)
                if first != line:
                    raise FlowError(
                        f"line {line}: repeats the {date} {group.value} row of line {first}"
                    )
                records.append(
                    FlowRecord(date=date, group=group, side=Side.BUY,
                               amount=_parse_amount(row[2], line))
                )
                records.append(
                    FlowRecord(date=date, group=group, side=Side.SELL,
                               amount=_parse_amount(row[3], line))
                )
            else:
                records.append(
                    FlowRecord(
                        date=_parse_date(row[0], line),
                        firm_id=row[1].strip() or None,
                        group=_parse_group(row[2], line),
                        side=_parse_side(row[3], line),
                        amount=_parse_amount(row[4], line),
                    )
                )
    if not records:
        raise FlowError(f"{path}: no data rows")
    return records


def write_flows_csv(path, rows) -> None:
    """Write wide-format rows (date, group, buy, sell) atomically enough."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(WIDE_HEADER)
        for date, group, buy, sell in rows:
            writer.writerow([date, Group(group).value, repr(float(buy)), repr(float(sell))])
