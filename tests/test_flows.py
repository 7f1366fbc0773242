import csv
import datetime
import io
import itertools
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmem import flows, pipeline
from flowmem.errors import FlowError, FlowmemError, StatsError
from flowmem.flows import FLOW_TYPES, GROUPS, SIDES, FlowPanel, aggregate_daily, read_flows_csv
from flowmem.stats import read_prices_csv

LONG = "date,firm_id,group,side,amount"
WIDE = "date,group,buy,sell"


def rec(date, group, side, amount):
    """One record as read_flows_csv yields it: (date, group, side, amount)."""
    return (date, group, side, float(amount))


record_strategy = st.builds(
    rec,
    st.sampled_from(["2020-01-02", "2020-01-03", "2020-01-06"]),
    st.sampled_from(["retail", "institutional", "foreign"]),
    st.sampled_from(["BUY", "SELL"]),
    st.floats(0, 1e9, allow_nan=False),
)
# records whose amounts no reader lets through: any float, non-finite and
# negative ones included, or one near the float maximum
wild_record_strategy = st.builds(
    rec,
    st.sampled_from(["2020-01-02", "2020-01-03", "2020-01-06"]),
    st.sampled_from(["retail", "institutional", "foreign"]),
    st.sampled_from(["BUY", "SELL"]),
    st.one_of(st.floats(), st.floats(1e307, sys.float_info.max)),
)


def brute_force_panel(records):
    """The panel of `records` built cell by cell: math.fsum per (date,
    group, side), zero on a day without records, NET = BUY - SELL and
    read-only arrays; None where a cell's sum raises or a BUY or SELL value
    is not a finite non-negative number."""
    cells: dict = {}
    for date, group, side, amount in records:
        cells.setdefault((date, group, side), []).append(amount)
    calendar = tuple(sorted({date for date, _, _, _ in records}))
    series = {}
    for group in GROUPS:
        for side in SIDES:
            values = []
            for date in calendar:
                try:
                    value = math.fsum(cells.get((date, group, side), []))
                except (OverflowError, ValueError):
                    return None
                if not (math.isfinite(value) and value >= 0):
                    return None
                values.append(value)
            series[group, side] = np.array(values)
        series[group, "NET"] = series[group, "BUY"] - series[group, "SELL"]
    for values in series.values():
        values.flags.writeable = False
    return FlowPanel(calendar=calendar, series=series)


class TestAggregateDaily:
    def test_two_record_sum(self):
        panel = aggregate_daily(
            [rec("2020-01-02", "retail", "BUY", 5), rec("2020-01-02", "retail", "BUY", 3)]
        )
        assert panel.series[("retail", "BUY")][0] == 8.0

    def test_net_is_buy_minus_sell(self):
        records = [
            rec("2020-01-02", "retail", "BUY", 5),
            rec("2020-01-03", "retail", "BUY", 3),
            rec("2020-01-02", "retail", "SELL", 2),
            rec("2020-01-03", "retail", "SELL", 4),
        ]
        panel = aggregate_daily(records)
        np.testing.assert_array_equal(panel.series[("retail", "NET")], [3.0, -1.0])

    def test_matches_brute_force_group_by(self):
        records = [
            rec("2020-01-06", "retail", "BUY", 1.5),
            rec("2020-01-02", "foreign", "SELL", 2.25),
            rec("2020-01-02", "retail", "BUY", 4.0),
            rec("2020-01-03", "foreign", "BUY", 0.5),
            rec("2020-01-03", "retail", "SELL", 3.125),
            rec("2020-01-02", "retail", "BUY", 2.0),
            rec("2020-01-06", "foreign", "SELL", 7.75),
            rec("2020-01-06", "retail", "BUY", 0.25),
            rec("2020-01-03", "foreign", "BUY", 1.125),
            rec("2020-01-02", "retail", "SELL", 9.0),
        ]
        panel = aggregate_daily(iter(records))  # any iterable, consumed once

        sums: dict = {}
        for date, group, side, amount in records:
            sums[(date, group, side)] = sums.get((date, group, side), 0.0) + amount
        dates = sorted({date for date, _, _, _ in records})
        for group in GROUPS:
            for side in SIDES:
                got = panel.series[(group, side)]
                expected = [sums.get((d, group, side), 0.0) for d in dates]
                np.testing.assert_array_equal(got, expected)

    def test_missing_group_day_is_zero(self):
        panel = aggregate_daily([rec("2020-01-02", "retail", "BUY", 5)])
        assert panel.series[("foreign", "BUY")][0] == 0.0
        assert panel.series[("retail", "SELL")][0] == 0.0

    def test_empty_input(self):
        with pytest.raises(FlowError, match="no records"):
            aggregate_daily([])

    def test_non_finite_amount_rejected(self):
        with pytest.raises(FlowError, match="non-finite"):
            aggregate_daily([rec("2020-01-02", "retail", "BUY", math.nan)])

    def test_unknown_group_or_side_rejected(self):
        with pytest.raises(FlowError, match="unknown group or side"):
            aggregate_daily([("2020-01-02", "hedge_fund", "BUY", 1.0)])

    def test_negative_amount_rejected(self):
        with pytest.raises(FlowError, match="negative"):
            aggregate_daily([rec("2020-01-02", "retail", "BUY", -1.0)])

    def test_bad_date_rejected(self):
        records = [rec("2020-1-10", "retail", "BUY", 1.0), rec("2020-1-9", "retail", "BUY", 2.0),
                   rec("banana", "retail", "SELL", 1.0)]
        with pytest.raises(FlowError, match=re.escape(
                "bad date '2020-1-10', expected a YYYY-MM-DD date")):
            aggregate_daily(records)

    def test_dates_checked_as_the_readers_check_them(self):
        panel = aggregate_daily([rec(" 2020-01-03", "retail", "BUY", 1.0),
                                 rec("2020-01-03 ", "retail", "BUY", 2.0),
                                 rec("2020-01-02", "retail", "SELL", 1.0)])
        assert panel.calendar == ("2020-01-02", "2020-01-03")
        assert panel.series["retail", "BUY"].tolist() == [0.0, 3.0]

    def test_infinities_of_both_signs_in_one_cell_rejected(self):
        records = [rec("2020-01-02", "retail", "BUY", math.inf),
                   rec("2020-01-02", "retail", "BUY", -math.inf)]
        with pytest.raises(FlowError, match=re.escape(
                "series ('retail', 'BUY') contains non-finite values")):
            aggregate_daily(records)

    @given(st.lists(record_strategy, min_size=1, max_size=30),
           st.lists(wild_record_strategy, max_size=3))
    @example([rec("2020-01-02", "retail", "BUY", 1.0)],
             [rec("2020-01-03", "foreign", "SELL", math.inf),
              rec("2020-01-03", "foreign", "SELL", -math.inf)])
    @example([rec("2020-01-02", "retail", "BUY", 1.0)],
             [rec("2020-01-02", "retail", "BUY", sys.float_info.max),
              rec("2020-01-02", "retail", "BUY", sys.float_info.max)])
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_or_raises_flow_error(self, records, wild):
        """Every draw gives the brute-force panel, or a FlowError where
        that build finds a bad cell; no other exception escapes."""
        records = records + wild
        expected = brute_force_panel(records)
        if expected is None:
            with pytest.raises(FlowError):
                aggregate_daily(records)
            return
        panel = aggregate_daily(records)
        assert panel == expected
        assert not any(values.flags.writeable for values in panel.series.values())

    @given(st.lists(record_strategy, min_size=1, max_size=60), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, records, rand):
        panel_a = aggregate_daily(records)
        shuffled = list(records)
        rand.shuffle(shuffled)
        panel_b = aggregate_daily(shuffled)
        assert panel_a == panel_b

    @given(st.lists(record_strategy, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_net_identity_and_sum_preservation(self, records):
        panel = aggregate_daily(records)
        for group in GROUPS:
            buy = panel.series[(group, "BUY")]
            sell = panel.series[(group, "SELL")]
            net = panel.series[(group, "NET")]
            np.testing.assert_array_equal(net, buy - sell)
            for side, col in (("BUY", buy), ("SELL", sell)):
                total = math.fsum(a for _, g, s, a in records if g == group and s == side)
                assert math.fsum(col) == pytest.approx(total, rel=1e-15, abs=1e-9)


class TestExtractSeries:
    """A panel's series, taken out one by one, build the same panel."""

    def test_round_trip_reassembly(self):
        records = [
            rec("2020-01-02", g, s, 10 * i + 1.0)
            for i, g in enumerate(["retail", "institutional", "foreign"])
            for s in ["BUY", "SELL"]
        ] + [rec("2020-01-03", "retail", "BUY", 2.0)]
        panel = aggregate_daily(records)
        rebuilt = FlowPanel(
            calendar=panel.calendar,
            series={(g, ft): panel.series[g, ft] for g in GROUPS for ft in FLOW_TYPES},
        )
        assert rebuilt == panel


class TestFlowPanelValidation:
    def test_series_are_read_only(self):
        panel = aggregate_daily([rec("2020-01-02", "retail", "BUY", 5)])
        with pytest.raises(ValueError):
            panel.series[("retail", "BUY")][0] = 99.0


def read(path):
    return list(read_flows_csv(path))


class TestCsv:
    def test_long_format(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5.5\n"
            "2020-01-02,,retail,SELL,2\n"
            "2020-01-03,f2,foreign,buy,1.25\n"
        )
        assert read(path) == [
            ("2020-01-02", "retail", "BUY", 5.5),
            ("2020-01-02", "retail", "SELL", 2.0),
            ("2020-01-03", "foreign", "BUY", 1.25),
        ]

    def test_wide_format(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,group,buy,sell\n2020-01-02,retail,5.5,2.0\n2020-01-03,institutional,1,4\n"
        )
        records = read(path)
        assert len(records) == 4
        panel = aggregate_daily(records)
        np.testing.assert_array_equal(panel.series[("retail", "NET")], [3.5, 0.0])

    def test_wide_repeated_date_group_reports_both_lines(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,group,buy,sell\n"
            "2020-01-02,retail,5,0\n"
            "2020-01-02,retail,1,0\n"
            "2020-01-03,retail,4,0\n"
        )
        with pytest.raises(FlowError, match="line 3: .*2020-01-02 retail.*line 2"):
            read(path)

    def test_long_repeated_date_group_side_is_summed(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5\n"
            "2020-01-02,f2,retail,BUY,1\n"
        )
        panel = aggregate_daily(read_flows_csv(path))
        np.testing.assert_array_equal(panel.series[("retail", "BUY")], [6.0])

    def test_unknown_group_reports_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n2020-01-02,f1,hedge_fund,BUY,5\n")
        with pytest.raises(FlowError, match="line 2.*hedge_fund"):
            read(path)

    def test_unknown_side_reports_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5\n"
            "2020-01-03,f1,retail,HOLD,5\n"
        )
        with pytest.raises(FlowError, match="line 3.*HOLD"):
            read(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n02/01/2020,f1,retail,BUY,5\n")
        with pytest.raises(FlowError, match="line 2"):
            read(path)

    @pytest.mark.parametrize("date", ["2020-13-45", "2020-02-30", "20200103", "2020-W01-5"])
    def test_impossible_or_non_iso_date_names_line(self, tmp_path, date):
        path = tmp_path / "flows.csv"
        path.write_text(f"date,group,buy,sell\n2020-01-02,retail,1,2\n{date},retail,3,4\n")
        with pytest.raises(FlowError, match=f"line 3: bad date '{date}'"):
            read(path)

    @pytest.mark.parametrize(
        "header, row, message",
        [
            (LONG, "2020-01-02,f1,retail,BUY", "expected 5 fields, got 4"),
            (LONG, "2020-01-02,f1,retail,BUY,abc", "bad amount 'abc'"),
            (LONG, "2020-01-02,f1,retail,BUY,nan", "non-finite amount 'nan'"),
            (LONG, "2020-01-02,f1,retail,BUY,-1", "negative amount '-1'"),
            (LONG, "2020-01-32,f1,retail,BUY,1", "bad date '2020-01-32'"),
            (WIDE, "2020-01-02,retail,1,2,3", "expected 4 fields, got 5"),
            (WIDE, "2020-01-02,whale,1,2", "unknown group 'whale'"),
            (WIDE, "2020-01-02,retail,1,-inf", "non-finite amount '-inf'"),
            (WIDE, "2020-01-02,retail,-0.5,2", "negative amount '-0.5'"),
        ],
    )
    def test_every_rejection_names_its_line(self, tmp_path, header, row, message):
        good = "2020-01-01,f0,retail,SELL,1" if header == LONG else "2020-01-01,retail,1,2"
        path = tmp_path / "flows.csv"
        path.write_text(f"{header}\n{good}\n\n{row}\n")  # the blank line still counts
        expected = f"^{re.escape(str(path))}: line 4: {re.escape(message)}"
        with pytest.raises(FlowError, match=expected):
            read(path)

    def test_non_finite_amount(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n2020-01-02,f1,retail,BUY,inf\n")
        with pytest.raises(FlowError, match="line 2"):
            read(path)

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("ticker,qty\nA,5\n")
        with pytest.raises(FlowError, match="header"):
            read(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            (f"{LONG}\n\n", "no data rows"),
            (f"{LONG}\n2020-01-02,f\xe9,retail,BUY,5\n", "not UTF-8 text"),
        ],
    )
    def test_empty_files(self, tmp_path, text, message):
        path = tmp_path / "flows.csv"
        path.write_bytes(text.encode("latin-1"))  # "\xe9" is the byte 0xE9, not UTF-8
        with pytest.raises(FlowError, match=f"^{re.escape(str(path))}: {message}$"):
            read(path)
        with pytest.raises(FlowError, match=f"^{re.escape(str(path))}: {message}$"):
            pipeline.read_panel(path)

    def test_write_round_trip(self, tmp_path):
        # the repr of a float, as every writer formats it, reads back exactly
        path = tmp_path / "flows.csv"
        path.write_text(pipeline._csv_text(WIDE, [f"2020-01-02,retail,{5.5!r},{0.1 + 0.2!r}"]))
        panel = aggregate_daily(read_flows_csv(path))
        assert panel.series[("retail", "BUY")][0] == 5.5
        assert panel.series[("retail", "SELL")][0] == 0.1 + 0.2


TABLE = "group,flow,alpha,t_alpha,alpha_stars,beta,t_beta,beta_stars,r_squared,n"

# each reader of `flows.read_csv`: (read, error class, allowed headers, a good
# header and data row)
READERS = {
    "flows-long": (read, FlowError, [LONG, WIDE], LONG, "2020-01-02,f1,retail,BUY,5"),
    "flows-wide": (read, FlowError, [LONG, WIDE], WIDE, "2020-01-02,retail,1,2"),
    "prices-close": (read_prices_csv, StatsError, ["date,close"], "date,close",
                     "2020-01-02,100.0"),
    "series-value": (lambda path: read_prices_csv(path, column="value"), StatsError,
                     ["date,value"], "date,value", "2020-01-02,-1.5"),
    "fig4": (lambda path: pipeline.read_rolling_csv(path, 5), FlowmemError,
             ["end_date,H,stderr,r2"], "end_date,H,stderr,r2", "2020-01-02,0.5,0.1,0.9"),
    "table1": (pipeline.read_table_csv, FlowmemError,
               [TABLE, TABLE + ",t_alpha_robust,t_beta_robust"], TABLE,
               "retail,NET,0,1,,0,1,,0.5,9"),
}


class TestReadCsv:
    """One contract for every CSV reader: each fault raises the reader's
    own error class with one message, naming the file and the line."""

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize("fault", ["not-utf8", "empty", "header", "wide-row", "no-rows"])
    def test_every_reader_names_file_and_line(self, tmp_path, reader, fault):
        read_file, error, headers, header, row = READERS[reader]
        text, cause = {
            "not-utf8": (f"{header}\n{row}\n{row}\xe9\n", "not UTF-8 text"),
            "empty": ("", "empty file"),
            "header": (f"ticker,qty\n{row}\n",
                       f"line 1: expected header {' or '.join(headers)}, got 'ticker,qty'"),
            "wide-row": (f"{header}\n{row},7\n", f"line 2: expected {row.count(',') + 1} "
                         f"fields, got {row.count(',') + 2}"),
            "no-rows": (f"{header}\n\n", "no data rows"),
        }[fault]
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode("latin-1"))  # "\xe9" is the byte 0xE9, not UTF-8
        with pytest.raises(error) as info:
            read_file(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}: {cause}"

    @pytest.mark.parametrize("reader", list(READERS))
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, reader):
        read_file, error, headers, header, row = READERS[reader]
        limit = csv.field_size_limit()
        path = tmp_path / "input.csv"
        path.write_text(f"{header}\n{row}\n{row}{'9' * (limit + 1)}\n")
        with pytest.raises(error) as info:
            read_file(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}: line 3: field larger than field limit ({limit})"

    def test_header_is_matched_stripped_and_case_folded(self, tmp_path):
        path = tmp_path / "fig4.csv"
        path.write_text(" END_DATE , h,Stderr,R2\n2020-01-02,0.5,0.1,0.9\n")
        (entry,) = pipeline.read_rolling_csv(path, 5).entries
        assert (entry.end_date, entry.hurst) == ("2020-01-02", 0.5)


def reference_panel(path) -> FlowPanel:
    """The record-based ingest that the streaming pass replaced, kept as an
    oracle: every row becomes a record first, then each group rescans all
    (date, group, side) cells and sums them with math.fsum."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        wide = ",".join(h.strip().lower() for h in next(reader)) == WIDE
        for row in filter(None, reader):
            if wide:
                date, group, buy, sell = row
                records.append((date.strip(), group.strip().lower(), "BUY", float(buy)))
                records.append((date.strip(), group.strip().lower(), "SELL", float(sell)))
            else:
                date, _firm, group, side, amount = row
                records.append(
                    (date.strip(), group.strip().lower(), side.strip().upper(),
                     float(amount))
                )
    cells: dict = {}
    for date, group, side, amount in records:
        cells.setdefault((date, group, side), []).append(amount)
    calendar = tuple(sorted({r[0] for r in records}))
    index = {date: i for i, date in enumerate(calendar)}
    series = {}
    for group in GROUPS:
        buy = np.zeros(len(calendar))
        sell = np.zeros(len(calendar))
        for (date, g, side), amounts in cells.items():
            if g == group:
                (buy if side == "BUY" else sell)[index[date]] = math.fsum(amounts)
        series[(group, "BUY")] = buy
        series[(group, "SELL")] = sell
        series[(group, "NET")] = buy - sell
    return FlowPanel(calendar=calendar, series=series)


DATES = ["2019-12-31", "2020-01-02", "2020-01-03", "2020-02-29"]


def spelled(token):
    """The ways a CSV may write a group or side token: any case, padded."""
    return st.sampled_from(
        [token, token.upper(), token.lower(), token.title(), f" {token}", f"{token.lower()}  "]
    )


# "-0.0" is a valid amount that math.fsum sums to 0.0
amounts = st.one_of(st.just("-0.0"), st.floats(0, 1e9, allow_nan=False).map(repr))
dates = st.sampled_from(DATES).flatmap(lambda d: st.sampled_from([d, f" {d}", f"{d} "]))


@st.composite
def long_rows(draw):
    rows = draw(st.lists(
        st.tuples(
            dates,
            st.sampled_from(["", "F1", " f2 "]),
            st.sampled_from(GROUPS).flatmap(spelled),
            st.sampled_from(SIDES).flatmap(spelled),
            amounts,
        ),
        min_size=1, max_size=40,
    ))
    return LONG, rows


@st.composite
def wide_rows(draw):
    keys = draw(st.lists(
        st.tuples(st.sampled_from(DATES), st.sampled_from(GROUPS)),
        min_size=1, max_size=12, unique=True,
    ))
    return WIDE, [
        (draw(st.sampled_from([date, f" {date}"])), draw(spelled(group)), draw(amounts), draw(amounts))
        for date, group in keys
    ]


class TestStreamingMatchesRecordPath:
    @given(st.one_of(long_rows(), wide_rows()), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_any_row_order_matches_reference(self, tmp_path_factory, drawn, rand):
        header, rows = drawn
        directory = tmp_path_factory.mktemp("stream")
        shuffled = list(rows)
        rand.shuffle(shuffled)
        panels = []
        for name, ordered in (("given.csv", rows), ("shuffled.csv", shuffled)):
            text = io.StringIO()
            text.write(header + "\n")
            csv.writer(text, lineterminator="\n").writerows(ordered)
            path = directory / name
            path.write_text(text.getvalue(), encoding="utf-8")
            panels.append(aggregate_daily(read_flows_csv(path)))
        expected = bits(reference_panel(directory / "given.csv"))
        assert bits(panels[0]) == expected
        assert bits(panels[1]) == expected


def long_file(path, days=60, firms=4, newline="\n"):
    """A long-schema flows file with days x 3 groups x 2 sides x firms rows."""
    rng = np.random.default_rng(days * firms)
    lines = [LONG]
    for day in range(days):
        date = f"2020-{1 + day // 28:02d}-{1 + day % 28:02d}"
        for group in ("retail", "institutional", "foreign"):
            for side in ("BUY", "SELL"):
                lines += [f"{date},F{k},{group},{side},{rng.random()!r}" for k in range(firms)]
    path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
    return path


def wide_file(path, days=200):
    rng = np.random.default_rng(days)
    lines = [WIDE] + [
        f"2020-{1 + day // 28:02d}-{1 + day % 28:02d},{group},{rng.random()!r},{rng.random()!r}"
        for day in range(days)
        for group in ("retail", "institutional", "foreign")
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def serial_read(path):
    records = list(read_flows_csv(path))
    return aggregate_daily(records), len(records)


def bits(read):
    """A panel, or a (panel, records) read, with each series as its bytes:
    FlowPanel's `==` holds -0.0 == 0.0, and bytes tell them apart."""
    panel, *records = read if isinstance(read, tuple) else (read,)
    return panel.calendar, {key: values.tobytes() for key, values in panel.series.items()}, records


def line_of(path, text):
    """The 1-based line number of the line that starts with `text`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    return next(i for i, line in enumerate(lines, 1) if line.startswith(text))


@pytest.fixture
def forks(monkeypatch):
    """Every file is split, and each os.fork call is counted."""
    monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", 1)
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def spelled_file(path, wide):
    """A flows file whose date, group and side tokens each come in several
    spellings, padded or cased, every spelling on many rows; and the distinct
    raw tokens of each kind, sorted, as the check of that kind sees them."""
    rng = np.random.default_rng(5)
    rows = []
    for day in range(20):
        date = f"2020-02-{1 + day:02d}"
        for group in GROUPS:
            groups = [group, group.upper(), f" {group.title()}"]
            if wide:  # one row per (date, group), so the spellings vary by day
                rows.append(([date, f" {date}"][day % 2], groups[day % 3],
                             repr(rng.random()), repr(rng.random())))
                continue
            for side, k in itertools.product(SIDES, range(3)):
                rows.append(([date, f" {date}", f"{date} "][k], "F1", groups[(k + day) % 3],
                             [side, side.lower(), f"{side} "][k], repr(rng.random())))
    path.write_text("\n".join([WIDE if wide else LONG, *map(",".join, rows)]) + "\n")
    columns = {"_parse_date": 0, "_parse_group": 1} if wide else {
        "_parse_date": 0, "_parse_group": 2, "_parse_side": 3}
    tokens = {name: sorted({row[i] for row in rows}) for name, i in columns.items()}
    return path, {"_parse_side": [], **tokens}


def recorded(parse, tokens):
    """`parse`, appending each token it is called on to `tokens`."""

    def check(token):
        tokens.append(token)
        return parse(token)

    return check


class TestTokensCheckedOnce:
    """Each distinct raw date, group and side token of a flows file is
    checked once, by either reader, in one range or in two halves; and
    `aggregate_daily` checks each distinct date it is given once more."""

    @pytest.mark.parametrize("wide", [False, True], ids=["long", "wide"])
    @pytest.mark.parametrize("read", ["read_flows_csv", "one-range", "halves"])
    def test_each_distinct_token_is_parsed_once(self, tmp_path, monkeypatch, wide, read):
        path, expected = spelled_file(tmp_path / "flows.csv", wide)
        seen = {name: [] for name in expected}
        for name, tokens in seen.items():
            monkeypatch.setattr(flows, name, recorded(getattr(flows, name), tokens))
        if read == "read_flows_csv":
            serial_read(path)
            dates = {token.strip() for token in expected["_parse_date"]}
            expected["_parse_date"] = sorted([*expected["_parse_date"], *dates])
        else:
            split_min = 1 if read == "halves" else path.stat().st_size + 1
            monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
            monkeypatch.setattr(pipeline, "read_flows_csv", None)  # the raw read alone
            pipeline.read_panel(path)
        assert {name: sorted(tokens) for name, tokens in seen.items()} == expected
        assert len(expected["_parse_group"]) == 9  # each group in three spellings


class TestTwoProcessRead:
    """`pipeline.read_panel` reads a file by raw tokens, a large one in two
    processes; its panel, record count and errors are those of the serial
    read."""

    @pytest.mark.parametrize(
        "make",
        [
            long_file,
            lambda path: long_file(path, newline="\r\n"),
            lambda path: long_file(path, days=3, firms=1),
            wide_file,
        ],
        ids=["long", "long-crlf", "long-tiny", "wide"],
    )
    def test_split_equals_serial(self, tmp_path, forks, make, monkeypatch):
        path = make(tmp_path / "flows.csv")
        monkeypatch.setattr(flows, "_BLOCK_BYTES", 7)  # each half in many blocks
        assert pipeline._read_raw(path) is not None  # the raw read itself, no fallback
        assert bits(pipeline.read_panel(path)) == bits(serial_read(path))
        assert len(forks) == 2

    @pytest.mark.parametrize("split_min", [1, 10**9], ids=["halves", "one-range"])
    def test_wide_negative_zero_reads_as_serially(self, tmp_path, monkeypatch, split_min):
        """math.fsum([-0.0]) is 0.0, so the raw read stores a wide -0.0 as
        0.0 too, bit for bit; FlowPanel's `==` would not tell them apart."""
        path = wide_file(tmp_path / "flows.csv")
        lines = path.read_text().split("\n")
        for at in (1, len(lines) - 2):  # a row in each half
            date, group, _, sell = lines[at].split(",")
            lines[at] = f"{date},{group},-0.0,{sell}"
        path.write_text("\n".join(lines))
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
        monkeypatch.setattr(pipeline, "read_flows_csv", None)  # the raw read alone
        panel, records = pipeline.read_panel(path)
        buy = panel.series["retail", "BUY"]
        assert buy[0] == 0.0 and math.copysign(1.0, buy[0]) == 1.0
        monkeypatch.undo()
        assert bits((panel, records)) == bits(serial_read(path))

    def test_wide_read_keeps_no_per_row_objects(self, tmp_path):
        """A 2,000-day wide file, read in one range, peaks at about 1.7 MB as
        tracemalloc counts it; raw-token tuples per row took 3.1 MB."""
        start = datetime.date(2015, 1, 1)
        rng = np.random.default_rng(2000)
        lines = [WIDE] + [
            f"{start + datetime.timedelta(days=day)},{group},{rng.random() * 1e9!r},"
            f"{rng.random() * 1e9!r}"
            for day in range(2000)
            for group in GROUPS
        ]
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size < pipeline.SPLIT_MIN_BYTES
        pipeline.read_panel(path)  # lazy imports and caches outside the count
        tracemalloc.start()
        try:
            pipeline.read_panel(path)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 2.4

    def test_bundled_wide_file(self, data_dir, forks):
        path = data_dir / "flows_synth.csv"
        assert bits(pipeline._read_raw(path)) == bits(serial_read(path))

    @pytest.mark.parametrize(
        "amount, message",
        [("abc", "bad amount"), ("-1", "negative amount"), ("inf", "non-finite amount")],
    )
    def test_bad_amount_in_second_half_raises_the_serial_error(
        self, tmp_path, forks, amount, message, monkeypatch
    ):
        path = long_file(tmp_path / "flows.csv")
        text = path.read_text()
        row = "2020-03-01,F1,foreign,SELL,"
        at = text.index(row) + len(row)
        assert at > len(text) // 2
        path.write_text(text[:at] + amount + text[text.index("\n", at):])
        expected = f"^{re.escape(str(path))}: line {line_of(path, row)}: {message} '{amount}'$"
        with pytest.raises(FlowError, match=expected):
            pipeline.read_panel(path)
        assert forks
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", path.stat().st_size + 1)  # one range, here
        with pytest.raises(FlowError, match=expected):
            pipeline.read_panel(path)
        assert len(forks) == 1

    def test_wide_row_repeated_across_halves_names_both_lines(self, tmp_path, forks):
        path = wide_file(tmp_path / "flows.csv")
        text = path.read_text()
        row = "2020-01-05,institutional,"
        repeat = text[text.index(row):text.index("\n", text.index(row)) + 1]
        path.write_text(text + repeat)
        last = len(path.read_text().split("\n")) - 1
        first = line_of(path, row)
        for split_min in (1, path.stat().st_size + 1):  # two halves, then one range here
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
                with pytest.raises(
                    FlowError,
                    match=f"^{re.escape(str(path))}: line {last}: "
                    f"repeats the 2020-01-05 institutional row of line {first}$",
                ):
                    pipeline.read_panel(path)
        assert len(forks) == 1

    def test_wide_row_repeated_under_another_spelling_names_both_lines(self, tmp_path, forks):
        path = wide_file(tmp_path / "flows.csv")
        first = line_of(path, "2020-01-05,institutional,")
        path.write_text(path.read_text() + "2020-01-05, INSTITUTIONAL,1.0,2.0\n")
        last = len(path.read_text().split("\n")) - 1
        for split_min in (1, path.stat().st_size + 1):  # two halves, then one range here
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
                with pytest.raises(
                    FlowError,
                    match=f"^{re.escape(str(path))}: line {last}: "
                    f"repeats the 2020-01-05 institutional row of line {first}$",
                ):
                    pipeline.read_panel(path)
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "split_min, quote", [(1, ""), (10**9, ""), (10**9, '"')], ids=["halves", "one-range", "csv"]
    )
    def test_cell_summing_past_the_float_range_names_file_and_cell(
        self, tmp_path, monkeypatch, split_min, quote
    ):
        path = long_file(tmp_path / "flows.csv")
        rows = f"2020-01-05,{quote}F8{quote},retail,BUY,1.7e308\n2020-01-05,F9,retail,BUY,1.7e308\n"
        path.write_text(path.read_text() + rows)
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
        expected = f"{path}: cell (2020-01-05, retail, BUY) exceeds the float range"
        with pytest.raises(FlowError, match=f"^{re.escape(expected)}$"):
            pipeline.read_panel(path)

    def test_quoted_newline_at_the_split_point_reads_serially(self, tmp_path, forks):
        rows = [f"2020-01-{day:02d},F1,retail,BUY,1.5" for day in range(1, 21)]
        quoted = '2020-01-21,"' + "x" * 200 + '\ny",retail,SELL,2.5'
        text = "\n".join([LONG, *rows, quoted, *rows]) + "\n"
        path = tmp_path / "flows.csv"
        path.write_text(text)
        middle = text.index("\n", len(text) // 2)
        assert text.index('"') < middle < text.rindex('"')  # the halves would meet inside the quotes
        assert pipeline._read_raw(path) is None
        assert bits(pipeline.read_panel(path)) == bits(serial_read(path))

    def test_quoted_field_spanning_rows_reads_serially(self, tmp_path, forks):
        # split on newlines, each line would be a valid row; csv.reader reads one row
        path = tmp_path / "flows.csv"
        path.write_text(
            f"{LONG}\n"
            '2020-01-04,"x,retail,BUY,1.0\n'
            "2020-01-05,F,retail,SELL,2.0\n"
            '2020-01-06,q",retail,BUY,3.0\n'
        )
        assert pipeline._read_raw(path) is None
        assert bits(pipeline.read_panel(path)) == bits(serial_read(path))
        assert serial_read(path)[1] == 1

    def test_without_fork_the_halves_are_read_in_process(self, tmp_path, forks, monkeypatch):
        path = long_file(tmp_path / "flows.csv")
        expected = serial_read(path)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(pipeline, "read_flows_csv", None)  # a call would raise TypeError
        assert bits(pipeline.read_panel(path)) == bits(expected)

    def test_failed_fork_reads_the_halves_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", 1)
        path = long_file(tmp_path / "flows.csv")
        expected = serial_read(path)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(pipeline, "read_flows_csv", None)  # a call would raise TypeError
        assert bits(pipeline.read_panel(path)) == bits(expected)
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_still_reads_in_two_halves(self, tmp_path, forks, monkeypatch):
        path = long_file(tmp_path / "flows.csv")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert bits(pipeline.read_panel(path)) == bits(serial_read(path))
        assert len(forks) == 1

    def test_file_below_the_size_rule_never_forks(self, tmp_path, monkeypatch):
        path = long_file(tmp_path / "flows.csv")
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", path.stat().st_size + 1)

        def no_fork():
            raise AssertionError("os.fork called for a file below the size rule")

        expected = serial_read(path)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(pipeline, "read_flows_csv", None)  # read by raw tokens, in this process
        assert bits(pipeline.read_panel(path)) == bits(expected)

    @given(st.one_of(long_rows(), wide_rows()))
    @settings(max_examples=40, deadline=None)
    def test_any_file_reads_as_serially(self, tmp_path_factory, drawn):
        header, rows = drawn
        text = io.StringIO()
        text.write(header + "\n")
        csv.writer(text, lineterminator="\n").writerows(rows)
        path = tmp_path_factory.mktemp("split") / "flows.csv"
        path.write_text(text.getvalue(), encoding="utf-8")
        try:
            expected, error = serial_read(path), None
        except FlowError as exc:
            expected, error = None, exc
        size = path.stat().st_size
        # two halves, then one range in this process; in one block, then in blocks of 7 bytes
        for split_min, block in itertools.product((size - 1, size + 1), (flows._BLOCK_BYTES, 7)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "SPLIT_MIN_BYTES", split_min)
                patch.setattr(flows, "_BLOCK_BYTES", block)
                if error is None:
                    patch.setattr(pipeline, "read_flows_csv", None)  # the raw read alone
                    assert bits(pipeline.read_panel(path)) == bits(expected)
                else:
                    with pytest.raises(FlowError, match=f"^{re.escape(str(error))}$"):
                        pipeline.read_panel(path)
