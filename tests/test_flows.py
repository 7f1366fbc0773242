import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmem.errors import FlowError
from flowmem.flows import (
    FlowPanel,
    FlowRecord,
    FlowType,
    Group,
    Side,
    aggregate_daily,
    extract_series,
    read_flows_csv,
    write_flows_csv,
)


def rec(date, group, side, amount, firm=None):
    return FlowRecord(date=date, group=Group(group), side=Side(side), amount=amount, firm_id=firm)


record_strategy = st.builds(
    rec,
    st.sampled_from(["2020-01-02", "2020-01-03", "2020-01-06"]),
    st.sampled_from(["retail", "institutional", "foreign"]),
    st.sampled_from(["BUY", "SELL"]),
    st.floats(0, 1e9, allow_nan=False),
)


class TestAggregateDaily:
    def test_two_record_sum(self):
        panel = aggregate_daily(
            [rec("2020-01-02", "retail", "BUY", 5, "f1"), rec("2020-01-02", "retail", "BUY", 3, "f2")]
        )
        assert panel.series[(Group.RETAIL, FlowType.BUY)][0] == 8.0

    def test_net_is_buy_minus_sell(self):
        records = [
            rec("2020-01-02", "retail", "BUY", 5),
            rec("2020-01-03", "retail", "BUY", 3),
            rec("2020-01-02", "retail", "SELL", 2),
            rec("2020-01-03", "retail", "SELL", 4),
        ]
        panel = aggregate_daily(records)
        np.testing.assert_array_equal(panel.series[(Group.RETAIL, FlowType.NET)], [3.0, -1.0])

    def test_matches_brute_force_group_by(self):
        records = [
            rec("2020-01-06", "retail", "BUY", 1.5, "a"),
            rec("2020-01-02", "foreign", "SELL", 2.25, "b"),
            rec("2020-01-02", "retail", "BUY", 4.0, "a"),
            rec("2020-01-03", "foreign", "BUY", 0.5, "c"),
            rec("2020-01-03", "retail", "SELL", 3.125, "a"),
            rec("2020-01-02", "retail", "BUY", 2.0, "c"),
            rec("2020-01-06", "foreign", "SELL", 7.75, "b"),
            rec("2020-01-06", "retail", "BUY", 0.25, "b"),
            rec("2020-01-03", "foreign", "BUY", 1.125, "a"),
            rec("2020-01-02", "retail", "SELL", 9.0, "b"),
        ]
        panel = aggregate_daily(records)

        sums: dict = {}
        for r in records:
            sums[(r.date, r.group, r.side)] = sums.get((r.date, r.group, r.side), 0.0) + r.amount
        dates = sorted({r.date for r in records})
        for group in Group:
            for side in Side:
                got = panel.series[(group, FlowType(side.value))]
                expected = [sums.get((d, group, side), 0.0) for d in dates]
                np.testing.assert_array_equal(got, expected)

    def test_missing_group_day_is_zero(self):
        panel = aggregate_daily([rec("2020-01-02", "retail", "BUY", 5)])
        assert panel.series[(Group.FOREIGN, FlowType.BUY)][0] == 0.0
        assert panel.series[(Group.RETAIL, FlowType.SELL)][0] == 0.0

    def test_empty_input(self):
        with pytest.raises(FlowError, match="no records"):
            aggregate_daily([])

    def test_non_finite_amount_names_record(self):
        bad = rec("2020-01-02", "retail", "BUY", math.nan, "f9")
        with pytest.raises(FlowError, match="f9"):
            aggregate_daily([bad])

    def test_negative_amount_rejected(self):
        with pytest.raises(FlowError, match="negative"):
            aggregate_daily([rec("2020-01-02", "retail", "BUY", -1.0)])

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
        for group in Group:
            buy = panel.series[(group, FlowType.BUY)]
            sell = panel.series[(group, FlowType.SELL)]
            net = panel.series[(group, FlowType.NET)]
            np.testing.assert_array_equal(net, buy - sell)
            for side, col in ((Side.BUY, buy), (Side.SELL, sell)):
                total = math.fsum(r.amount for r in records if r.group is group and r.side is side)
                assert math.fsum(col) == pytest.approx(total, rel=1e-15, abs=1e-9)


class TestExtractSeries:
    def test_label_and_values(self):
        panel = aggregate_daily(
            [rec("2020-01-02", "retail", "BUY", 5), rec("2020-01-03", "retail", "SELL", 4)]
        )
        labeled = extract_series(panel, "retail", "NET")
        np.testing.assert_array_equal(labeled.values, [5.0, -4.0])
        assert labeled.group is Group.RETAIL
        assert labeled.flow_type is FlowType.NET
        assert labeled.calendar == panel.calendar

    def test_missing_key_errors(self):
        panel = FlowPanel(
            calendar=("2020-01-02",),
            series={(Group.RETAIL, FlowType.BUY): [1.0]},
        )
        with pytest.raises(FlowError, match="foreign"):
            extract_series(panel, "foreign", "BUY")

    def test_round_trip_reassembly(self):
        records = [
            rec("2020-01-02", g, s, 10 * i + 1.0)
            for i, g in enumerate(["retail", "institutional", "foreign"])
            for s in ["BUY", "SELL"]
        ] + [rec("2020-01-03", "retail", "BUY", 2.0)]
        panel = aggregate_daily(records)
        rebuilt = FlowPanel(
            calendar=panel.calendar,
            series={
                (g, ft): extract_series(panel, g, ft).values
                for g in Group
                for ft in FlowType
            },
        )
        assert rebuilt == panel


class TestFlowPanelValidation:
    def test_length_mismatch(self):
        with pytest.raises(FlowError, match="length"):
            FlowPanel(calendar=("2020-01-02", "2020-01-03"), series={(Group.RETAIL, FlowType.BUY): [1.0]})

    def test_unsorted_calendar(self):
        with pytest.raises(FlowError, match="increasing"):
            FlowPanel(calendar=("2020-01-03", "2020-01-02"), series={})

    def test_negative_buy(self):
        with pytest.raises(FlowError, match="negative"):
            FlowPanel(calendar=("2020-01-02",), series={(Group.RETAIL, FlowType.BUY): [-1.0]})

    def test_net_identity_enforced(self):
        with pytest.raises(FlowError, match="NET"):
            FlowPanel(
                calendar=("2020-01-02",),
                series={
                    (Group.RETAIL, FlowType.BUY): [2.0],
                    (Group.RETAIL, FlowType.SELL): [1.0],
                    (Group.RETAIL, FlowType.NET): [0.5],
                },
            )

    def test_series_are_read_only(self):
        panel = aggregate_daily([rec("2020-01-02", "retail", "BUY", 5)])
        with pytest.raises(ValueError):
            panel.series[(Group.RETAIL, FlowType.BUY)][0] = 99.0


class TestCsv:
    def test_long_format(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5.5\n"
            "2020-01-02,,retail,SELL,2\n"
            "2020-01-03,f2,foreign,buy,1.25\n"
        )
        records = read_flows_csv(path)
        assert len(records) == 3
        assert records[1].firm_id is None
        assert records[2].side is Side.BUY

    def test_wide_format(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,group,buy,sell\n2020-01-02,retail,5.5,2.0\n2020-01-03,institutional,1,4\n"
        )
        records = read_flows_csv(path)
        assert len(records) == 4
        panel = aggregate_daily(records)
        np.testing.assert_array_equal(panel.series[(Group.RETAIL, FlowType.NET)], [3.5, 0.0])

    def test_wide_repeated_date_group_reports_both_lines(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,group,buy,sell\n"
            "2020-01-02,retail,5,0\n"
            "2020-01-02,retail,1,0\n"
            "2020-01-03,retail,4,0\n"
        )
        with pytest.raises(FlowError, match="line 3: .*2020-01-02 retail.*line 2"):
            read_flows_csv(path)

    def test_long_repeated_date_group_side_is_summed(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5\n"
            "2020-01-02,f2,retail,BUY,1\n"
        )
        panel = aggregate_daily(read_flows_csv(path))
        np.testing.assert_array_equal(panel.series[(Group.RETAIL, FlowType.BUY)], [6.0])

    def test_unknown_group_reports_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n2020-01-02,f1,hedge_fund,BUY,5\n")
        with pytest.raises(FlowError, match="line 2.*hedge_fund"):
            read_flows_csv(path)

    def test_unknown_side_reports_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "date,firm_id,group,side,amount\n"
            "2020-01-02,f1,retail,BUY,5\n"
            "2020-01-03,f1,retail,HOLD,5\n"
        )
        with pytest.raises(FlowError, match="line 3.*HOLD"):
            read_flows_csv(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n02/01/2020,f1,retail,BUY,5\n")
        with pytest.raises(FlowError, match="line 2"):
            read_flows_csv(path)

    def test_non_finite_amount(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,firm_id,group,side,amount\n2020-01-02,f1,retail,BUY,inf\n")
        with pytest.raises(FlowError, match="line 2"):
            read_flows_csv(path)

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("ticker,qty\nA,5\n")
        with pytest.raises(FlowError, match="header"):
            read_flows_csv(path)

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flows_csv(path, [("2020-01-02", "retail", 5.5, 2.0)])
        records = read_flows_csv(path)
        panel = aggregate_daily(records)
        assert panel.series[(Group.RETAIL, FlowType.BUY)][0] == 5.5
        assert panel.series[(Group.RETAIL, FlowType.SELL)][0] == 2.0
