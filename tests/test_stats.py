import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowmem
from flowmem.errors import StatsError
from flowmem.pipeline import read_table_csv, table_csv
from flowmem.rolling import RollingEntry, RollingHurst
from flowmem.stats import (
    AlignedPairs,
    OlsResult,
    ReturnSeries,
    VolatilitySeries,
    align_h_rv,
    ols,
    read_prices_csv,
    regression_table_rows,
    returns_from_prices,
    significance_stars,
    squared_return_vol,
)
from flowmem.stats import _t_two_sided_p


def make_rolling(pairs, step=5):
    entries = tuple(
        RollingEntry(d, h, 0.01, 0.99, 10, True)
        if h is not None
        else RollingEntry(d, None, None, None, 0, False, "gap")
        for d, h in pairs
    )
    return RollingHurst(entries=entries, window=250, step=step)


def day(i):
    return f"d{i:05d}"


class TestVolatility:
    def test_squared_returns(self):
        rs = ReturnSeries(calendar=("d1", "d2"), returns=np.array([0.01, -0.02]))
        rv = squared_return_vol(rs)
        np.testing.assert_allclose(rv.values, [0.0001, 0.0004])
        assert rv.calendar == rs.calendar

    def test_zero_returns(self):
        rs = ReturnSeries(calendar=("d1",), returns=np.array([0.0]))
        assert squared_return_vol(rs).values[0] == 0.0

    def test_price_pipeline_matches_hand_oracle(self):
        dates = tuple(f"2020-01-0{i}" for i in range(1, 6))
        prices = [100.0, 102.0, 101.0, 105.0, 104.0]
        rs = returns_from_prices(dates, prices)
        rv = squared_return_vol(rs)
        expected_r = [math.log(b / a) for a, b in zip(prices, prices[1:])]
        np.testing.assert_allclose(rs.returns, expected_r, rtol=1e-12)
        np.testing.assert_allclose(rv.values, [r * r for r in expected_r], rtol=1e-12)
        assert rs.calendar == dates[1:]

    def test_bad_prices(self):
        with pytest.raises(StatsError):
            returns_from_prices(("d1", "d2"), [100.0, -5.0])


class TestAlignment:
    def test_forward_fill_policy(self):
        rolling = make_rolling([(day(249), 0.6), (day(254), 0.8)], step=5)
        rv_cal = tuple(day(249 + i) for i in range(10))
        rv = VolatilitySeries(calendar=rv_cal, values=np.arange(10.0))
        pairs = align_h_rv(rolling, rv, "forward_fill")
        assert pairs.dates == rv_cal  # both entries live 5 days each
        np.testing.assert_array_equal(pairs.hurst[:5], 0.6)
        np.testing.assert_array_equal(pairs.hurst[5:], 0.8)

    def test_staleness_cap(self):
        rolling = make_rolling([(day(0), 0.6)], step=5)
        rv_cal = tuple(day(i) for i in range(12))
        rv = VolatilitySeries(calendar=rv_cal, values=np.zeros(12))
        pairs = align_h_rv(rolling, rv, "forward_fill")
        assert len(pairs.dates) == 5  # held at most `step` days

    def test_step_dates_only(self):
        rolling = make_rolling([(day(249), 0.6), (day(254), 0.8)], step=5)
        rv_cal = tuple(day(249 + i) for i in range(10))
        rv = VolatilitySeries(calendar=rv_cal, values=np.arange(10.0))
        pairs = align_h_rv(rolling, rv, "step_dates_only")
        assert pairs.dates == (day(249), day(254))
        np.testing.assert_array_equal(pairs.volatility, [0.0, 5.0])

    def test_gap_days_excluded_matches_oracle(self):
        spec = [(day(0), 0.5), (day(5), None), (day(10), 0.7)]
        rolling = make_rolling(spec, step=5)
        rv_cal = tuple(day(i) for i in range(15))
        rng = np.random.Generator(np.random.PCG64(3))
        rv = VolatilitySeries(calendar=rv_cal, values=rng.uniform(size=15))
        pairs = align_h_rv(rolling, rv, "forward_fill")

        expected = []
        for i, d in enumerate(rv_cal):
            active = [(ed, h) for ed, h in spec if ed <= d][-1:]
            if not active:
                continue
            ed, h = active[0]
            if h is None:
                continue
            if i - rv_cal.index(ed) >= 5:
                continue
            expected.append((d, h, rv.values[i]))
        assert pairs.dates == tuple(d for d, _, _ in expected)
        np.testing.assert_array_equal(pairs.hurst, [h for _, h, _ in expected])
        np.testing.assert_array_equal(pairs.volatility, [v for _, _, v in expected])
        assert len(pairs.dates) == 10

    def test_no_overlap(self):
        # volatility ends before the first exponent exists
        rolling = make_rolling([(day(100), 0.5)])
        rv = VolatilitySeries(calendar=(day(0), day(1)), values=np.zeros(2))
        with pytest.raises(StatsError, match="no overlapping"):
            align_h_rv(rolling, rv)
        with pytest.raises(StatsError, match="no overlapping"):
            align_h_rv(rolling, rv, "step_dates_only")

    def test_trailing_entry_covers_next_step_days(self):
        # staleness is counted in volatility trading days at/after the stamp
        rolling = make_rolling([(day(0), 0.5)], step=5)
        rv = VolatilitySeries(calendar=(day(50), day(51)), values=np.zeros(2))
        pairs = align_h_rv(rolling, rv)
        assert pairs.dates == (day(50), day(51))

    def test_lagged_pairs(self):
        pairs = AlignedPairs(
            dates=tuple(day(i) for i in range(6)),
            hurst=np.arange(6.0),
            volatility=np.arange(6.0) * 10,
        )
        lagged = pairs.lagged(2)
        assert lagged.dates == tuple(day(i) for i in range(2, 6))
        np.testing.assert_array_equal(lagged.hurst, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(lagged.volatility, [20.0, 30.0, 40.0, 50.0])


class TestOls:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        res = ols(2.0 + 3.0 * x, x)
        assert abs(res.alpha - 2.0) < 1e-12
        assert abs(res.beta - 3.0) < 1e-12
        assert res.r_squared > 1.0 - 1e-12
        assert res.residual_variance < 1e-12
        assert res.t_beta == math.inf

    def test_five_point_fixture_matches_closed_form_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.1, 3.9, 6.2, 7.8, 10.3])
        n = 5
        sx, sy = x.sum(), y.sum()
        sxx, sxy = (x * x).sum(), (x * y).sum()
        beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        alpha = (sy - beta * sx) / n
        resid = y - alpha - beta * x
        ssr = float(resid @ resid)
        s2 = ssr / (n - 2)
        sxx_c = float(((x - x.mean()) ** 2).sum())
        se_beta = math.sqrt(s2 / sxx_c)
        se_alpha = math.sqrt(s2 * (1.0 / n + x.mean() ** 2 / sxx_c))
        sst = float(((y - y.mean()) ** 2).sum())

        res = ols(y, x)
        np.testing.assert_allclose(res.alpha, alpha, rtol=1e-10)
        np.testing.assert_allclose(res.beta, beta, rtol=1e-10)
        np.testing.assert_allclose(res.t_alpha, alpha / se_alpha, rtol=1e-10)
        np.testing.assert_allclose(res.t_beta, beta / se_beta, rtol=1e-10)
        np.testing.assert_allclose(res.r_squared, 1.0 - ssr / sst, rtol=1e-10)
        np.testing.assert_allclose(res.residual_variance, s2, rtol=1e-10)

    def test_volatility_scale_reconstruction(self):
        # beta 0.046 with t ~ 4.7 at n=2000; noise sized to produce that t
        n, beta_true, alpha_true = 2000, 0.046, 0.003
        rng = np.random.Generator(np.random.PCG64(77))
        x = rng.normal(0.45, 0.1, n)
        sigma = beta_true * 0.1 * math.sqrt(n) / 4.7
        y = alpha_true + beta_true * x + rng.normal(0.0, sigma, n)
        res = ols(y, x)
        se_beta = res.beta / res.t_beta
        assert abs(res.beta - beta_true) <= 3.0 * se_beta
        assert 2.5 <= res.t_beta <= 7.0

    def test_constant_regressor(self):
        with pytest.raises(StatsError, match="degenerate"):
            ols(np.arange(5.0), np.full(5, 2.0))

    def test_residual_orthogonality(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.normal(size=200)
        y = 1.0 + 0.5 * x + rng.normal(size=200)
        res = ols(y, x)
        resid = y - res.alpha - res.beta * x
        scale = float(np.abs(y).sum())
        assert abs(resid.sum()) < 1e-9 * scale
        assert abs(resid @ x) < 1e-9 * scale * float(np.abs(x).max())

    def test_beta_equivariance_under_x_scaling(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.normal(size=100)
        y = 2.0 - 0.7 * x + rng.normal(size=100)
        base = ols(y, x)
        scaled = ols(y, 10.0 * x)
        np.testing.assert_allclose(scaled.beta, base.beta / 10.0, rtol=1e-12)
        np.testing.assert_allclose(scaled.t_beta, base.t_beta, rtol=1e-12)

    def test_r_squared_is_squared_correlation(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.normal(size=150)
        y = 0.3 * x + rng.normal(size=150)
        res = ols(y, x)
        corr = np.corrcoef(x, y)[0, 1]
        np.testing.assert_allclose(res.r_squared, corr**2, rtol=1e-10)

    def test_robust_close_to_classic_when_homoskedastic(self):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=3000)
        y = 1.0 + 0.5 * x + rng.normal(size=3000)
        classic = ols(y, x)
        robust = ols(y, x, robust=True)
        assert classic.beta == robust.beta  # point estimates identical
        assert abs(robust.t_beta / classic.t_beta - 1.0) < 0.1

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_robust_and_classic_agree_on_estimates(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        a = ols(y, x)
        b = ols(y, x, robust=True)
        assert a.alpha == b.alpha and a.beta == b.beta


class TestStarsAndTable:
    def test_star_thresholds(self):
        n = 100
        assert significance_stars(3.5, n) == "***"
        assert significance_stars(-3.5, n) == "***"
        assert significance_stars(2.0, n) == "**"
        assert significance_stars(1.7, n) == "*"
        assert significance_stars(1.0, n) == ""
        assert significance_stars(math.inf, n) == "***"

    def test_stars_match_student_t_sf_at_the_boundaries(self):
        from scipy.stats import t as student_t

        def expected(t_value, n):
            p = 2.0 * float(student_t.sf(abs(t_value), n - 2))
            return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""

        for n in (3, 4, 5, 10, 30, 100, 2000, 10**6):
            points = [0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 8.0, 40.0]
            for level in (0.1, 0.05, 0.01):
                critical = float(student_t.isf(level / 2, n - 2))
                points += [critical, math.nextafter(critical, 0), math.nextafter(critical, math.inf)]
            for t_value in points + [-t for t in points]:
                assert significance_stars(t_value, n) == expected(t_value, n), (t_value, n)

    def test_table_rows_and_csv(self, tmp_path):
        res = OlsResult(
            alpha=0.003, beta=0.046, t_alpha=0.58, t_beta=4.72,
            r_squared=0.01, n=2000, residual_variance=0.002,
        )
        rob = OlsResult(
            alpha=0.003, beta=0.046, t_alpha=0.51, t_beta=3.9,
            r_squared=0.01, n=2000, residual_variance=0.002,
        )
        rows = regression_table_rows(
            {("retail", "NET"): res}, {("retail", "NET"): rob}
        )
        assert rows[0]["beta_stars"] == "***"
        assert rows[0]["alpha_stars"] == ""
        assert rows[0]["t_beta_robust"] == 3.9
        path = tmp_path / "table.csv"
        path.write_text(table_csv(rows))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("group,flow,alpha,")
        assert "0.046" in lines[1] and "***" in lines[1]
        assert read_table_csv(path) == rows


class TestStudentTTail:
    """The pure-Python t tail decides the stars; scipy only backs up the
    p values within 1e-9 of a level and df above 10**5."""

    @staticmethod
    def scipy_stars(t_value, n):
        from scipy.special import stdtr

        p = 2.0 * float(stdtr(n - 2, -abs(t_value)))
        return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""

    def test_series_matches_stdtr(self):
        from scipy.special import stdtr

        rng = np.random.default_rng(91)
        dfs = np.concatenate([rng.integers(1, 60, 300), rng.integers(60, 5_000, 300),
                              [10**4, 5 * 10**4, 10**5 - 1, 10**5]])
        for df in dfs.tolist():
            for t_value in rng.normal(0.0, 3.0, 3).tolist() + [0.0, 1.96]:
                expected = 2.0 * float(stdtr(df, -abs(t_value)))
                assert abs(_t_two_sided_p(t_value, df) - expected) <= 1e-11, (t_value, df)

    def test_stars_equal_the_scipy_decision(self):
        from scipy.stats import t as student_t

        rng = np.random.default_rng(92)
        ns = np.exp(rng.uniform(math.log(3), math.log(3_000), 10_000)).astype(int).tolist()
        for i, n in enumerate(ns):
            critical = float(student_t.isf((0.1, 0.05, 0.01)[i % 3] / 2, n - 2))
            t_value = (
                float(rng.normal(0.0, 3.0)),
                critical * (1.0 + float(rng.uniform(-5e-9, 5e-9))),  # inside the guard
                critical,  # the series alone flips about half of these
                math.nextafter(critical, math.inf),
            )[i % 4]
            assert significance_stars(t_value, n) == self.scipy_stars(t_value, n), (t_value, n)
        for n in (2, 1, 0, 10**5 + 3, 10**7):  # no series here: df < 1 or df > 10**5
            for t_value in (0.5, 1.7, 2.0, 3.0):
                assert significance_stars(t_value, n) == self.scipy_stars(t_value, n)

    def test_clear_cut_stars_leave_scipy_unloaded(self):
        src = Path(flowmem.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from flowmem.stats import significance_stars as s\n"
            "ts = (0.0, 1.0, 1.8, -2.5, 4.0, 40.0)\n"
            "got = [s(t, n) for n in (3, 30, 2000, 10**5 + 2) for t in ts]\n"
            "print(sorted(set(got)), any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "s(1.959963984540054, 10**7)\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert done.stdout.splitlines() == ["['', '*', '**', '***'] False", "True"]


class TestPricesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-02,100.0\n2020-01-03,101.5\n")
        calendar, closes = read_prices_csv(path)
        assert calendar == ("2020-01-02", "2020-01-03")
        np.testing.assert_array_equal(closes, [100.0, 101.5])

    def test_bad_close_reports_line(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-02,100.0\n2020-01-03,zero\n")
        with pytest.raises(StatsError, match="line 3"):
            read_prices_csv(path)

    def test_unsorted_dates(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-03,100.0\n2020-01-02,101.0\n")
        with pytest.raises(StatsError, match="increasing"):
            read_prices_csv(path)

    @pytest.mark.parametrize("column", ["close", "value"])
    def test_not_utf8_names_the_file(self, tmp_path, column):
        path = tmp_path / "prices.csv"
        path.write_bytes(f"date,{column}\n2020-01-02,100.0\n2020-01-03,1\xe9\n".encode("latin-1"))
        with pytest.raises(StatsError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            read_prices_csv(path, column=column)

    @pytest.mark.parametrize("column", ["close", "value"])
    @pytest.mark.parametrize("bad", ["2020-13-45", "2020-02-30", "20200103", "2020-W01-5"])
    def test_impossible_date_names_line(self, tmp_path, column, bad):
        path = tmp_path / "prices.csv"
        path.write_text(f"date,{column}\n2020-01-02,100.0\n{bad},101.0\n")
        with pytest.raises(StatsError, match=f"line 3: bad date '{bad}'"):
            read_prices_csv(path, column=column)
