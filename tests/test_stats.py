import datetime
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
from flowmem.rolling import RollingHurst
from flowmem.stats import (
    FILL_POLICIES,
    AlignedPairs,
    align_h_rv,
    ols,
    read_prices_csv,
    regression_table,
    significance_stars,
)
from flowmem.stats import _t_two_sided_p


def make_rolling(pairs, step=5):
    rows = tuple(
        (d, h, 0.01, 0.99, 10, None)
        if h is not None
        else (d, math.nan, math.nan, math.nan, 0, "gap")
        for d, h in pairs
    )
    return RollingHurst.from_rows(rows, window=250, step=step)


def day(i):
    return f"d{i:05d}"


def write_prices(tmp_path, closes):
    """A prices file with one close per day from 2020-01-01; returns its path
    and its calendar."""
    first = datetime.date(2020, 1, 1)
    dates = [(first + datetime.timedelta(days=i)).isoformat() for i in range(len(closes))]
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n" + "".join(f"{d},{c!r}\n" for d, c in zip(dates, closes)))
    return path, dates


class TestVolatility:
    """`regression_table` takes the squared log return of a prices file."""

    def test_price_pipeline_matches_hand_oracle(self, tmp_path):
        prices = [100.0, 102.0, 101.0, 105.0, 104.0, 107.0]
        path, dates = write_prices(tmp_path, prices)
        hs = [0.5, 0.6, 0.55, 0.7, 0.65]
        rolling = make_rolling(list(zip(dates[1:], hs)), step=1)  # one exponent per return day
        (row,) = regression_table(
            {("retail", "NET"): rolling}, read_prices_csv(path), "forward_fill", 0, False
        )
        expected = ols([math.log(b / a) ** 2 for a, b in zip(prices, prices[1:])], hs)
        assert (row["group"], row["flow"], row["n"]) == ("retail", "NET", 5)
        for name in ("alpha", "t_alpha", "beta", "t_beta", "r_squared"):
            assert row[name] == pytest.approx(getattr(expected, name), rel=1e-9), name
        assert row["beta_stars"] == significance_stars(row["t_beta"], 5)
        assert "t_beta_robust" not in row

    def test_one_price_is_too_few(self, tmp_path):
        path, dates = write_prices(tmp_path, [100.0])
        with pytest.raises(StatsError, match="^need at least 2 prices$"):
            regression_table({("retail", "NET"): make_rolling([(dates[0], 0.5)])},
                             read_prices_csv(path), "forward_fill", 0, False)


class TestAlignment:
    def test_forward_fill_policy(self):
        rolling = make_rolling([(day(249), 0.6), (day(254), 0.8)], step=5)
        rv_cal = tuple(day(249 + i) for i in range(10))
        pairs = align_h_rv(rolling, rv_cal, np.arange(10.0), "forward_fill")
        assert pairs.dates == rv_cal  # both entries live 5 days each
        np.testing.assert_array_equal(pairs.hurst[:5], 0.6)
        np.testing.assert_array_equal(pairs.hurst[5:], 0.8)

    def test_staleness_cap(self):
        rolling = make_rolling([(day(0), 0.6)], step=5)
        rv_cal = tuple(day(i) for i in range(12))
        pairs = align_h_rv(rolling, rv_cal, np.zeros(12), "forward_fill")
        assert len(pairs.dates) == 5  # held at most `step` days

    def test_step_dates_only(self):
        rolling = make_rolling([(day(249), 0.6), (day(254), 0.8)], step=5)
        rv_cal = tuple(day(249 + i) for i in range(10))
        pairs = align_h_rv(rolling, rv_cal, np.arange(10.0), "step_dates_only")
        assert pairs.dates == (day(249), day(254))
        np.testing.assert_array_equal(pairs.volatility, [0.0, 5.0])

    def test_gap_days_excluded_matches_oracle(self):
        spec = [(day(0), 0.5), (day(5), None), (day(10), 0.7)]
        rolling = make_rolling(spec, step=5)
        rv_cal = tuple(day(i) for i in range(15))
        rng = np.random.Generator(np.random.PCG64(3))
        vol = rng.uniform(size=15)
        pairs = align_h_rv(rolling, rv_cal, vol, "forward_fill")

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
            expected.append((d, h, vol[i]))
        assert pairs.dates == tuple(d for d, _, _ in expected)
        np.testing.assert_array_equal(pairs.hurst, [h for _, h, _ in expected])
        np.testing.assert_array_equal(pairs.volatility, [v for _, _, v in expected])
        assert len(pairs.dates) == 10

    def test_no_overlap(self):
        # volatility ends before the first exponent exists
        rolling = make_rolling([(day(100), 0.5)])
        rv_cal = (day(0), day(1))
        with pytest.raises(StatsError, match="no overlapping"):
            align_h_rv(rolling, rv_cal, np.zeros(2))
        with pytest.raises(StatsError, match="no overlapping"):
            align_h_rv(rolling, rv_cal, np.zeros(2), "step_dates_only")

    def test_trailing_entry_covers_next_step_days(self):
        # staleness is counted in volatility trading days at/after the stamp
        rolling = make_rolling([(day(0), 0.5)], step=5)
        pairs = align_h_rv(rolling, (day(50), day(51)), np.zeros(2))
        assert pairs.dates == (day(50), day(51))

    def test_lagged_pairs(self, tmp_path):
        closes = [100.0, 101.0, 99.5, 102.0, 103.5, 101.0, 104.0, 106.5]
        path, dates = write_prices(tmp_path, closes)
        hs = [0.40, 0.55, 0.45, 0.60, 0.70, 0.50, 0.65]
        rolling = {("foreign", "BUY"): make_rolling(list(zip(dates[1:], hs)), step=1)}
        (row,) = regression_table(rolling, read_prices_csv(path), "forward_fill", 2, True)
        # volatility at t against the exponent two pairs earlier
        vol = np.diff(np.log(np.array(closes))) ** 2
        expected = ols(vol[2:], np.array(hs)[:-2])
        assert row["n"] == 5
        assert (row["alpha"], row["beta"], row["t_beta"]) == (
            expected.alpha, expected.beta, expected.t_beta)
        assert (row["t_alpha_robust"], row["t_beta_robust"]) == (
            expected.t_alpha_robust, expected.t_beta_robust)
        # 7 pairs: a lag of 7 or more leaves none
        for lag, message in ((7, "lag 7 leaves no pairs"), (9, "lag 9 leaves no pairs"),
                             (-1, "lag must be >= 0, got -1")):
            with pytest.raises(StatsError, match=f"^{re.escape(message)}$"):
                regression_table(rolling, read_prices_csv(path), "forward_fill", lag, False)


def reference_align_h_rv(rolling, calendar, volatility, fill_policy="forward_fill"):
    """The pointer walk over per-window entries that `align_h_rv` replaced,
    kept as its oracle."""
    if fill_policy not in FILL_POLICIES:
        raise StatsError(f"unknown fill policy {fill_policy!r}")
    entries = rolling.entries
    if not entries:
        raise StatsError("rolling series has no entries")

    dates: list[str] = []
    hs: list[float] = []
    vols: list[float] = []
    if fill_policy == "step_dates_only":
        by_date = {e.end_date: e for e in entries}
        for i, d in enumerate(calendar):
            e = by_date.get(d)
            if e is not None and e.ok:
                dates.append(d)
                hs.append(e.hurst)
                vols.append(float(volatility[i]))
    else:
        ptr = -1
        active_i = -1  # volatility index at which the current entry became active
        for i, d in enumerate(calendar):
            while ptr + 1 < len(entries) and entries[ptr + 1].end_date <= d:
                ptr += 1
                active_i = i
            if ptr < 0:
                continue
            e = entries[ptr]
            if not e.ok:
                continue
            if i - active_i >= rolling.step:
                continue  # staleness cap: held for at most `step` days
            dates.append(d)
            hs.append(e.hurst)
            vols.append(float(volatility[i]))
    if not dates:
        raise StatsError("no overlapping dates between rolling exponent and volatility")
    return AlignedPairs(dates=tuple(dates), hurst=np.asarray(hs), volatility=np.asarray(vols))


@st.composite
def alignment_cases(draw):
    """A calendar of 1-40 days, 1-15 stamps before, inside and after it with
    any pattern of gaps, a step of 1-6 and a fill policy."""
    days = sorted(draw(st.sets(st.integers(10, 50), min_size=1, max_size=40)))
    stamps = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=15)))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    hs = [None if draw(st.integers(0, 3)) == 0 else draw(finite) for _ in stamps]  # a gap in 4
    volatility = np.array(draw(st.lists(finite, min_size=len(days), max_size=len(days))))
    rolling = make_rolling(list(zip(map(day, stamps), hs)), step=draw(st.integers(1, 6)))
    return rolling, tuple(map(day, days)), volatility, draw(st.sampled_from(FILL_POLICIES))


class TestAlignmentOracle:
    @given(alignment_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pointer_walk(self, case):
        def outcome(align):
            try:
                pairs = align(*case)
            except StatsError as exc:
                return str(exc)
            return pairs.dates, pairs.hurst.tobytes(), pairs.volatility.tobytes()

        assert outcome(align_h_rv) == outcome(reference_align_h_rv)


def one_mask_align_h_rv(rolling, calendar, volatility, fill_policy):
    """`align_h_rv` as one mask over the days, before its date pairing was
    split out, kept as the oracle of that split."""
    ends = np.asarray(rolling.end_dates, dtype=str)
    days = np.asarray(calendar, dtype=str)
    latest = np.searchsorted(ends, days, side="right") - 1
    if fill_policy == "step_dates_only":
        fresh = ends[latest] == days
    else:
        fresh = np.arange(days.size) - np.searchsorted(latest, latest) < rolling.step
    kept = np.flatnonzero((latest >= 0) & rolling.ok[latest] & fresh)
    if not kept.size:
        raise StatsError("no overlapping dates between rolling exponent and volatility")
    return AlignedPairs(
        dates=tuple(days[kept].tolist()),
        hurst=rolling.hurst[latest[kept]],
        volatility=np.asarray(volatility, dtype=float)[kept],
    )


@st.composite
def pairing_cases(draw):
    """1-30 stamps and a volatility calendar of 1-60 days, both real dates,
    the calendar able to start before the first stamp and end after the
    last; a step of 1-10, a fill policy, and any gap mask, all gaps too."""
    first = datetime.date(2020, 1, 1)

    def dates(low, high, most):
        offsets = sorted(draw(st.sets(st.integers(low, high), min_size=1, max_size=most)))
        return [(first + datetime.timedelta(days=i)).isoformat() for i in offsets]

    stamps, days = dates(20, 80, 30), dates(0, 100, 60)
    gaps = draw(st.just([True] * len(stamps)) | st.lists(st.booleans(), min_size=len(stamps),
                                                          max_size=len(stamps)))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    hs = [None if gap else draw(finite) for gap in gaps]
    volatility = np.array(draw(st.lists(finite, min_size=len(days), max_size=len(days))))
    rolling = make_rolling(list(zip(stamps, hs)), step=draw(st.integers(1, 10)))
    return rolling, tuple(days), volatility, draw(st.sampled_from(FILL_POLICIES))


class TestPairingSplit:
    @given(pairing_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_one_mask_formula(self, case):
        def outcome(align):
            try:
                pairs = align(*case)
            except StatsError as exc:
                return str(exc)
            return pairs.dates, pairs.hurst.tolist(), pairs.volatility.tolist()

        assert outcome(align_h_rv) == outcome(one_mask_align_h_rv)


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

    @pytest.mark.filterwarnings("error")
    def test_regressor_constant_within_round_off(self):
        """x spread over 2 ulps of 1e6 is constant to within the round-off
        of its mean; the fit read t_beta_robust = inf from it."""
        with pytest.raises(StatsError, match=re.escape("degenerate regressor: x is constant")):
            ols([0.0, 1.0, 2.0], [1e6, 1e6, 1e6 * (1 + 2**-52)])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_raises(self):
        """An x spread of 1e-160 against a y of 1e6 resolves beta (3e160)
        but not its variance, which overflowed to a t_beta of 0.0."""
        with pytest.raises(StatsError, match="variance overflows"):
            ols([1e6, -1e6, 3.0], [0.0, 0.0, 1e-160])

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
        res = ols(y, x)
        assert abs(res.t_beta_robust / res.t_beta - 1.0) < 0.1

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_robust_and_classic_agree_on_estimates(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        res = ols(y, x)
        # each t-value is the one estimate over its own standard error: the
        # HC1 ones against the sandwich (X'X)^-1 X' diag(u^2) X (X'X)^-1 n/(n-2)
        design = np.column_stack([np.ones(30), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        np.testing.assert_allclose([res.alpha, res.beta], coef, rtol=1e-9, atol=1e-12)
        bread = np.linalg.inv(design.T @ design)
        u2 = (y - design @ coef) ** 2
        cov = 30 / 28 * bread @ (design.T * u2) @ design @ bread
        robust = coef / np.sqrt(np.diag(cov))
        got = [res.t_alpha_robust, res.t_beta_robust]
        np.testing.assert_allclose(got, robust, rtol=1e-7, atol=1e-9)


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
        # volatility = 1e-4 * H + e, with e orthogonal to 1 and H: alpha 0, beta 1e-4
        hs = [0.3, 0.3, 0.5, 0.5, 0.7, 0.7, 0.9, 0.9] * 3
        vols = [1e-4 * h + (2e-6 if i % 2 == 0 else -2e-6) for i, h in enumerate(hs)]
        closes = [100.0]
        for v in vols:
            closes.append(closes[-1] * math.exp(math.sqrt(v)))
        path, dates = write_prices(tmp_path, closes)
        rolling = make_rolling(list(zip(dates[1:], hs)), step=1)
        rows = regression_table(
            {("retail", "NET"): rolling}, read_prices_csv(path), "forward_fill", 0, True
        )
        assert rows[0]["beta_stars"] == "***"
        assert rows[0]["alpha_stars"] == ""
        vol = np.diff(np.log(np.array(closes))) ** 2
        assert rows[0]["t_beta_robust"] == ols(vol, hs).t_beta_robust
        assert rows[0]["t_beta_robust"] != rows[0]["t_beta"]
        path = tmp_path / "table.csv"
        path.write_text(table_csv(rows))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("group,flow,alpha,")
        assert lines[0].endswith(",n,t_alpha_robust,t_beta_robust")
        assert "***" in lines[1]
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
        for close, cause in (("zero", "bad close 'zero'"),
                             ("-5.0", "close must be positive and finite"),
                             ("0", "close must be positive and finite")):
            path.write_text(f"date,close\n2020-01-02,100.0\n2020-01-03,{close}\n")
            with pytest.raises(StatsError, match=f"^{re.escape(str(path))}: line 3: {cause}$"):
                read_prices_csv(path)

    def test_unsorted_dates(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-03,100.0\n2020-01-02,101.0\n")
        with pytest.raises(StatsError, match="increasing"):
            read_prices_csv(path)

    @pytest.mark.parametrize("later", ["2020-01-02", "2020-01-03"], ids=["backwards", "repeated"])
    def test_out_of_order_date_names_both_lines(self, tmp_path, later):
        path = tmp_path / "prices.csv"
        path.write_text(f"date,close\n2020-01-02,100.0\n2020-01-03,101.0\n{later},102.0\n")
        expected = (
            f"{path}: line 4: dates must be strictly increasing: "
            f"{later} is not after 2020-01-03 of line 3"
        )
        with pytest.raises(StatsError, match=f"^{re.escape(expected)}$"):
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
