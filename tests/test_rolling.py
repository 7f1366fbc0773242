import math

import numpy as np
import pytest

from flowmem.dfa import DfaConfig, dfa_hurst
from flowmem.errors import DfaError, FlowmemError
from flowmem.pipeline import read_rolling_csv, rolling_csv
from flowmem.rolling import RegimeWindow, RollingHurst, regime_summary, rolling_hurst
from flowmem.synth import fgn, iid_gaussian


def day_calendar(n, start=0):
    # sortable synthetic trading-day identifiers
    return tuple(f"d{start + i:05d}" for i in range(n))


class TestRollingHurst:
    def test_window_count_and_end_dates(self):
        x = iid_gaussian(260, seed=1)
        cal = day_calendar(260)
        roll = rolling_hurst(x, cal, window=250, step=5)
        assert len(roll.entries) == 3
        assert [e.end_date for e in roll.entries] == ["d00249", "d00254", "d00259"]

    def test_stationary_series_is_stable(self):
        x = fgn(0.7, 3000, seed=1)
        roll = rolling_hurst(x, day_calendar(3000), window=250, step=5)
        hs = roll.hurst[roll.ok]
        assert hs.size == len(roll.entries)
        # window estimates have sigma ~0.05, so a hard +-0.15 band on every
        # one of 551 entries is not statistically available; 97% is
        assert np.mean(np.abs(hs - 0.7) <= 0.15) >= 0.97
        assert hs.std() < 0.06

    def test_regime_shift_detected(self):
        x = np.concatenate([fgn(0.6, 1500, seed=50), fgn(0.9, 1500, seed=80)])
        roll = rolling_hurst(x, day_calendar(3000), window=250, step=5)
        hs = roll.hurst[roll.ok]
        assert hs.mean() is not None
        assert np.mean(hs[-10:]) - np.mean(hs[:10]) >= 0.2

    def test_entries_match_independent_slices(self):
        x = fgn(0.6, 300, seed=9)
        cal = day_calendar(300)
        config = DfaConfig()
        roll = rolling_hurst(x, cal, window=250, step=10, config=config)
        for i, entry in enumerate(roll.entries):
            start = i * 10
            fit = dfa_hurst(x[start : start + 250], config)
            assert entry.hurst == fit.hurst
            assert entry.stderr == fit.slope_stderr

    def test_shift_equivariance(self):
        x = fgn(0.6, 600, seed=11)
        cal = day_calendar(600, start=5)
        prefix = fgn(0.6, 5, seed=12)
        x2 = np.concatenate([prefix, x])
        cal2 = day_calendar(605)

        a = rolling_hurst(x, cal, window=250, step=5)
        b = rolling_hurst(x2, cal2, window=250, step=5)
        # entries of the prefixed series, after the first, cover the same windows
        assert len(b.entries) == len(a.entries) + 1
        for ea, eb in zip(a.entries, b.entries[1:]):
            assert eb.hurst == ea.hurst
            assert eb.end_date == ea.end_date

    def test_failed_windows_become_gaps(self):
        x = iid_gaussian(600, seed=2)
        x[100:420] = 2.5  # constant stretch annihilates DFA(2) inside it
        roll = rolling_hurst(x, day_calendar(600), window=250, step=5)
        gaps = [e for e in roll.entries if not e.ok]
        good = [e for e in roll.entries if e.ok]
        assert gaps and good
        assert all(e.hurst is None and e.error for e in gaps)
        assert len(roll.entries) == (600 - 250) // 5 + 1

    def test_iid_concentrates_near_half(self):
        # seed-averaged; the small-scale white-noise slope excess (+0.06 at
        # W=250) caps the fraction inside [0.4, 0.6] at ~0.75
        cal = day_calendar(1500)
        fracs, means = [], []
        for seed in range(5):
            roll = rolling_hurst(iid_gaussian(1500, seed=seed), cal, 250, 5)
            hs = roll.hurst[roll.ok]
            fracs.append(np.mean((hs >= 0.4) & (hs <= 0.6)))
            means.append(hs.mean())
        assert np.mean(fracs) >= 0.70
        assert 0.45 <= np.mean(means) <= 0.62

    def test_series_shorter_than_window(self):
        with pytest.raises(DfaError, match="shorter"):
            rolling_hurst(iid_gaussian(100, seed=1), day_calendar(100), window=250)

    def test_window_with_too_few_scales_raises(self):
        """A 24-day window's grid keeps 2 scales: every window would be a gap,
        so the length is an error, not a series of gaps."""
        with pytest.raises(DfaError, match="^length 24 leaves 2 DFA scales; a fit needs 4$"):
            rolling_hurst(iid_gaussian(600, seed=1), day_calendar(600), window=24)

    def test_csv_gap_rows(self, tmp_path):
        rows = (
            ("2020-01-02", 0.5, 0.01, 0.99, 12, None),
            ("2020-01-03", math.nan, math.nan, math.nan, 0, "insufficient scales"),
        )
        roll = RollingHurst.from_rows(rows, window=250, step=5)
        path = tmp_path / "roll.csv"
        path.write_text(rolling_csv(roll))
        assert path.read_text() == "end_date,H,stderr,r2\n2020-01-02,0.5,0.01,0.99\n2020-01-03,,,\n"
        # the file holds neither the window length, n_points_used nor a gap's reason
        assert read_rolling_csv(path, step=5) == RollingHurst.from_rows(
            (
                ("2020-01-02", 0.5, 0.01, 0.99, 0, None),
                ("2020-01-03", math.nan, math.nan, math.nan, 0, "gap"),
            ),
            window=None,
            step=5,
        )


    @pytest.mark.parametrize("second", ["2020-01-02", "2020-01-01"], ids=["repeats", "goes-back"])
    def test_csv_end_dates_must_increase(self, tmp_path, second):
        path = tmp_path / "roll.csv"
        path.write_text(f"end_date,H,stderr,r2\n2020-01-02,0.5,0.01,0.99\n{second},,,\n")
        with pytest.raises(FlowmemError) as info:
            read_rolling_csv(path, step=5)
        assert str(info.value) == (
            f"{path}: line 3: dates must be strictly increasing: {second} is not after "
            "2020-01-02 of line 2"
        )

class TestRegimeSummary:
    def _roll(self, pairs):
        rows = tuple(
            (d, h, 0.01, 0.99, 10, None)
            if h is not None
            else (d, math.nan, math.nan, math.nan, 0, "gap")
            for d, h in pairs
        )
        return RollingHurst.from_rows(rows, window=250, step=5)

    def test_two_entry_window(self):
        roll = self._roll([("2020-01-02", 0.6), ("2020-01-03", 0.8)])
        (summary,) = regime_summary(
            roll, [RegimeWindow("w", "2020-01-01", "2020-02-01")]
        )
        assert summary.n_obs == 2
        assert summary.mean_hurst == pytest.approx(0.7)
        assert summary.std_hurst == pytest.approx(0.1)  # population std
        assert summary.min_hurst == 0.6
        assert summary.max_hurst == 0.8

    def test_empty_window(self):
        roll = self._roll([("2020-01-02", 0.6)])
        (summary,) = regime_summary(
            roll, [RegimeWindow("later", "2021-01-01", "2021-02-01")]
        )
        assert summary.n_obs == 0
        assert summary.mean_hurst is None

    def test_gaps_do_not_count(self):
        roll = self._roll([("2020-01-02", 0.6), ("2020-01-03", None)])
        (summary,) = regime_summary(
            roll, [RegimeWindow("w", "2020-01-01", "2020-02-01")]
        )
        assert summary.n_obs == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(33))
        dates = [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(100)]
        hs = rng.uniform(0.3, 1.1, 100)
        roll = self._roll(list(zip(dates, hs)))
        windows = [
            RegimeWindow("a", "2020-01-01", "2020-02-15"),
            RegimeWindow("b", "2020-02-10", "2020-03-20"),
            RegimeWindow("c", "2020-03-25", "2020-12-31"),
        ]
        summaries = regime_summary(roll, windows)
        for win, got in zip(windows, summaries):
            inside = [h for d, h in zip(dates, hs) if win.start_date <= d <= win.end_date]
            assert got.n_obs == len(inside)
            if inside:
                assert got.mean_hurst == pytest.approx(np.mean(inside))
                assert got.std_hurst == pytest.approx(np.std(inside))
                assert got.min_hurst == pytest.approx(np.min(inside))
                assert got.max_hurst == pytest.approx(np.max(inside))

    def test_invalid_window(self):
        with pytest.raises(DfaError, match="start"):
            RegimeWindow("w", "2020-02-01", "2020-01-01")

    def test_empty_rolling_rejected(self):
        roll = RollingHurst.from_rows((), window=250, step=5)
        with pytest.raises(DfaError, match="no entries"):
            regime_summary(roll, [RegimeWindow("w", "2020-01-01", "2020-02-01")])
