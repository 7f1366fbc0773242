import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmem.dfa import dfa_hurst
from flowmem.errors import SurrogateError
from flowmem.surrogate import (
    _QUANTILES,
    SurrogateSpec,
    _linear_quantile,
    phase_randomize,
    shuffle,
    surrogate_band,
)
from flowmem.synth import fgn, pareto


def periodogram(x):
    return np.abs(np.fft.rfft(x - x.mean())) ** 2


def heavy_tailed_persistent(n, seed):
    """Long-memory series with symmetric Pareto-like marginal (rank remap)."""
    g = fgn(0.8, n, seed=seed)
    ranks = np.argsort(np.argsort(g))
    u = (ranks + 1.0) / (n + 1.0)
    signed = 2.0 * u - 1.0  # in (-1, 1), order preserved
    return np.sign(signed) * ((1.0 - np.abs(signed)) ** (-1.0 / 2.5) - 1.0)


class TestShuffle:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_multiset_preserved(self, values, seed):
        out = shuffle(values, seed)
        np.testing.assert_array_equal(np.sort(out), np.sort(np.asarray(values)))

    def test_singleton(self):
        np.testing.assert_array_equal(shuffle([7.0], seed=1), [7.0])

    def test_deterministic(self):
        x = np.arange(50.0)
        assert np.array_equal(shuffle(x, seed=5), shuffle(x, seed=5))

    def test_destroys_long_memory(self):
        x = fgn(0.8, 2500, seed=17)
        fit = dfa_hurst(shuffle(x, seed=3))
        assert 0.42 <= fit.hurst <= 0.58


class TestPhaseRandomize:
    @pytest.mark.parametrize("n", [128, 129, 500, 501])
    def test_spectrum_preserved(self, n):
        x = fgn(0.6, n, seed=n)
        out = phase_randomize(x, seed=8)
        p_in = periodogram(x)
        p_out = periodogram(out)
        np.testing.assert_allclose(p_out, p_in, rtol=1e-8, atol=1e-8 * p_in.max())
        assert np.isrealobj(out)

    def test_mean_preserved(self):
        x = fgn(0.7, 256, seed=2) + 5.0
        out = phase_randomize(x, seed=4)
        assert abs(out.mean() - x.mean()) < 1e-10

    def test_too_short(self):
        with pytest.raises(SurrogateError):
            phase_randomize([1.0, 2.0, 3.0], seed=1)

    def test_contrast_with_shuffle(self):
        # phase randomization keeps the long memory, shuffling kills it
        x = fgn(0.8, 2**13, seed=23)
        h_phase = dfa_hurst(phase_randomize(x, seed=6)).hurst
        h_shuffle = dfa_hurst(shuffle(x, seed=6)).hurst
        assert 0.72 <= h_phase <= 0.88
        assert 0.42 <= h_shuffle <= 0.58


class TestSurrogateBand:
    def test_shuffle_band_centers_on_half(self):
        x = heavy_tailed_persistent(2500, seed=31)
        band = surrogate_band(x, SurrogateSpec(kind="shuffle", seed=7, count=50))
        assert 0.47 <= band.mean <= 0.53
        assert all(0.42 <= h <= 0.58 for h in band.hurst_values)
        assert band.std is not None and band.std < 0.05

    def test_count_one_has_no_std(self):
        x = fgn(0.6, 600, seed=3)
        band = surrogate_band(x, SurrogateSpec(kind="shuffle", seed=1, count=1))
        assert band.std is None
        assert band.mean == band.hurst_values[0]

    def test_deterministic(self):
        x = fgn(0.6, 600, seed=3)
        spec = SurrogateSpec(kind="phase_randomize", seed=11, count=5)
        a = surrogate_band(x, spec)
        b = surrogate_band(x, spec)
        assert a == b

    def test_child_streams_independent_of_count(self):
        # surrogate k must not depend on how many surrogates are requested
        x = fgn(0.6, 600, seed=3)
        for kind in ("shuffle", "phase_randomize"):
            small = surrogate_band(x, SurrogateSpec(kind=kind, seed=9, count=3))
            large = surrogate_band(x, SurrogateSpec(kind=kind, seed=9, count=6))
            assert small.hurst_values == large.hurst_values[:3]

    def test_invalid_spec(self):
        with pytest.raises(SurrogateError):
            SurrogateSpec(kind="bootstrap", seed=1, count=2)
        with pytest.raises(SurrogateError):
            SurrogateSpec(kind="shuffle", seed=1, count=0)

    def test_json_and_csv_outputs(self, tmp_path):
        # the files `flowmem surrogate` writes for a series hold its band
        import datetime

        from click.testing import CliRunner

        from flowmem.cli import main
        from flowmem.pipeline import _csv_text, _json_text

        x = pareto(2.0, 600, seed=5)
        band = surrogate_band(x, SurrogateSpec(kind="shuffle", seed=2, count=3))
        start = datetime.date(2015, 1, 1)
        dates = [(start + datetime.timedelta(days=i)).isoformat() for i in range(x.size)]
        series, jpath, cpath = tmp_path / "series.csv", tmp_path / "band.json", tmp_path / "values.csv"
        series.write_text(_csv_text("date,value", (f"{d},{v!r}" for d, v in zip(dates, x.tolist()))))
        args = ["surrogate", "--series", series, "--kind", "shuffle", "--count", 3, "--seed", 2,
                "--out", jpath, "--out-values", cpath]
        result = CliRunner().invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        assert jpath.read_text() == _json_text(band.to_json_dict())
        assert cpath.read_text().splitlines() == ["surrogate_index,hurst"] + [
            f"{i},{h!r}" for i, h in enumerate(band.hurst_values)
        ]


class TestLinearQuantile:
    """The band's quantiles are np.quantile's "linear" ones, bit for bit."""

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.one_of(st.sampled_from(_QUANTILES), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_np_quantile(self, values, q):
        ordered = np.sort(np.asarray(values)).tolist()
        assert _linear_quantile(ordered, q) == float(np.quantile(np.asarray(values), q))

    @given(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_band_quantiles_on_hurst_like_values(self, values):
        ordered = np.sort(np.asarray(values)).tolist()
        for q in _QUANTILES:
            assert _linear_quantile(ordered, q) == float(np.quantile(np.asarray(values), q))

    def test_nan_makes_every_quantile_nan(self):
        values = np.array([0.4, float("nan"), 0.6])
        for q in _QUANTILES:
            assert math.isnan(np.quantile(values, q))
            assert math.isnan(_linear_quantile(np.sort(values).tolist(), q))
