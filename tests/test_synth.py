import numpy as np
import pytest

from flowmem.errors import SynthError
from flowmem.synth import (
    GeneratorSpec,
    cumsum,
    fgn,
    fgn_autocovariance,
    generate,
    iid_gaussian,
    pareto,
)


def sample_autocov(x, lag):
    xc = x - x.mean()
    return float(np.mean(xc[:-lag] * xc[lag:]))


class TestFgn:
    def test_h_half_is_white(self):
        n = 2**14
        x = fgn(0.5, n, seed=10)
        assert abs(sample_autocov(x, 1)) < 3.0 / np.sqrt(n)

    def test_autocovariance_matches_analytic(self):
        n = 2**14
        x = fgn(0.7, n, seed=20)
        tol = 4.0 / np.sqrt(n)
        for lag in range(1, 6):
            expected = fgn_autocovariance(0.7, lag)
            assert abs(sample_autocov(x, lag) - expected) < tol

    def test_unit_variance(self):
        # sample variance of fGn converges at rate n^(2H-2) once H > 3/4,
        # so the tolerance must widen with H; 4/sqrt(n) applies below that
        n = 2**14
        for h in (0.3, 0.6, 0.9):
            x = fgn(h, n, seed=31)
            tol = 4.0 * max(n**-0.5, float(n) ** (2.0 * h - 2.0))
            assert abs(np.var(x) - 1.0) < tol

    def test_deterministic(self):
        a = fgn(0.8, 512, seed=99)
        b = fgn(0.8, 512, seed=99)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, fgn(0.8, 512, seed=100))

    def test_odd_length_ok(self):
        x = fgn(0.7, 1001, seed=5)
        assert x.shape == (1001,)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_out_of_range(self, h):
        with pytest.raises(SynthError):
            fgn(h, 64, seed=1)

    def test_too_short(self):
        with pytest.raises(SynthError):
            fgn(0.5, 1, seed=1)

    def test_h_near_one_at_large_n_takes_the_embedding(self):
        # the embedding's eigenvalues go negative here by rounding alone;
        # the lag-1 variogram E(x[t+1] - x[t])^2 = 2 (gamma(0) - gamma(1))
        # reads gamma(1), where the sample mean of so persistent a series
        # does not converge
        x = fgn(0.9999, 2**16, seed=3)
        gamma1 = float(fgn_autocovariance(0.9999, 1))
        lag1 = 1.0 - float(np.mean(np.diff(x) ** 2)) / 2.0
        assert abs(lag1 - gamma1) < 0.05 * (1.0 - gamma1)

    def test_spectral_slope(self):
        # fGn spectral density behaves like f^(1-2H) at low frequencies
        n = 2**15
        for h in (0.3, 0.8):
            x = fgn(h, n, seed=77)
            per = np.abs(np.fft.rfft(x)) ** 2 / n
            freqs = np.fft.rfftfreq(n)
            lo = slice(1, n // 64)
            coef = np.polyfit(np.log(freqs[lo]), np.log(per[lo]), 1)
            assert abs(coef[0] - (1.0 - 2.0 * h)) < 0.2


class TestCumsum:
    def test_basic(self):
        np.testing.assert_array_equal(cumsum([1, 2, 3]), [1.0, 3.0, 6.0])

    def test_zeros(self):
        np.testing.assert_array_equal(cumsum(np.zeros(5)), np.zeros(5))


class TestPareto:
    def test_support(self):
        x = pareto(2.5, 10_000, seed=4)
        assert np.all(x >= 1.0)
        assert np.all(np.isfinite(x))

    def test_median(self):
        x = pareto(2.5, 100_000, seed=6)
        assert abs(np.median(x) - 2 ** (1 / 2.5)) < 0.01

    def test_deterministic(self):
        assert np.array_equal(pareto(1.5, 100, seed=3), pareto(1.5, 100, seed=3))

    def test_bad_alpha(self):
        with pytest.raises(SynthError):
            pareto(0.0, 10, seed=1)


class TestIidGaussian:
    def test_moments(self):
        n = 2**14
        x = iid_gaussian(n, seed=12)
        assert abs(x.mean()) < 4.0 / np.sqrt(n)
        assert abs(np.var(x) - 1.0) < 4.0 / np.sqrt(n)

    def test_deterministic(self):
        assert np.array_equal(iid_gaussian(50, seed=2), iid_gaussian(50, seed=2))


class TestGeneratorSpec:
    def test_dispatch_matches_functions(self):
        spec = GeneratorSpec(kind="fgn", n=256, seed=9, hurst=0.6)
        np.testing.assert_array_equal(generate(spec), fgn(0.6, 256, seed=9))
        spec = GeneratorSpec(kind="fbm_increments_cumsum", n=256, seed=9, hurst=0.6)
        np.testing.assert_array_equal(generate(spec), cumsum(fgn(0.6, 256, seed=9)))
        spec = GeneratorSpec(kind="pareto", n=64, seed=9, alpha=2.0)
        np.testing.assert_array_equal(generate(spec), pareto(2.0, 64, seed=9))
        spec = GeneratorSpec(kind="iid_gaussian", n=64, seed=9)
        np.testing.assert_array_equal(generate(spec), iid_gaussian(64, seed=9))

    def test_missing_parameter(self):
        with pytest.raises(SynthError):
            GeneratorSpec(kind="fgn", n=10, seed=1)
        with pytest.raises(SynthError):
            GeneratorSpec(kind="pareto", n=10, seed=1)

    @pytest.mark.parametrize("kind, params, name", [
        ("iid_gaussian", {"hurst": 0.7}, "hurst"),
        ("fgn", {"hurst": 0.7, "alpha": 2.0}, "alpha"),
        ("pareto", {"hurst": 0.7, "alpha": 2.0}, "hurst"),
    ])
    def test_parameter_the_kind_does_not_take(self, kind, params, name):
        with pytest.raises(SynthError, match=f"kind '{kind}' takes no {name}"):
            GeneratorSpec(kind=kind, n=10, seed=1, **params)

    def test_unknown_kind(self):
        with pytest.raises(SynthError):
            GeneratorSpec(kind="brownian", n=10, seed=1)

    def test_metadata_names_generator(self):
        meta = GeneratorSpec(kind="fgn", n=10, seed=1, hurst=0.5).metadata()
        assert meta["rng"] == "numpy.random.PCG64"
        assert meta["rng_version"] == 1
        assert meta["hurst"] == 0.5
