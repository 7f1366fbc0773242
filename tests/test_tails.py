import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc
from scipy.stats import norm

from flowmem.errors import TailError
from flowmem.synth import iid_gaussian, pareto
from flowmem.tails import (
    CcdfPoints,
    empirical_ccdf,
    fit_tail_exponent,
    gaussian_ccdf_reference,
)


def exact_power_law_sample(alpha, n):
    """Values whose empirical CCDF points satisfy p = x^(-alpha) exactly."""
    i = np.arange(1, n)
    xs = ((n - i) / n) ** (-1.0 / alpha)
    return np.concatenate([xs, [xs[-1] * 10.0]])


class TestEmpiricalCcdf:
    def test_counting_example(self):
        ccdf = empirical_ccdf([1.0, 2.0, 3.0, 4.0] + [0.5] * 6, side="upper")
        lookup = dict(zip(ccdf.xs.tolist(), ccdf.ps.tolist()))
        assert lookup[1.0] == 3 / 10
        assert lookup[3.0] == 1 / 10
        assert 4.0 not in lookup  # zero-probability maximum is dropped

    def test_distinct_sample_invariants(self):
        v = np.arange(1.0, 26.0)
        ccdf = empirical_ccdf(v)
        assert ccdf.ps[0] <= 1.0
        assert ccdf.ps[-1] == 1.0 / 25.0
        assert np.all(np.diff(ccdf.xs) > 0)
        assert np.all(np.diff(ccdf.ps) < 0)

    def test_absolute_side(self):
        v = np.array([-5.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 6.0])
        ccdf = empirical_ccdf(v, side="absolute")
        assert ccdf.xs[0] == 1.0
        assert ccdf.side == "absolute"

    def test_degenerate_all_equal(self):
        with pytest.warns(UserWarning, match="degenerate"):
            ccdf = empirical_ccdf(np.full(12, 3.0))
        assert (ccdf.xs.tolist(), ccdf.ps.tolist()) == ([3.0], [1.0])

    def test_too_few_values(self):
        with pytest.raises(TailError):
            empirical_ccdf(np.arange(9.0))

    def test_within_dkw_band_of_analytic_gaussian(self):
        n = 1000
        x = iid_gaussian(n, seed=41)
        ccdf = empirical_ccdf(x)
        eps = np.sqrt(np.log(2.0 / 0.01) / (2.0 * n))  # 99% DKW band
        assert np.max(np.abs(ccdf.ps - norm.sf(ccdf.xs))) < eps

    @given(
        st.lists(st.floats(-1e9, 1e9), min_size=10, max_size=300),
        st.sampled_from(["upper", "absolute"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_any_input(self, values, side):
        import warnings

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                ccdf = empirical_ccdf(values, side=side)
        except TailError:
            return
        assert np.all(ccdf.ps > 0)
        assert np.all(ccdf.ps <= 1)
        assert np.all(np.diff(ccdf.xs) > 0)
        assert np.all(np.diff(ccdf.ps) <= 0)


class TestGaussianReference:
    def test_half_at_mean(self):
        ref = gaussian_ccdf_reference(2.0, 1.5, [2.0])
        assert abs(ref.ps[0] - 0.5) < 1e-15

    def test_one_sigma(self):
        ref = gaussian_ccdf_reference(0.0, 1.0, [1.0])
        assert abs(ref.ps[0] - 0.15865525393145707) < 1e-12

    def test_five_sigma_matches_quadrature_oracle(self):
        ref = gaussian_ccdf_reference(10.0, 2.0, [20.0])
        oracle, _ = quad(lambda t: np.exp(-t * t / 2.0) / np.sqrt(2 * np.pi), 5.0, 40.0)
        assert abs(ref.ps[0] - oracle) < 1e-12
        assert abs(ref.ps[0] - 2.8665157187919333e-07) < 1e-12

    def test_bad_std(self):
        with pytest.raises(TailError):
            gaussian_ccdf_reference(0.0, 0.0, [1.0])


# erfc(z) underflows past sqrt(MAXLOG): Cephes returns 0 there, libm subnormals
ROOT_MAXLOG = np.sqrt(7.09782712893383996843e2)


class TestGaussianReferenceTolerance:
    """The reference is libm's erfc; it stays within 1e-13 relative of
    scipy.special.erfc (Cephes) on each of Cephes' branches."""

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1.0, 1.0), (1.0, 8.0), (8.0, ROOT_MAXLOG), (ROOT_MAXLOG, 27.5), (-27.5, -1.0)],
        ids=["below_1", "1_to_8", "8_to_cut", "past_cut", "negative"],
    )
    def test_matches_scipy_erfc(self, lo, hi):
        z = np.unique(np.append(np.random.default_rng(2026).uniform(lo, hi, 20_000), [lo, hi]))
        xs = z * np.sqrt(2.0)
        got = gaussian_ccdf_reference(0.0, 1.0, xs).ps
        np.testing.assert_allclose(got, 0.5 * scipy_erfc(xs / np.sqrt(2.0)), rtol=1e-13, atol=1e-300)


def reference_ccdf_ols(values, tail_fraction):
    """The ccdf_ols fit `fit_tail_exponent` made inline before it moved onto
    `dfa.line_fit`: (exponent, stderr)."""
    v = np.asarray(values, dtype=float)
    n_tail = max(10, int(v.size * tail_fraction))
    ccdf = empirical_ccdf(v, side="upper")
    mask = ccdf.xs >= float(np.sort(v)[v.size - n_tail])
    lx = np.log(ccdf.xs[mask])
    ly = np.log(ccdf.ps[mask])
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (ly - ly.mean())) / sxx
    resid = ly - ly.mean() - slope * dx
    return -slope, float(np.sqrt(max(float(resid @ resid), 0.0) / (lx.size - 2) / sxx))


class TestFitTailExponent:
    def test_exact_power_law_ccdf_ols(self):
        values = exact_power_law_sample(2.5, 2000)
        fit = fit_tail_exponent(values, tail_fraction=0.05, method="ccdf_ols")
        assert abs(fit.exponent - 2.5) < 1e-10
        assert fit.stderr < 1e-10
        assert fit.n_tail == 100

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.5, 4.0),
        st.integers(40, 3000),
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 0.5),
        st.sampled_from([None, 2, 1, 0]),
    )
    def test_ccdf_ols_matches_previous_fit(self, alpha, n, seed, tail_fraction, decimals):
        values = pareto(alpha, n, seed)
        if decimals is not None:
            values = np.round(values, decimals)  # ties in the tail
        try:
            fit = fit_tail_exponent(values, tail_fraction, method="ccdf_ols")
        except TailError:
            reject()
        exponent, stderr = reference_ccdf_ols(values, tail_fraction)
        assert fit.exponent == exponent
        assert fit.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_hill_on_pareto_sample(self):
        values = pareto(2.5, 100_000, seed=52)
        fit = fit_tail_exponent(values, tail_fraction=0.01, method="hill")
        assert 2.35 <= fit.exponent <= 2.65
        assert fit.n_tail == 1000
        assert fit.stderr == pytest.approx(fit.exponent / np.sqrt(1000))

    def test_gaussian_contrast(self):
        # a Gaussian tail masquerades as a very steep power law
        values = iid_gaussian(100_000, seed=61)
        hill = fit_tail_exponent(values, tail_fraction=0.01, method="hill")
        assert hill.exponent > 5.0

    def test_scale_equivariance(self):
        values = pareto(2.0, 5000, seed=9)
        for method in ("hill", "ccdf_ols"):
            base = fit_tail_exponent(values, method=method).exponent
            scaled = fit_tail_exponent(37.0 * values, method=method).exponent
            assert abs(base - scaled) < 1e-9

    def test_hill_error_shrinks_with_k(self):
        errs = {k: [] for k in (200, 2000)}
        for seed in range(5):
            values = pareto(2.5, 40_000, seed=100 + seed)
            for k in errs:
                fit = fit_tail_exponent(values, tail_fraction=k / 40_000, method="hill")
                errs[k].append(abs(fit.exponent - 2.5))
        assert np.mean(errs[2000]) < np.mean(errs[200])

    def test_nonpositive_tail_rejected(self):
        values = -np.arange(1.0, 200.0)
        with pytest.raises(TailError, match="nonpositive"):
            fit_tail_exponent(values, method="hill")

    def test_insufficient_points(self):
        with pytest.raises(TailError, match="insufficient|non-finite|at least"):
            fit_tail_exponent(np.arange(1.0, 9.0), method="hill")

    def test_unknown_method(self):
        with pytest.raises(TailError):
            fit_tail_exponent(np.arange(1.0, 100.0), method="mle")


class TestCcdfSerialization:
    def test_invalid_points_rejected(self):
        with pytest.raises(TailError):
            CcdfPoints(xs=np.array([2.0, 1.0]), ps=np.array([0.5, 0.2]), side="upper")
        with pytest.raises(TailError):
            CcdfPoints(xs=np.array([1.0, 2.0]), ps=np.array([0.2, 0.5]), side="upper")
