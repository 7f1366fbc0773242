"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each test registers a `criterion NN PASS/FAIL` line that the terminal
summary prints after the run. These tests are collected last (see
conftest), so the wall-clock criterion at the end covers the session.
"""

import time
from contextlib import contextmanager

import numpy as np

import conftest
from flowmem.dfa import DfaConfig, dfa_hurst
from flowmem.flows import FlowPanel
from flowmem.pipeline import load_config, run_pipeline, static_dfa_table
from flowmem.rolling import rolling_hurst
from flowmem.stats import ols
from flowmem.surrogate import SurrogateSpec, phase_randomize, shuffle, surrogate_band
from flowmem.synth import cumsum, fgn, pareto
from flowmem.tails import fit_tail_exponent


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        conftest.ACCEPTANCE_LINES.append(f"criterion {num:02d} FAIL  {description}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:02d} PASS  {description}")


def day_calendar(n):
    return tuple(f"d{i:05d}" for i in range(n))


def heavy_tailed_persistent(n, seed):
    """Long-memory series with a symmetric Pareto-like marginal: fGn(0.8)
    rank-remapped onto heavy-tailed quantiles, so shuffling must recover
    the short-memory null from a decidedly non-Gaussian distribution."""
    g = fgn(0.8, n, seed=seed)
    ranks = np.argsort(np.argsort(g))
    u = (ranks + 1.0) / (n + 1.0)
    signed = 2.0 * u - 1.0
    return np.sign(signed) * ((1.0 - np.abs(signed)) ** (-1.0 / 2.5) - 1.0)


def test_criterion_1_dfa_estimator_accuracy():
    with criterion(1, "static DFA mean error <= 0.03 (0.05 at H=0.9), < 30 s"):
        t0 = time.perf_counter()
        for hurst, tol in ((0.3, 0.03), (0.5, 0.03), (0.7, 0.03), (0.9, 0.05)):
            hats = [
                dfa_hurst(fgn(hurst, 2**14, seed=s)).hurst for s in range(20)
            ]
            assert abs(np.mean(hats) - hurst) <= tol, (hurst, np.mean(hats))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_nonstationary_slope_identity():
    with criterion(2, "cumulated fGn(0.4) scales with exponent 1.4 +- 0.05"):
        fit = dfa_hurst(cumsum(fgn(0.4, 2**14, seed=0)))
        assert abs(fit.hurst - 1.4) <= 0.05, fit.hurst


def test_criterion_3_shuffle_null():
    with criterion(3, "shuffle null: band mean 0.5 +- 0.03, singles +- 0.08"):
        x = heavy_tailed_persistent(2500, seed=31)
        band = surrogate_band(x, SurrogateSpec(kind="shuffle", seed=7, count=50))
        assert abs(band.mean - 0.5) <= 0.03, band.mean
        assert all(abs(h - 0.5) <= 0.08 for h in band.hurst_values)


def test_criterion_4_phase_randomization_contrast():
    with criterion(4, "phase-randomized keeps H~0.8 while shuffled drops to ~0.5"):
        x = fgn(0.8, 2**13, seed=23)
        h_phase = dfa_hurst(phase_randomize(x, seed=6)).hurst
        h_shuffle = dfa_hurst(shuffle(x, seed=6)).hurst
        assert abs(h_phase - 0.8) <= 0.08, h_phase
        assert abs(h_shuffle - 0.5) <= 0.08, h_shuffle


def test_criterion_5_rolling_regime_detection():
    with criterion(5, "rolling H: regime shift >= 0.2, stationary std < 0.06"):
        cal = day_calendar(3000)
        shifted = np.concatenate([fgn(0.6, 1500, seed=50), fgn(0.9, 1500, seed=80)])
        roll = rolling_hurst(shifted, cal, window=250, step=5)
        hs = roll.hurst[roll.ok]
        assert np.mean(hs[-10:]) - np.mean(hs[:10]) >= 0.2

        stationary = rolling_hurst(fgn(0.7, 3000, seed=1), cal, window=250, step=5)
        assert stationary.hurst[stationary.ok].std() < 0.06


def test_criterion_6_tail_fit_accuracy():
    with criterion(6, "Hill on Pareto(2.5) in [2.35, 2.65]; exact CCDF to 1e-10"):
        sample = pareto(2.5, 100_000, seed=52)
        hill = fit_tail_exponent(sample, tail_fraction=0.01, method="hill")
        assert 2.35 <= hill.exponent <= 2.65, hill.exponent

        n = 2000
        i = np.arange(1, n)
        exact = np.concatenate(
            [((n - i) / n) ** (-1.0 / 2.5), [((1.0) / n) ** (-1.0 / 2.5) * 10.0]]
        )
        fit = fit_tail_exponent(exact, tail_fraction=0.05, method="ccdf_ols")
        assert abs(fit.exponent - 2.5) < 1e-10, fit.exponent


def test_criterion_7_ols_exactness():
    with criterion(7, "OLS exact on lines; matches closed form; beta ~ 0.046 rebuilt"):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        exact = ols(2.0 + 3.0 * x, x)
        assert abs(exact.alpha - 2.0) < 1e-12
        assert abs(exact.beta - 3.0) < 1e-12
        assert exact.r_squared > 1.0 - 1e-12
        assert exact.residual_variance < 1e-12

        xf = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        yf = np.array([2.1, 3.9, 6.2, 7.8, 10.3])
        nf = 5
        sx, sy = xf.sum(), yf.sum()
        beta_o = (nf * (xf * yf).sum() - sx * sy) / (nf * (xf * xf).sum() - sx * sx)
        alpha_o = (sy - beta_o * sx) / nf
        resid = yf - alpha_o - beta_o * xf
        s2 = float(resid @ resid) / (nf - 2)
        sxx_c = float(((xf - xf.mean()) ** 2).sum())
        fit = ols(yf, xf)
        np.testing.assert_allclose(fit.alpha, alpha_o, rtol=1e-10)
        np.testing.assert_allclose(fit.beta, beta_o, rtol=1e-10)
        np.testing.assert_allclose(fit.t_beta, beta_o / np.sqrt(s2 / sxx_c), rtol=1e-10)
        np.testing.assert_allclose(
            fit.t_alpha,
            alpha_o / np.sqrt(s2 * (1.0 / nf + xf.mean() ** 2 / sxx_c)),
            rtol=1e-10,
        )

        n, beta_true = 2000, 0.046
        rng = np.random.Generator(np.random.PCG64(77))
        xs = rng.normal(0.45, 0.1, n)
        sigma = beta_true * 0.1 * np.sqrt(n) / 4.7
        ys = 0.003 + beta_true * xs + rng.normal(0.0, sigma, n)
        rebuilt = ols(ys, xs)
        se_beta = rebuilt.beta / rebuilt.t_beta
        assert abs(rebuilt.beta - beta_true) <= 3.0 * se_beta


def test_criterion_8_cross_type_ordering():
    with criterion(8, "constructed group ranking 0.85/0.70/0.55 recovered 20/20"):
        n = 4096
        calendar = day_calendar(n)
        targets = {"retail": 0.85, "institutional": 0.70, "foreign": 0.55}
        for run_seed in range(20):
            series = {}
            for gi, (group, hurst) in enumerate(targets.items()):
                buy_raw = fgn(hurst, n, seed=1000 * run_seed + 2 * gi)
                sell_raw = fgn(hurst, n, seed=1000 * run_seed + 2 * gi + 1)
                buy = buy_raw - buy_raw.min()
                sell = sell_raw - sell_raw.min()
                series[(group, "BUY")] = buy
                series[(group, "SELL")] = sell
                series[(group, "NET")] = buy - sell
            panel = FlowPanel(calendar=calendar, series=series)
            table = static_dfa_table(panel.series, DfaConfig())
            for flow in ("BUY", "SELL"):
                hats = {g: table[(g, flow)]["fit"].hurst for g in targets}
                assert (
                    hats["retail"] > hats["institutional"] > hats["foreign"]
                ), (run_seed, flow, hats)


def test_criterion_9_pipeline_determinism(data_dir, tmp_path):
    with criterion(9, "pipeline bit-identical across reruns"):
        outs = []
        for name in ("a", "b", "c"):
            out = tmp_path / name
            config = load_config(data_dir / "run_config.json", out_dir=str(out))
            run_pipeline(config)
            outs.append(out)
        base = {p.name: p.read_bytes() for p in outs[0].iterdir()}
        for other in outs[1:]:
            files = {p.name: p.read_bytes() for p in other.iterdir()}
            assert files.keys() == base.keys()
            for name in base:
                assert files[name] == base[name], name


def test_criterion_10_suite_wall_clock():
    with criterion(10, "full suite wall clock under 5 minutes"):
        elapsed = time.perf_counter() - conftest.SESSION_T0
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
