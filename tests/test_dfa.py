import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

from flowmem.dfa import (
    _CHUNK_DOUBLES,
    DfaConfig,
    FluctuationCurve,
    _basis,
    _fluctuation_rows,
    _loglog_fits,
    dfa_hurst,
    dfa_rows,
    fit_hurst,
    fluctuation,
    make_scale_grid,
    profile,
)
from flowmem.errors import DfaError
from flowmem.pipeline import curve_csv
from flowmem.rolling import rolling_hurst
from flowmem.stats import ols
from flowmem.surrogate import (
    SurrogateSpec,
    child_seed,
    phase_randomize,
    shuffle,
    surrogate_band,
)
from flowmem.synth import cumsum, fgn, iid_gaussian


class TestProfile:
    def test_hand_values(self):
        np.testing.assert_allclose(profile([1, 2, 3]), [-1.0, -1.0, 0.0])
        np.testing.assert_allclose(profile([1, -1, 1, -1]), [1.0, 0.0, 1.0, 0.0])

    def test_final_element_near_zero(self):
        x = iid_gaussian(100, seed=15)
        y = profile(x)
        assert abs(y[-1]) <= 1e-9 * np.sum(np.abs(x))

    def test_too_short(self):
        with pytest.raises(DfaError):
            profile([1.0])

    def test_non_finite(self):
        with pytest.raises(DfaError):
            profile([1.0, np.nan, 2.0])


class TestScaleGrid:
    def test_default_bounds_t1000(self):
        scales = make_scale_grid(1000)
        assert scales[0] == 5
        assert scales[-1] == 250
        assert np.all(np.diff(scales) > 0)
        assert np.all(1000 // scales >= 4)

    def test_bounds_t1000_nmin8(self):
        scales = make_scale_grid(1000, DfaConfig(n_min=8))
        assert scales[0] == 8 and scales[-1] == 250
        assert np.all(1000 // scales >= 4)

    def test_short_series_caps_scales(self):
        scales = make_scale_grid(40, DfaConfig(n_min=8))
        assert scales.max() <= 10  # floor(40/10) == 4 blocks, larger n would drop below

    def test_matches_reimplementation_oracle(self):
        # independent restatement of the grid rule: geometric targets,
        # nearest-int rounding, dedupe, admissibility filter
        def oracle(length, n_min, frac=0.25, k=20, min_blocks=4):
            n_max = int(length * frac)
            out = []
            for i in range(k):
                target = n_min * (n_max / n_min) ** (i / (k - 1))
                r = int(round(target))
                if r >= n_min and length // r >= min_blocks and r not in out:
                    out.append(r)
            return sorted(out)

        assert list(make_scale_grid(2500)) == oracle(2500, n_min=5)
        assert list(make_scale_grid(2500, DfaConfig(n_min=8))) == oracle(2500, n_min=8)
        assert list(make_scale_grid(613)) == oracle(613, n_min=5)

    def test_too_short_raises(self):
        with pytest.raises(DfaError, match="too short"):
            make_scale_grid(19)
        with pytest.raises(DfaError, match="too short"):
            make_scale_grid(31, DfaConfig(n_min=8))

    def test_config_invariants(self):
        with pytest.raises(DfaError):
            DfaConfig(detrend_order=2, n_min=3)
        with pytest.raises(DfaError):
            DfaConfig(n_scales=3)
        with pytest.raises(DfaError):
            DfaConfig(min_blocks=1)
        with pytest.raises(DfaError):
            DfaConfig(n_max_fraction=0.0)


class TestFluctuation:
    def test_quadratic_profile_annihilated(self):
        t = np.arange(64, dtype=float)
        quad = 3.0 - 0.5 * t + 0.01 * t * t
        curve = fluctuation(quad, [8, 16], detrend_order=2)
        assert curve.scales.size == 0

    def test_brute_force_block_oracle(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        y = np.arange(1.0, 17.0) * rng.standard_normal(16)
        n, m = 4, 1

        f2 = []
        for b in range(16 // n):
            seg = y[b * n : (b + 1) * n]
            coef = np.polyfit(np.arange(float(n)), seg, m)
            resid = seg - np.polyval(coef, np.arange(float(n)))
            f2.append(np.mean(resid**2))
        oracle_f = np.sqrt(np.mean(f2))

        curve = fluctuation(y, [n], detrend_order=m)
        np.testing.assert_allclose(curve.values[0], oracle_f, rtol=1e-10)

    def test_trailing_remainder_discarded(self):
        rng = np.random.Generator(np.random.PCG64(5))
        y = rng.standard_normal(10)
        y_tail = y.copy()
        y_tail[8:] = 1e6  # remainder beyond 2 blocks of 4 must not matter
        a = fluctuation(y, [4], detrend_order=1)
        b = fluctuation(y_tail, [4], detrend_order=1)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_concatenation_agrees_at_shared_scales(self):
        x = iid_gaussian(512, seed=9)
        c1 = fluctuation(profile(x), [8, 16, 32], detrend_order=2)
        c2 = fluctuation(profile(np.concatenate([x, x])), [8, 16, 32], detrend_order=2)
        np.testing.assert_allclose(c1.values, c2.values, rtol=0.25)

    def test_scale_exceeding_length(self):
        with pytest.raises(DfaError, match="exceeds"):
            fluctuation(np.ones(10), [11], detrend_order=0)


class TestFitHurst:
    def _curve(self, scales, values, order=2):
        return FluctuationCurve(
            scales=np.asarray(scales, dtype=int),
            values=np.asarray(values, dtype=float),
            detrend_order=order,
        )

    @pytest.mark.parametrize("h", [0.7, 1.0])
    def test_exact_power_law(self, h):
        scales = np.array([8, 16, 32, 64, 128, 256])
        curve = self._curve(scales, 3.0 * scales.astype(float) ** h)
        fit = fit_hurst(curve)
        assert abs(fit.hurst - h) < 1e-12
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.slope_stderr < 1e-12
        assert abs(fit.intercept - np.log10(3.0)) < 1e-12

    def test_noisy_points_match_closed_form_oracle(self):
        # raw-moment OLS as an algebraically different oracle
        scales = [8, 12, 18, 27, 40, 60, 90, 135]
        values = [1.12, 1.38, 1.69, 2.15, 2.51, 3.30, 3.95, 4.95]
        lx = np.log10(np.asarray(scales, dtype=float))
        ly = np.log10(np.asarray(values))
        k = len(scales)
        sx, sy = lx.sum(), ly.sum()
        sxx, sxy = (lx * lx).sum(), (lx * ly).sum()
        slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
        intercept = (sy - slope * sx) / k
        resid = ly - intercept - slope * lx
        stderr = np.sqrt((resid @ resid) / (k - 2) / ((lx - lx.mean()) @ (lx - lx.mean())))

        fit = fit_hurst(self._curve(scales, values))
        np.testing.assert_allclose(fit.hurst, slope, rtol=1e-10)
        np.testing.assert_allclose(fit.intercept, intercept, rtol=1e-10)
        np.testing.assert_allclose(fit.slope_stderr, stderr, rtol=1e-10)

    def test_insufficient_points(self):
        curve = self._curve([8, 16, 32], [1.0, 2.0, 3.0])
        with pytest.raises(DfaError, match="insufficient"):
            fit_hurst(curve)


class TestDfaHurst:
    def test_fgn_recovers_hurst(self):
        fit = dfa_hurst(fgn(0.7, 2**14, seed=5))
        assert 0.67 <= fit.hurst <= 0.73

    def test_iid_near_half(self):
        fit = dfa_hurst(iid_gaussian(2**14, seed=5))
        assert 0.47 <= fit.hurst <= 0.53

    def test_cumulated_fgn_slope_above_one(self):
        fit = dfa_hurst(cumsum(fgn(0.4, 2**14, seed=0)))
        assert abs(fit.hurst - 1.4) <= 0.05

    def test_affine_invariance(self):
        x = fgn(0.6, 2048, seed=44)
        base = dfa_hurst(x)
        scaled = dfa_hurst(-3.7 * x + 11.0)
        assert abs(base.hurst - scaled.hurst) < 1e-9

    def test_reversal_stability(self):
        x = fgn(0.7, 4096, seed=21)
        assert abs(dfa_hurst(x).hurst - dfa_hurst(x[::-1]).hurst) <= 0.05

    def test_polynomial_input_annihilated(self):
        # linear series -> quadratic profile -> DFA(2) removes everything
        with pytest.raises(DfaError, match="insufficient"):
            dfa_hurst(np.arange(1000, dtype=float))

    def test_constant_series_annihilated(self):
        with pytest.raises(DfaError, match="insufficient"):
            dfa_hurst(np.full(500, 3.3))

    def test_rows_match_lone_calls(self):
        """Each `dfa_rows` entry is what `dfa_hurst` gives its row alone: a
        whole row, one that drops scales, one left with under 4 scales and
        a non-finite one, in one batch."""
        x = fgn(0.75, 250, seed=3)
        rows = np.stack([x, np.full(250, 1.25), np.full(250, 1.25), x])
        rows[1, -12:] = x[-12:]  # only scales whose blocks reach these keep F
        rows[2, -1] = x[-1]
        rows[3, 100] = np.nan
        entries = dfa_rows(rows)
        assert [e[0].scales.size for e in entries[:2]] == [19, 12]
        for row, entry in zip(rows, entries):
            try:
                want = repr(dfa_hurst(row))
            except DfaError as exc:
                want = str(exc)
            assert (str(entry) if isinstance(entry, DfaError) else repr(entry[1])) == want
        assert [str(e) for e in entries[2:]] == [
            "insufficient scales for fit: 3 < 4", "non-finite values in input series"
        ]

    @pytest.mark.parametrize("shape", [(2000,), (2, 3, 250)])
    def test_rows_must_be_two_dimensional(self, shape):
        with pytest.raises(DfaError, match=re.escape(f"(k, L) array of rows, got shape {shape}")):
            dfa_rows(np.ones(shape))
        with pytest.raises(DfaError, match="profile expects a 1-d series"):
            dfa_hurst(np.ones((1, *shape)))


class TestSerialization:
    def test_curve_csv(self, tmp_path):
        curve = FluctuationCurve(
            scales=np.array([8, 16]),
            values=np.array([1.5, 2.25]),
            detrend_order=2,
        )
        path = tmp_path / "curve.csv"
        path.write_text(curve_csv(curve))
        assert path.read_text() == "n,F\n8,1.5\n16,2.25\n"

    def test_fit_json_round_trip(self, tmp_path):
        import json

        from flowmem.pipeline import _json_text

        fit = dfa_hurst(fgn(0.6, 1024, seed=1))
        path = tmp_path / "fit.json"
        path.write_text(_json_text(fit.to_json_dict()))
        loaded = json.loads(path.read_text())
        assert loaded["hurst"] == fit.hurst
        assert loaded["n_points_used"] == fit.n_points_used


def per_scale_fluctuation(y, scales, m):
    """Reference path: a fresh Legendre basis and QR for every scale of one profile."""
    floor = 1e-12 * float(np.max(np.abs(y)))
    kept_n, kept_f = [], []
    for n in scales:
        n = int(n)
        blocks = y.size // n
        seg = y[: blocks * n].reshape(blocks, n).T
        q, _ = np.linalg.qr(legendre.legvander(np.linspace(-1.0, 1.0, n), m))
        resid = seg - q @ (q.T @ seg)
        f = float(np.sqrt(np.mean(resid * resid)))
        if f > floor:
            kept_n.append(n)
            kept_f.append(f)
    return FluctuationCurve(np.asarray(kept_n, dtype=int), np.asarray(kept_f), m)


def per_scale_hurst(x, config=DfaConfig()):
    prof = profile(x)
    scales = make_scale_grid(prof.size, config)
    return fit_hurst(per_scale_fluctuation(prof, scales, config.detrend_order))


class TestBatchedKernelOracle:
    """The batched kernel reproduces the per-scale path exactly (==, not allclose)."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_fluctuation_matches_per_scale_path(self, order):
        y = profile(fgn(0.7, 1000, seed=order))
        scales = make_scale_grid(y.size, DfaConfig(detrend_order=order, n_min=order + 2))
        got = fluctuation(y, scales, order)
        want = per_scale_fluctuation(y, scales, order)
        assert got.scales.tolist() == want.scales.tolist()
        assert got.values.tolist() == want.values.tolist()

    @pytest.mark.filterwarnings("error")
    def test_every_rolling_window_matches(self):
        x = fgn(0.75, 700, seed=31)
        x[150:430] = 1.25  # windows inside are gaps; windows at its edges drop scales
        x[600] = np.inf  # windows over these are non-finite gaps, without a warning
        x[640] = np.nan
        calendar = tuple(f"d{i:04d}" for i in range(x.size))
        roll = rolling_hurst(x, calendar, window=250, step=3)

        dropped = gaps = 0
        starts = range(0, x.size - 250 + 1, 3)
        assert len(roll.entries) == len(starts)
        for start, entry in zip(starts, roll.entries):
            assert entry.end_date == calendar[start + 249]
            try:
                want = per_scale_hurst(x[start : start + 250])
            except DfaError as exc:
                gaps += 1
                assert (entry.ok, entry.hurst, entry.n_points_used) == (False, None, 0)
                assert entry.error == str(exc)
                continue
            dropped += want.n_points_used < make_scale_grid(250).size
            assert entry.ok and entry.error is None
            assert entry.hurst == want.hurst
            assert entry.stderr == want.slope_stderr
            assert entry.r_squared == want.r_squared
            assert entry.n_points_used == want.n_points_used
        errors = {e.error for e in roll.entries if not e.ok}
        assert {"non-finite values in input series"} < errors
        assert dropped and gaps and gaps < len(starts)

    @pytest.mark.parametrize(
        "kind, make, n, count",
        [
            pytest.param("shuffle", shuffle, 800, 20, id="shuffle-shuffle"),
            pytest.param(
                "phase_randomize", phase_randomize, 800, 20, id="phase_randomize-phase_randomize"
            ),
            # an odd length, with copies that span four kernel chunks
            pytest.param("shuffle", shuffle, 1999, 3 * (_CHUNK_DOUBLES // 1999) + 1, id="shuffle-n1999"),
            pytest.param(
                "phase_randomize", phase_randomize, 1999, 3 * (_CHUNK_DOUBLES // 1999) + 1,
                id="phase_randomize-n1999",
            ),
        ],
    )
    def test_surrogate_band_matches(self, kind, make, n, count):
        x = fgn(0.8, n, seed=44)
        band = surrogate_band(x, SurrogateSpec(kind=kind, seed=17, count=count))
        want = [per_scale_hurst(make(x, child_seed(17, k))).hurst for k in range(count)]
        assert list(band.hurst_values) == want

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [250, 1999, 2000, 20_000])
    def test_rows_across_chunks_match_lone_rows(self, length, order):
        rows_per_chunk = max(1, _CHUNK_DOUBLES // length)
        k = 2 * rows_per_chunk + rows_per_chunk // 2 + 1
        assert -(-k // rows_per_chunk) >= 3  # two whole chunks and a partial one
        x = fgn(0.7, length + 3 * k, seed=length + order)
        rows = np.stack([x[3 * i : 3 * i + length] for i in range(k)])
        rows[1] = 2.5  # a zero profile, annihilated at every scale: F sits at the floor
        profiles = np.stack([profile(row) for row in rows])
        config = DfaConfig(detrend_order=order, n_min=order + 2)
        scales = make_scale_grid(length, config)
        values, keep = _fluctuation_rows(profiles, scales, order)
        assert not keep[1].any() and keep[0].all()
        entries = dfa_rows(rows, config)
        assert str(entries[1]) == "insufficient scales for fit: 0 < 4"
        for i in range(k):
            alone = fluctuation(profiles[i], scales, order)
            assert alone.scales.tolist() == scales[keep[i]].tolist()
            assert alone.values.tolist() == values[i][keep[i]].tolist()
            if i != 1:
                curve, _ = entries[i]
                assert curve.scales.tolist() == alone.scales.tolist()
                assert curve.values.tolist() == alone.values.tolist()

    def test_basis_is_cached_and_read_only(self):
        q = _basis(12, 2)
        assert _basis(12, 2) is q
        assert not q.flags.writeable
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)


def reference_line_fit(x, y):
    """The log-log fit `fit_hurst` made before it shared `line_fit` with
    `stats.ols`: (slope, intercept, slope_stderr, r_squared)."""
    n = x.size
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    dy = y - ym
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    ssr = float(resid @ resid)
    sst = float(dy @ dy)
    if sst > 0.0:
        r_squared = max(0.0, min(1.0, 1.0 - ssr / sst))
    else:
        r_squared = 1.0
    dof = n - 2
    stderr = float(np.sqrt(max(ssr, 0.0) / dof / sxx)) if dof > 0 else 0.0
    return slope, float(intercept), stderr, r_squared


@st.composite
def scaling_points(draw):
    """Strictly increasing integer scales with positive F values, or
    F values that lie exactly on a power law (sst > 0, ssr ~ 0)."""
    scales = sorted(draw(st.lists(st.integers(2, 100_000), min_size=4, max_size=25, unique=True)))
    if draw(st.booleans()):
        h = draw(st.floats(0.05, 2.0))
        values = [3.0 * n**h for n in scales]
    else:
        values = draw(st.lists(st.floats(1e-6, 1e6), min_size=len(scales), max_size=len(scales)))
    return np.asarray(scales), np.asarray(values)


class TestLineFitCore:
    """fit_hurst and stats.ols share `line_fits`; both reproduce the fit they
    made before it exactly (==, not allclose)."""

    @settings(max_examples=300, deadline=None)
    @given(scaling_points())
    def test_fit_hurst_matches_previous_fit(self, points):
        scales, values = points
        fit = fit_hurst(FluctuationCurve(scales, values, 2))
        slope, intercept, stderr, r_squared = reference_line_fit(
            np.log10(scales.astype(float)), np.log10(values)
        )
        assert (fit.hurst, fit.intercept, fit.slope_stderr, fit.r_squared) == (
            slope, intercept, stderr, r_squared
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3, max_size=40))
    def test_ols_matches_previous_fit(self, pairs):
        x = np.asarray([p[0] for p in pairs])
        y = np.asarray([p[1] for p in pairs])
        dx = x - x.mean()
        assume(float(dx @ dx) > 0.0)
        slope, intercept, stderr, r_squared = reference_line_fit(x, y)
        res = ols(y, x)
        assert (res.beta, res.alpha) == (slope, intercept)
        if float((y - y.mean()) @ (y - y.mean())) > 0.0:
            assert res.r_squared == r_squared
        if stderr > 0.0:
            assert res.t_beta == slope / stderr


@st.composite
def fit_rows(draw):
    """A scale grid and a (k, scales) array of F rows on it: free positive
    values, exact power laws, or constant F."""
    scales = np.asarray(
        sorted(draw(st.lists(st.integers(2, 100_000), min_size=4, max_size=25, unique=True)))
    )
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(["free", "power", "constant"]))
        if shape == "free":
            row = draw(st.lists(st.floats(1e-6, 1e6), min_size=scales.size, max_size=scales.size))
        elif shape == "power":
            h = draw(st.floats(0.05, 2.0))
            row = [3.0 * n**h for n in scales]
        else:
            row = [draw(st.floats(1e-6, 1e6))] * scales.size
        rows.append(row)
    return scales, np.asarray(rows)


class TestBatchedLogLogFit:
    """The batched fit of whole rows gives each row the bits a lone
    `fit_hurst` call gives it (repr-equal, so a sign of zero or a numpy
    scalar counts)."""

    @settings(max_examples=300, deadline=None)
    @given(fit_rows(), st.integers(0, 3))
    def test_rows_match_lone_fits(self, grid_and_rows, order):
        scales, values = grid_and_rows
        got = _loglog_fits(np.log10(values), scales, order)
        want = [fit_hurst(FluctuationCurve(scales, row, order)) for row in values]
        assert [repr(fit) for fit in got] == [repr(fit) for fit in want]
