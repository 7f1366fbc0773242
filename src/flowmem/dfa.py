"""Detrended fluctuation analysis with polynomial detrending.

The estimator works on the integrated profile of a mean-adjusted series.
For each scale n the profile is split into floor(T/n) non-overlapping
leading blocks (trailing remainder discarded); a degree-m polynomial is
removed from every block and the fluctuation F(n) is the RMS of the
residuals, averaged block-wise. The scaling exponent is the OLS slope of
log10 F(n) on log10 n.

Block fits use an orthogonal (Legendre) basis on block coordinates mapped
to [-1, 1], which keeps the least-squares problem well conditioned at
large scales.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import DfaError

# F(n) below this relative level is detrending round-off, not signal
_F_FLOOR_REL = 1e-12
# profile values per row chunk of the batched kernel, sized by measurement
# on a 2 MiB L2 cache: a 128 KiB chunk and its residuals stay in cache,
# where a whole batch of 50 surrogates of 2,000 days does not
_CHUNK_DOUBLES = 16_384


@dataclass(frozen=True)
class DfaConfig:
    """Scale-grid and detrending parameters, applied uniformly to all series.

    n_min=5 keeps several high-block-count scales in the fit; at rolling
    window lengths (~250) this halves the estimator dispersion relative to
    starting at 8, at the cost of a small positive bias (<0.02 at n=2^14).
    """

    detrend_order: int = 2
    n_min: int = 5
    n_max_fraction: float = 0.25
    n_scales: int = 20
    min_blocks: int = 4

    def __post_init__(self):
        if self.detrend_order < 0:
            raise DfaError(f"detrend_order must be >= 0, got {self.detrend_order}")
        if self.n_min < self.detrend_order + 2:
            raise DfaError(
                f"n_min={self.n_min} leaves order-{self.detrend_order} block fits underdetermined"
            )
        if not 0.0 < self.n_max_fraction <= 1.0:
            raise DfaError(f"n_max_fraction must be in (0, 1], got {self.n_max_fraction}")
        if self.n_scales < 4:
            raise DfaError(f"need at least 4 scales, got {self.n_scales}")
        if self.min_blocks < 2:
            raise DfaError(f"min_blocks must be >= 2, got {self.min_blocks}")


@dataclass(frozen=True)
class FluctuationCurve:
    """Sampled (scale, F) pairs; scales strictly increasing, F > 0."""

    scales: np.ndarray
    values: np.ndarray
    detrend_order: int


@dataclass(frozen=True)
class DfaFit:
    """Log-log scaling fit: exponent, intercept and OLS diagnostics."""

    hurst: float
    intercept: float
    slope_stderr: float
    r_squared: float
    scale_range: tuple[int, int]
    n_points_used: int
    detrend_order: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def profile(series) -> np.ndarray:
    """Integrated profile: cumulative sum of deviations from the mean.

    The final element is zero up to accumulation error.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DfaError("profile expects a 1-d series")
    if x.size < 2:
        raise DfaError(f"profile needs at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DfaError("non-finite values in input series")
    return np.cumsum(x - x.mean())


def make_scale_grid(length: int, config: DfaConfig = DfaConfig()) -> np.ndarray:
    """Log-spaced integer scales for a series of the given length.

    n_scales geometric targets between n_min and floor(length * n_max_fraction)
    are rounded to the nearest integer and deduplicated; scales whose block
    count floor(length/n) falls below min_blocks are discarded.
    """
    if length < config.n_min * config.min_blocks:
        raise DfaError(
            f"series too short for DFA: length {length} < "
            f"n_min*min_blocks = {config.n_min * config.min_blocks}"
        )
    n_max = max(int(length * config.n_max_fraction), config.n_min)
    targets = np.exp(
        np.linspace(np.log(config.n_min), np.log(n_max), config.n_scales)
    )
    rounded = np.rint(targets).astype(int)
    # the targets increase, so np.unique's sorted dedup is a drop of repeats
    # (np.unique itself imports numpy.ma on first use)
    scales = rounded[np.append(True, rounded[1:] != rounded[:-1])]
    scales = scales[(scales >= config.n_min) & (length // scales >= config.min_blocks)]
    if scales.size == 0:
        raise DfaError("series too short for DFA: no admissible scales")
    return scales


@functools.lru_cache(maxsize=256)
def _basis(n: int, order: int) -> np.ndarray:
    """Read-only orthonormal basis (n, order+1) of degree-`order` block fits."""
    q, r = np.linalg.qr(legendre.legvander(np.linspace(-1.0, 1.0, n), order))
    if np.min(np.abs(np.diag(r))) < 1e-12 * np.max(np.abs(np.diag(r))):
        raise DfaError(f"singular block fit at scale {n}")
    q.setflags(write=False)
    return q


def _fluctuation_rows(profiles: np.ndarray, scales, order: int) -> tuple[np.ndarray, np.ndarray]:
    """F(n) of every row of a finite (k, L) profile array: the (k, scales)
    table of F and the mask of entries above their row's F floor.

    Rows are taken in chunks of about `_CHUNK_DOUBLES` profile values, so a
    chunk and its residuals stay in cache while every scale is applied to
    it. At each scale a row's blocks are the columns of an (n, blocks)
    matrix, and the matmul pair runs on each row's matrix in turn, with the
    shapes and strides a lone profile has: a row's F does not depend on the
    other rows or on the chunk it falls in, whatever way the BLAS kernel
    sums. The residuals come out as one C-contiguous (n, blocks) slab per
    row and are summed as such.
    """
    k, length = profiles.shape
    scales = np.asarray(scales, dtype=int)
    bases = []
    for n in scales.tolist():
        blocks = length // n
        if blocks < 1:
            raise DfaError(f"scale {n} exceeds series length {length}")
        if n < order + 2:
            raise DfaError(f"scale {n} too small for order-{order} detrending")
        bases.append((n, blocks, _basis(n, order)))
    sums = np.empty((k, scales.size))
    rows = max(1, _CHUNK_DOUBLES // length)
    for lo in range(0, k, rows):
        chunk = profiles[lo : lo + rows]
        c = chunk.shape[0]
        for j, (n, blocks, q) in enumerate(bases):
            # (c, n, blocks): one column per block, fixed layout for determinism
            seg = chunk[:, : blocks * n].reshape(c, blocks, n).transpose(0, 2, 1)
            slab = q @ (q.T @ seg)
            np.subtract(seg, slab, out=slab)
            slab *= slab
            np.add.reduce(slab, axis=(1, 2), out=sums[lo : lo + c, j])
    # the mean square of each row's residuals, divided as np.mean divides
    values = np.sqrt(sums / [n * blocks for n, blocks, _ in bases])
    floors = _F_FLOOR_REL * np.max(np.abs(profiles), axis=1, initial=0.0)
    return values, values > floors[:, np.newaxis]


def fluctuation(profile_values, scales, detrend_order: int = 2) -> FluctuationCurve:
    """Block-detrended fluctuation function F(n) over the given scales: the
    kernel on one profile, which `dfa_rows` runs on a batch of rows.

    Scales whose F(n) sits at the numerical floor (detrending annihilated
    the block content) are excluded from the curve, since log F would be
    meaningless there.
    """
    y = np.asarray(profile_values, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise DfaError("profile must be a finite 1-d array")
    m = int(detrend_order)
    if m < 0:
        raise DfaError(f"detrend order must be >= 0, got {m}")
    values, keep = _fluctuation_rows(y[np.newaxis, :], scales, m)
    return FluctuationCurve(
        scales=np.asarray(scales, dtype=int)[keep[0]],
        values=values[0][keep[0]],
        detrend_order=m,
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of `a` with `b` (one vector, or the same row
    of a 2-d `b`), each as one item of a stacked matmul: the bits a lone
    row's `a_i @ b_i` has, where a matrix-vector product may sum otherwise."""
    return (a[:, np.newaxis, :] @ b[..., np.newaxis])[:, 0, 0]


def line_fits(x: np.ndarray, ys: np.ndarray):
    """Closed-form simple OLS of each row of a (k, m) array `ys` on one x, the
    one least-squares core of the DFA log-log fits, `stats.ols` and the
    `ccdf_ols` tail fit: (slope, intercept, stderr, ssr, sst, resid, sxx, dx),
    one entry per row but sxx and dx, the deviations of x from its mean. Each
    row's dot products are taken alone by `_row_dots`, so a row's fit has the
    bits it has in a batch of one. A constant x raises ZeroDivisionError."""
    xm = x.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx == 0.0:  # numpy would divide to inf
        raise ZeroDivisionError("x is constant")
    ym = ys.mean(axis=1)
    dy = ys - ym[:, np.newaxis]
    slope = _row_dots(dy, dx) / sxx
    intercept = ym - slope * xm
    resid = ys - intercept[:, np.newaxis] - slope[:, np.newaxis] * x
    ssr = _row_dots(resid, resid)
    stderr = np.sqrt(np.maximum(ssr, 0.0) / (x.size - 2) / sxx)
    return slope, intercept, stderr, ssr, _row_dots(dy, dy), resid, sxx, dx


def _loglog_fits(log_values: np.ndarray, scales: np.ndarray, order: int) -> list[DfaFit]:
    """The OLS fit of log F on log n of every row of a (k, scales) array, the
    one log-log fit of the static, rolling and surrogate stages."""
    x = np.log10(scales.astype(float))
    slope, intercept, stderr, ssr, sst, _, _, _ = line_fits(x, log_values)
    with np.errstate(divide="ignore", invalid="ignore"):  # sst == 0 reads 1.0 below
        r_squared = np.where(sst > 0.0, np.clip(1.0 - ssr / sst, 0.0, 1.0), 1.0)
    scale_range = (int(scales[0]), int(scales[-1]))
    rows = zip(slope.tolist(), intercept.tolist(), stderr.tolist(), r_squared.tolist())
    return [DfaFit(h, b, se, r2, scale_range, int(scales.size), order) for h, b, se, r2 in rows]


def fit_hurst(curve: FluctuationCurve) -> DfaFit:
    """OLS of log10 F(n) on log10 n over the admissible scales."""
    if curve.scales.size < 4:
        raise DfaError(f"insufficient scales for fit: {curve.scales.size} < 4")
    return _loglog_fits(np.log10(curve.values)[np.newaxis], curve.scales, curve.detrend_order)[0]


def dfa_hurst(series, config: DfaConfig = DfaConfig()) -> DfaFit:
    """End-to-end estimate: profile -> scale grid -> F(n) -> log-log fit,
    the one-row call of `dfa_rows`."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DfaError("profile expects a 1-d series")
    (entry,) = dfa_rows(x[np.newaxis], config)
    if isinstance(entry, DfaError):
        raise entry
    return entry[1]


def dfa_rows(rows, config: DfaConfig = DfaConfig()) -> list[tuple[FluctuationCurve, DfaFit] | DfaError]:
    """DFA of every row of a (k, L) array, with F(n) batched over rows: the
    one route into the kernel of the static, rolling and surrogate stages.

    Entry i is row i's (FluctuationCurve, DfaFit), or the DfaError that
    `dfa_hurst` raises on row i alone. Errors that depend only on the length
    and the config (no admissible scale grid, a singular block basis) would
    fail every row alike and are raised. Rows that keep every scale are
    fitted together by `_loglog_fits`; a row that drops a scale goes through
    `fit_hurst`.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise DfaError(f"dfa_rows expects a (k, L) array of rows, got shape {x.shape}")
    length = x.shape[1]
    if length < 2:
        raise DfaError(f"profile needs at least 2 observations, got {length}")
    order = config.detrend_order
    scales = make_scale_grid(length, config)
    with np.errstate(invalid="ignore"):  # a row with inf becomes an error entry, not a warning
        profiles = x - x.mean(axis=1, keepdims=True)
        np.cumsum(profiles, axis=1, out=profiles)
    finite = np.isfinite(profiles).all(axis=1)
    values, keep = _fluctuation_rows(profiles if finite.all() else profiles[finite], scales, order)
    whole = keep.all(axis=1) & (scales.size >= 4)  # under 4 scales, fit_hurst names the error
    whole_fits = iter(_loglog_fits(np.log10(values[whole]), scales, order))
    curves = zip(values, keep, whole)
    entries = []
    for row, ok in zip(x, finite):
        if not ok:
            message = (
                "profile must be a finite 1-d array"
                if np.all(np.isfinite(row))
                else "non-finite values in input series"
            )
            entries.append(DfaError(message))
            continue
        row_values, row_keep, row_whole = next(curves)
        if row_whole:
            entries.append((FluctuationCurve(scales, row_values, order), next(whole_fits)))
            continue
        curve = FluctuationCurve(scales[row_keep], row_values[row_keep], order)
        try:
            entries.append((curve, fit_hurst(curve)))
        except DfaError as exc:
            entries.append(exc)
    return entries
