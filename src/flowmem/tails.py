"""Heavy-tail diagnostics: empirical CCDF, Gaussian reference, tail fits.

The empirical CCDF is evaluated at the sorted distinct observations as
p(x) = #{obs > x} / N; the largest observation (p = 0) is dropped so every
retained point is plottable on log-log axes and the final point sits at
1/N for an all-distinct sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dfa import line_fits
from .errors import TailError

TAIL_SIDES = ("upper", "absolute")
TAIL_METHODS = ("ccdf_ols", "hill")


@dataclass(frozen=True)
class CcdfPoints:
    """Complementary-CDF samples: xs strictly increasing, ps nonincreasing."""

    xs: np.ndarray
    ps: np.ndarray
    side: str

    def __post_init__(self):
        if self.xs.size != self.ps.size:
            raise TailError("xs and ps must have equal length")
        if np.any(np.diff(self.xs) <= 0):
            raise TailError("xs must be strictly increasing")
        if np.any(np.diff(self.ps) > 0):
            raise TailError("ps must be nonincreasing")


@dataclass(frozen=True)
class TailFit:
    exponent: float
    fit_xmin: float
    n_tail: int
    method: str
    stderr: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _clean(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise TailError("expected a 1-d array of values")
    if not np.all(np.isfinite(v)):
        raise TailError("non-finite values in input")
    return v


def empirical_ccdf(values, side: str = "upper") -> CcdfPoints:
    """Empirical CCDF at the sorted distinct observation values.

    side="absolute" takes |values| first, which is the default treatment
    for signed net-flow series.
    """
    v = _clean(values)
    if v.size < 10:
        raise TailError(f"need at least 10 values, got {v.size}")
    if side not in TAIL_SIDES:
        raise TailError(f"unknown side {side!r}")
    if side == "absolute":
        v = np.abs(v)
    n = v.size
    distinct, first_idx = np.unique(np.sort(v), return_index=True)
    if distinct.size == 1:
        warnings.warn("degenerate input: all values equal", stacklevel=2)
        return CcdfPoints(xs=distinct, ps=np.array([1.0]), side=side)
    # #{obs > distinct[i]} = n - first_idx[i+1]; the maximum (p = 0) is dropped
    xs = distinct[:-1]
    ps = (n - first_idx[1:]) / n
    return CcdfPoints(xs=xs, ps=ps, side=side)


def gaussian_ccdf_reference(mean: float, std: float, xs) -> CcdfPoints:
    """Gaussian CCDF with the given mean/std at the supplied abscissae."""
    if std <= 0:
        raise TailError(f"std must be positive, got {std}")
    x = np.asarray(xs, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise TailError("xs must be strictly increasing")
    z = (x - mean) / (std * np.sqrt(2.0))
    # libm's erfc element by element; scipy.special is kept off the start-up path
    ps = 0.5 * np.array([math.erfc(v) for v in z.tolist()], dtype=float)
    return CcdfPoints(xs=x, ps=ps, side="upper")


def fit_tail_exponent(values, tail_fraction: float = 0.05, method: str = "hill") -> TailFit:
    """Power-law exponent of the upper tail.

    ccdf_ols regresses log p on log x over the tail of the empirical CCDF
    (the straight-line fit one reads off a log-log plot); hill is the
    order-statistics ML estimator with stderr = exponent / sqrt(k).
    """
    v = _clean(values)
    if method not in TAIL_METHODS:
        raise TailError(f"unknown method {method!r}")
    if not 0.0 < tail_fraction <= 1.0:
        raise TailError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n = v.size
    n_tail = max(10, int(n * tail_fraction))

    if method == "hill":
        if n < n_tail + 1:
            raise TailError(f"insufficient tail points: need {n_tail + 1}, have {n}")
        desc = np.sort(v)[::-1]
        top = desc[:n_tail]
        threshold = desc[n_tail]
        if threshold <= 0:
            raise TailError("nonpositive values in tail; cannot take logs")
        log_sum = float(np.sum(np.log(top / threshold)))
        if log_sum <= 0:
            raise TailError("degenerate tail: all top values equal the threshold")
        exponent = n_tail / log_sum
        return TailFit(
            exponent=exponent,
            fit_xmin=float(threshold),
            n_tail=n_tail,
            method=method,
            stderr=exponent / np.sqrt(n_tail),
        )

    # ccdf_ols
    if n < n_tail:
        raise TailError(f"insufficient tail points: need {n_tail}, have {n}")
    ccdf = empirical_ccdf(v, side="upper")
    xmin = float(np.sort(v)[n - n_tail])
    mask = ccdf.xs >= xmin
    xs = ccdf.xs[mask]
    ps = ccdf.ps[mask]
    if np.any(xs <= 0):
        raise TailError("nonpositive values in tail; cannot take logs")
    if xs.size < 4:
        raise TailError(f"insufficient distinct tail points: {xs.size}")
    (slope,), _, (stderr,), *_ = line_fits(np.log(xs), np.log(ps)[np.newaxis])
    return TailFit(
        exponent=-float(slope),
        fit_xmin=xmin,
        n_tail=n_tail,
        method=method,
        stderr=float(stderr),
    )
