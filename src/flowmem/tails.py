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

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(x), float(p)) for x, p in zip(self.xs, self.ps))


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


# Cephes ndtr.c: erfc on [1, 8) is P/Q, on [8, ∞) R/S; erf on |x| < 1 is x·T/U
# in x². The leading 1.0 of Q, S and U is implicit in Cephes (p1evl); 1.0·x is x.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erfc(a) -> np.ndarray:
    """Complementary error function, equal bit for bit to scipy.special.erfc.

    A vectorised port of Cephes erfc/erf with the same coefficients and
    Horner order. exp(-a²) goes through math.exp, the libm exp Cephes
    calls; numpy's SIMD exp differs from it in the last ulp.
    """
    a = np.asarray(a, dtype=float)
    x = np.abs(a)
    y = np.where(a < 0, 2.0, 0.0)  # past the underflow cut
    near = x < 1.0
    xn = x[near]
    z = xn * xn
    erf = xn * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    y[near] = 1.0 - np.where(a[near] < 0, -erf, erf)
    with np.errstate(over="ignore"):
        z = -(x * x)
    tail = ~near & ~(z < -_MAXLOG)  # NaN stays in and comes out NaN
    xt = x[tail]
    e = np.array([math.exp(v) for v in z[tail].tolist()], dtype=float)
    mid = xt < 8.0
    p = np.where(mid, _polevl(xt, _ERFC_P), _polevl(xt, _ERFC_R))
    q = np.where(mid, _polevl(xt, _ERFC_Q), _polevl(xt, _ERFC_S))
    yt = e * p / q
    y[tail] = np.where(a[tail] < 0, 2.0 - yt, yt)
    return y


def gaussian_ccdf_reference(mean: float, std: float, xs) -> CcdfPoints:
    """Gaussian CCDF with the given mean/std at the supplied abscissae."""
    if std <= 0:
        raise TailError(f"std must be positive, got {std}")
    x = np.asarray(xs, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise TailError("xs must be strictly increasing")
    ps = 0.5 * erfc((x - mean) / (std * np.sqrt(2.0)))
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
    lx = np.log(xs)
    ly = np.log(ps)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (ly - ly.mean())) / sxx
    resid = ly - ly.mean() - slope * dx
    dof = xs.size - 2
    stderr = float(np.sqrt(max(float(resid @ resid), 0.0) / dof / sxx))
    return TailFit(
        exponent=-slope,
        fit_xmin=xmin,
        n_tail=n_tail,
        method=method,
        stderr=stderr,
    )
