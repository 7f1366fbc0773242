"""Volatility construction and the persistence-volatility regression.

The baseline regressand is the squared daily return. The rolling exponent
updates only every `step` trading days, so pairing it with daily
volatility needs an explicit alignment policy: forward_fill holds the
last computed exponent for at most `step` days; step_dates_only keeps
only the exponent's own dates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfa import line_fits
from .errors import StatsError
from .flows import _parse_date, increasing, read_csv
from .rolling import RollingHurst

FILL_POLICIES = ("forward_fill", "step_dates_only")


@dataclass(frozen=True)
class AlignedPairs:
    """Date-matched (hurst, volatility) samples ready for regression."""

    dates: tuple[str, ...]
    hurst: np.ndarray
    volatility: np.ndarray


@dataclass(frozen=True)
class OlsResult:
    alpha: float
    beta: float
    t_alpha: float
    t_beta: float
    t_alpha_robust: float  # HC1
    t_beta_robust: float
    r_squared: float
    n: int
    residual_variance: float


def read_prices_csv(path, column: str = "close") -> tuple[tuple[str, ...], np.ndarray]:
    """Parse `date,<column>`; returns (calendar, values). Values must be
    finite, and positive for `close` (prices); dates real calendar dates,
    strictly increasing. A bad file or row raises a StatsError naming the
    file, and the line where there is one (see `flows.read_csv`)."""
    positive = column == "close"
    rule = "positive and finite" if positive else "finite"

    def dated_value(_header, _line, row):
        date = _parse_date(row[0])
        try:
            value = float(row[1])
        except ValueError:
            raise ValueError(f"bad {column} {row[1]!r}") from None
        if not math.isfinite(value) or (positive and value <= 0):
            raise ValueError(f"{column} must be {rule}")
        return date, value

    rows = read_csv(path, (("date", column),), increasing(dated_value), StatsError)
    dates, values = zip(*rows)
    return dates, np.asarray(values)


def align_h_rv(
    rolling: RollingHurst, calendar, volatility, fill_policy: str = "forward_fill"
) -> AlignedPairs:
    """Match rolling exponents to daily volatility (`volatility[i]` on
    `calendar[i]`, the calendar in increasing date order) by date.

    forward_fill holds each valid exponent for up to `rolling.step`
    volatility trading days, counted from the first volatility date at or
    after its stamp date, and never past the next entry. Flagged gap
    entries contribute nothing, so the days they would have covered are
    excluded rather than borrowed from an older estimate.
    """
    if fill_policy not in FILL_POLICIES:
        raise StatsError(f"unknown fill policy {fill_policy!r}")
    if not rolling.end_dates:
        raise StatsError("rolling series has no entries")
    ends = np.asarray(rolling.end_dates, dtype=str)
    days = np.asarray(calendar, dtype=str)
    latest = np.searchsorted(ends, days, side="right") - 1  # the last entry stamped by each day
    if fill_policy == "step_dates_only":
        fresh = ends[latest] == days
    else:
        # each entry is held from the first day whose latest entry it is
        fresh = np.arange(days.size) - np.searchsorted(latest, latest) < rolling.step
    kept = np.flatnonzero((latest >= 0) & rolling.ok[latest] & fresh)
    if not kept.size:
        raise StatsError("no overlapping dates between rolling exponent and volatility")
    return AlignedPairs(
        dates=tuple(days[kept].tolist()),
        hurst=rolling.hurst[latest[kept]],
        volatility=np.asarray(volatility, dtype=float)[kept],
    )


def ols(y, x) -> OlsResult:
    """Closed-form simple regression of y on x with t-values.

    Each estimate has two: over its classical (homoskedastic) standard
    error, and over its HC1 sandwich one, which matters when y is a
    squared return. t-values use n-2 degrees of freedom either way.
    """
    yv = np.asarray(y, dtype=float)
    xv = np.asarray(x, dtype=float)
    if yv.shape != xv.shape or yv.ndim != 1:
        raise StatsError("y and x must be 1-d arrays of equal length")
    n = yv.size
    if n < 3:
        raise StatsError(f"need at least 3 observations, got {n}")
    if not (np.all(np.isfinite(yv)) and np.all(np.isfinite(xv))):
        raise StatsError("non-finite values in regression input")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed variance raises below
        try:  # x is constant if its spread is within the round-off of its mean
            if xv.max() - xv.min() <= n * math.ulp(1.0) * np.abs(xv).max():
                raise ZeroDivisionError  # as line_fits raises for a 0 sxx
            (beta,), (alpha,), _, (ssr,), (r_squared,), (resid,), sxx, dx = line_fits(xv, yv[np.newaxis])
        except ZeroDivisionError:
            raise StatsError("degenerate regressor: x is constant") from None
        xm = xv.mean()
        dof = n - 2
        residual_variance = ssr / dof
        var_beta = residual_variance / sxx
        var_alpha = residual_variance * (1.0 / n + xm * xm / sxx)
        u2 = resid * resid
        w_beta = dx / sxx
        w_alpha = 1.0 / n - xm * w_beta
        var_beta_robust = float(n / dof) * float((w_beta * w_beta) @ u2)
        var_alpha_robust = float(n / dof) * float((w_alpha * w_alpha) @ u2)
    if not all(map(math.isfinite, (var_beta, var_alpha, var_beta_robust, var_alpha_robust))):
        raise StatsError("degenerate regression: a coefficient variance overflows the float range")

    def t_value(est, var):
        if var <= 0.0:
            return math.inf if est > 0 else (-math.inf if est < 0 else 0.0)
        return float(est) / math.sqrt(var)  # float division: an overflow is inf, not a warning

    return OlsResult(
        alpha=float(alpha),
        beta=float(beta),
        t_alpha=float(t_value(alpha, var_alpha)),
        t_beta=float(t_value(beta, var_beta)),
        t_alpha_robust=float(t_value(alpha, var_alpha_robust)),
        t_beta_robust=float(t_value(beta, var_beta_robust)),
        r_squared=float(r_squared),
        n=int(n),
        residual_variance=float(residual_variance),
    )


_STARS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))
# scipy.special.stdtr (Boost's students_t cdf) defines the stars. The series
# below is within about 1e-12 of it up to df 10**5, so only a p this close to
# a level, or a larger df, needs stdtr itself.
_STAR_GUARD = 1e-9
_SERIES_MAX_DF = 10**5
_MACHEP = 1.11022302462515654042e-16


def _t_two_sided_p(t_value: float, df: int) -> float:
    """P(|T| > |t|) for Student's t with integer df >= 1.

    One minus the Cephes stdtr series for the probability of |T| <= |t|;
    the series runs to df/2 terms, so it is meant for moderate df.
    """
    x = abs(t_value)
    z = 1.0 + (x * x) / df
    f = tz = 1.0
    j = 3 if df % 2 else 2
    while j <= df - 2 and tz / f > _MACHEP:
        tz *= (j - 1) / (z * j)
        f += tz
        j += 2
    if df % 2 == 0:
        return 1.0 - f * x / math.sqrt(z * df)
    xsqk = x / math.sqrt(df)
    inside = math.atan(xsqk)
    if df > 1:
        inside += f * xsqk / z
    return 1.0 - inside * (2.0 / math.pi)


def significance_stars(t_value: float, n: int) -> str:
    """Two-sided stars at the 10/5/1% levels with n-2 degrees of freedom.

    The decision is the one 2·scipy.special.stdtr(n-2, -|t|) gives; scipy
    is imported only when the series cannot settle it.
    """
    if not math.isfinite(t_value):
        return "***"
    df = n - 2
    p = _t_two_sided_p(t_value, df) if 0 < df <= _SERIES_MAX_DF else math.nan
    if not all(abs(p - level) > _STAR_GUARD for level, _ in _STARS):
        from scipy.special import stdtr

        p = 2.0 * float(stdtr(df, -abs(t_value)))
    return next((stars for level, stars in _STARS if p < level), "")


def regression_table(rolling: dict, prices, fill_policy: str, lag: int, robust: bool) -> list[dict]:
    """Volatility-on-persistence table from a price path.

    `rolling` maps (group, flow) -> RollingHurst, and `prices` is the
    (calendar, closes) pair `read_prices_csv` returns. Each series is aligned
    with the squared-return volatility under `fill_policy`; volatility at
    t is paired with the exponent `lag` pairs earlier and regressed with
    classical (and, if `robust`, HC1) t-values. Rows come out in the
    mapping's iteration order.
    """
    calendar, closes = prices
    if closes.size < 2:
        raise StatsError("need at least 2 prices")
    if lag < 0:
        raise StatsError(f"lag must be >= 0, got {lag}")
    volatility = np.diff(np.log(closes)) ** 2  # the first date is consumed by the difference
    rows = []
    for (group, flow), roll in rolling.items():
        pairs = align_h_rv(roll, calendar[1:], volatility, fill_policy)
        n = len(pairs.dates) - lag
        if n <= 0:
            raise StatsError(f"lag {lag} leaves no pairs")
        res = ols(pairs.volatility[lag:], pairs.hurst[:n])
        row = {
            "group": group,
            "flow": flow,
            "alpha": res.alpha,
            "t_alpha": res.t_alpha,
            "alpha_stars": significance_stars(res.t_alpha, res.n),
            "beta": res.beta,
            "t_beta": res.t_beta,
            "beta_stars": significance_stars(res.t_beta, res.n),
            "r_squared": res.r_squared,
            "n": res.n,
        }
        if robust:
            row.update(t_alpha_robust=res.t_alpha_robust, t_beta_robust=res.t_beta_robust)
        rows.append(row)
    return rows
