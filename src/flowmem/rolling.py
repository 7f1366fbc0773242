"""Time-varying persistence: rolling-window DFA and regime summaries.

Window length and step are counted in trading days (calendar positions),
and the exponent of each window is stamped with the window's final date.
Windows whose data the fit fails on stay as flagged gaps, so downstream date
alignment cannot silently shift; a window length `make_scale_grid` rejects raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfa import DfaConfig, dfa_rows
from .errors import DfaError


@dataclass(frozen=True)
class RollingEntry:
    """One window of a RollingHurst, as its `entries` view gives it."""

    end_date: str
    hurst: float | None
    stderr: float | None
    r_squared: float | None
    n_points_used: int
    ok: bool
    error: str | None = None


@dataclass(frozen=True, eq=False)
class RollingHurst:
    """Rolling exponents as columns, one row per window in end-date order.

    A gap, a window whose fit failed, is NaN in `hurst`, `stderr` and
    `r_squared`, 0 in `n_points_used`, and its reason in `errors`, which
    holds None for every other window. Two are equal when their windows,
    window length and step are.
    """

    end_dates: tuple[str, ...]
    hurst: np.ndarray
    stderr: np.ndarray
    r_squared: np.ndarray
    n_points_used: np.ndarray
    errors: tuple[str | None, ...]
    window: int | None
    step: int

    @classmethod
    def from_rows(cls, rows, window: int | None, step: int) -> RollingHurst:
        """The columns of (end_date, hurst, stderr, r_squared, n_points_used,
        error) rows, one per window."""
        end_dates, hurst, stderr, r_squared, n_points_used, errors = tuple(zip(*rows)) or ((),) * 6
        floats = (np.array(column, dtype=float) for column in (hurst, stderr, r_squared))
        return cls(end_dates, *floats, np.array(n_points_used, dtype=int), errors, window, step)

    @property
    def ok(self) -> np.ndarray:
        """True for each window that is not a gap."""
        return np.equal(self.errors, None)

    @property
    def entries(self) -> tuple[RollingEntry, ...]:
        """The windows as RollingEntry objects, built on each access; a gap's
        hurst, stderr and r_squared are None."""
        columns = (self.hurst, self.stderr, self.r_squared, self.n_points_used)
        return tuple(
            RollingEntry(d, h, s, r, n, True) if e is None
            else RollingEntry(d, None, None, None, 0, False, e)
            for d, h, s, r, n, e in zip(self.end_dates, *(c.tolist() for c in columns), self.errors)
        )

    def __eq__(self, other):
        if not isinstance(other, RollingHurst):
            return NotImplemented
        return (self.entries, self.window, self.step) == (other.entries, other.window, other.step)


@dataclass(frozen=True)
class RegimeWindow:
    """User-supplied calendar interval (e.g. a crisis episode)."""

    label: str
    start_date: str
    end_date: str

    def __post_init__(self):
        if self.start_date >= self.end_date:
            raise DfaError(
                f"regime window {self.label!r}: start {self.start_date} >= end {self.end_date}"
            )


@dataclass(frozen=True)
class RegimeSummary:
    label: str
    n_obs: int
    mean_hurst: float | None
    std_hurst: float | None
    min_hurst: float | None
    max_hurst: float | None


def rolling_hurst(
    values,
    calendar,
    window: int = 250,
    step: int = 5,
    config: DfaConfig = DfaConfig(),
) -> RollingHurst:
    """DFA exponent over overlapping windows, stamped at each window's end.

    Every window uses the same scale rule and detrend order, re-derived
    from the window length so exclusions are identical across windows.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DfaError("rolling_hurst expects a 1-d series")
    if x.size != len(calendar):
        raise DfaError(f"series length {x.size} != calendar length {len(calendar)}")
    if window < 2 or step < 1:
        raise DfaError(f"invalid window/step ({window}, {step})")
    if x.size < window:
        raise DfaError(f"series length {x.size} shorter than window {window}")
    windows = np.lib.stride_tricks.sliding_window_view(x, window)[::step]
    rows = map(_window_row, calendar[window - 1 :: step], dfa_rows(windows, config))
    return RollingHurst.from_rows(rows, window, step)


def _window_row(end_date, result) -> tuple:
    if isinstance(result, DfaError):
        return end_date, math.nan, math.nan, math.nan, 0, str(result)
    _, fit = result
    return end_date, fit.hurst, fit.slope_stderr, fit.r_squared, fit.n_points_used, None


def regime_summary(rolling: RollingHurst, windows) -> list[RegimeSummary]:
    """Level/volatility statistics of the rolling exponent inside each window.

    Standard deviation is the population form. A window containing no
    entries is a data condition, reported as n_obs=0 with null statistics.
    """
    if not rolling.end_dates:
        raise DfaError("rolling series has no entries")
    ends = np.asarray(rolling.end_dates, dtype=str)
    ok = rolling.ok
    out = []
    for win in windows:
        hs = rolling.hurst[ok & (win.start_date <= ends) & (ends <= win.end_date)]
        stats = map(float, (hs.mean(), hs.std(), hs.min(), hs.max())) if hs.size else [None] * 4
        out.append(RegimeSummary(win.label, hs.size, *stats))
    return out
