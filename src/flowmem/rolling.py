"""Time-varying persistence: rolling-window DFA and regime summaries.

Window length and step are counted in trading days (calendar positions),
and the exponent of each window is stamped with the window's final date.
Windows where the estimator fails are kept as flagged gaps so downstream
date alignment cannot silently shift.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dfa import DfaConfig, dfa_rows
from .errors import DfaError


@dataclass(frozen=True)
class RollingEntry:
    end_date: str
    hurst: float | None
    stderr: float | None
    r_squared: float | None
    n_points_used: int
    ok: bool
    error: str | None = None


@dataclass(frozen=True)
class RollingHurst:
    entries: tuple[RollingEntry, ...]
    window: int | None
    step: int

    def hurst_values(self) -> np.ndarray:
        return np.asarray([e.hurst for e in self.entries if e.ok])


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

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    entries = []
    for start, result in zip(range(0, x.size - window + 1, step), dfa_rows(windows, config)):
        end_date = calendar[start + window - 1]
        if isinstance(result, DfaError):
            entries.append(RollingEntry(end_date, None, None, None, 0, ok=False, error=str(result)))
        else:
            _, fit = result
            stats = (fit.hurst, fit.slope_stderr, fit.r_squared, fit.n_points_used)
            entries.append(RollingEntry(end_date, *stats, ok=True))
    return RollingHurst(entries=tuple(entries), window=window, step=step)


def regime_summary(rolling: RollingHurst, windows) -> list[RegimeSummary]:
    """Level/volatility statistics of the rolling exponent inside each window.

    Standard deviation is the population form. A window containing no
    entries is a data condition, reported as n_obs=0 with null statistics.
    """
    if not rolling.entries:
        raise DfaError("rolling series has no entries")
    out = []
    for win in windows:
        hs = np.asarray(
            [
                e.hurst
                for e in rolling.entries
                if e.ok and win.start_date <= e.end_date <= win.end_date
            ]
        )
        if hs.size == 0:
            out.append(RegimeSummary(win.label, 0, None, None, None, None))
        else:
            out.append(
                RegimeSummary(
                    label=win.label,
                    n_obs=int(hs.size),
                    mean_hurst=float(hs.mean()),
                    std_hurst=float(hs.std()),
                    min_hurst=float(hs.min()),
                    max_hurst=float(hs.max()),
                )
            )
    return out

