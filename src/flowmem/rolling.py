"""Time-varying persistence: rolling-window DFA and regime summaries.

Window length and step are counted in trading days (calendar positions),
and the exponent of each window is stamped with the window's final date.
Windows where the estimator fails are kept as flagged gaps so downstream
date alignment cannot silently shift.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .dfa import DfaConfig, dfa_hurst_rows
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
    window: int
    step: int
    label: tuple[str, str] | None = None

    def hurst_values(self) -> np.ndarray:
        return np.asarray([e.hurst for e in self.entries if e.ok])

    def write_csv(self, path) -> None:
        """CSV `end_date,H,stderr,r2`; gap rows keep the date, fields empty."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["end_date", "H", "stderr", "r2"])
            for e in self.entries:
                if e.ok:
                    writer.writerow(
                        [e.end_date, repr(e.hurst), repr(e.stderr), repr(e.r_squared)]
                    )
                else:
                    writer.writerow([e.end_date, "", "", ""])


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
        return {
            "label": self.label,
            "n_obs": self.n_obs,
            "mean_hurst": self.mean_hurst,
            "std_hurst": self.std_hurst,
            "min_hurst": self.min_hurst,
            "max_hurst": self.max_hurst,
        }


def rolling_hurst(
    values,
    calendar,
    window: int = 250,
    step: int = 5,
    config: DfaConfig = DfaConfig(),
    label: tuple[str, str] | None = None,
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
    for start, fit in zip(range(0, x.size - window + 1, step), dfa_hurst_rows(windows, config)):
        end_date = calendar[start + window - 1]
        if isinstance(fit, DfaError):
            entries.append(RollingEntry(end_date, None, None, None, 0, ok=False, error=str(fit)))
        else:
            entries.append(
                RollingEntry(
                    end_date=end_date,
                    hurst=fit.hurst,
                    stderr=fit.slope_stderr,
                    r_squared=fit.r_squared,
                    n_points_used=fit.n_points_used,
                    ok=True,
                )
            )
    return RollingHurst(entries=tuple(entries), window=window, step=step, label=label)


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


def write_regime_summaries_json(path, summaries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s.to_json_dict() for s in summaries], fh, sort_keys=True, indent=2)
        fh.write("\n")
