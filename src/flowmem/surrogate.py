"""Null-model surrogates: time shuffles and phase randomization.

Shuffling destroys all temporal structure while preserving the marginal
distribution exactly; phase randomization preserves the power spectrum
(hence any long-memory structure) while scrambling everything else. Side
by side they separate distribution-driven from correlation-driven effects.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .dfa import DfaConfig, dfa_hurst_rows
from .errors import DfaError, SurrogateError
from .synth import _rng

SURROGATE_KINDS = ("shuffle", "phase_randomize")

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def child_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Independent stream for surrogate `index`; no need to draw 0..index-1."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


@dataclass(frozen=True)
class SurrogateSpec:
    """What to generate: kind, base seed, and how many independent copies."""

    kind: str
    seed: int
    count: int = 1

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise SurrogateError(f"unknown surrogate kind {self.kind!r}")
        if self.count < 1:
            raise SurrogateError(f"count must be >= 1, got {self.count}")


def shuffle(series, seed) -> np.ndarray:
    """Uniformly random permutation of the series, deterministic by seed."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise SurrogateError("shuffle expects a nonempty 1-d series")
    return x[_rng(seed).permutation(x.size)]


def phase_randomize(series, seed) -> np.ndarray:
    """Spectrum-preserving surrogate via random Fourier phases.

    The mean-removed series is transformed with a real FFT; amplitudes are
    kept and the phases of the independent frequency pairs are replaced by
    uniform draws. The zero-frequency bin and (for even lengths) the
    Nyquist bin stay untouched, so the inverse transform is exactly real
    and the mean is preserved.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise SurrogateError("phase_randomize expects a 1-d series")
    n = x.size
    if n < 4:
        raise SurrogateError(f"phase_randomize needs length >= 4, got {n}")
    mean = x.mean()
    spec = np.fft.rfft(x - mean)
    # index of the first bin NOT to randomize from the top: Nyquist for even n
    stop = spec.size - 1 if n % 2 == 0 else spec.size
    phases = _rng(seed).uniform(0.0, 2.0 * np.pi, stop - 1)
    rotated = spec.copy()
    rotated[1:stop] = np.abs(spec[1:stop]) * np.exp(1j * phases)
    return np.fft.irfft(rotated, n=n) + mean


def _make_surrogate(series, kind: str, seed) -> np.ndarray:
    if kind == "shuffle":
        return shuffle(series, seed)
    return phase_randomize(series, seed)


@dataclass(frozen=True)
class SurrogateBand:
    """Distribution of DFA exponents over independent surrogates."""

    kind: str
    count: int
    mean: float
    std: float | None  # undefined (None) when count == 1
    quantiles: dict
    hurst_values: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "quantiles": self.quantiles,
            "hurst_values": list(self.hurst_values),
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_values_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["surrogate_index", "hurst"])
            for i, h in enumerate(self.hurst_values):
                writer.writerow([i, repr(float(h))])


def surrogate_band(series, spec: SurrogateSpec, config: DfaConfig = DfaConfig()) -> SurrogateBand:
    """DFA exponent distribution over `spec.count` independent surrogates.

    Surrogate k is driven by a stream derived from (spec.seed, k), so any
    single surrogate is reproducible in isolation.
    """
    copies = np.stack(
        [_make_surrogate(series, spec.kind, child_seed(spec.seed, k)) for k in range(spec.count)]
    )
    hurst_values = []
    for fit in dfa_hurst_rows(copies, config):
        if isinstance(fit, DfaError):
            raise fit
        hurst_values.append(fit.hurst)
    hs = np.asarray(hurst_values)
    quantiles = {
        f"q{int(q * 100):02d}": float(np.quantile(hs, q)) for q in _QUANTILES
    }
    return SurrogateBand(
        kind=spec.kind,
        count=spec.count,
        mean=float(hs.mean()),
        std=float(hs.std()) if spec.count >= 2 else None,
        quantiles=quantiles,
        hurst_values=tuple(float(h) for h in hurst_values),
    )
