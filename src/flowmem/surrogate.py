"""Null-model surrogates: time shuffles and phase randomization.

Shuffling destroys all temporal structure while preserving the marginal
distribution exactly; phase randomization preserves the power spectrum
(hence any long-memory structure) while scrambling everything else. Side
by side they separate distribution-driven from correlation-driven effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  numpy loads these lazily; load them at import, not mid-run
import numpy.random  # noqa: F401

from .dfa import DfaConfig, dfa_made_rows
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
    return _phase_randomized(series, [seed])[0]


def _phase_randomized(series, seeds) -> np.ndarray:
    """`phase_randomize(series, seed)` for each seed, one row per seed: one
    forward FFT shared by every copy and one inverse FFT over all of them."""
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
    phases = np.stack([_rng(seed).uniform(0.0, 2.0 * np.pi, stop - 1) for seed in seeds])
    rotated = np.repeat(spec[np.newaxis, :], len(seeds), axis=0)
    rotated[:, 1:stop] = np.abs(spec[1:stop]) * np.exp(1j * phases)
    return np.fft.irfft(rotated, n=n) + mean


@dataclass(frozen=True)
class SurrogateBand:
    """Distribution of DFA exponents over independent surrogates."""

    kind: str
    count: int
    mean: float
    std: float | None  # undefined (None) when count == 1
    quantiles: dict
    hurst_values: tuple[float, ...]


def _linear_quantile(ordered: list, q: float) -> float:
    """`np.quantile(values, q)` (method "linear") from the values sorted as
    np.sort sorts them, by numpy's own interpolation formula (`_lerp`, with
    its t >= 0.5 branch), without the np.unique call through which
    np.quantile imports numpy.ma."""
    last = len(ordered) - 1
    virtual = last * q
    if virtual >= last or ordered[-1] != ordered[-1]:  # NaN sorts last and makes every quantile NaN
        return ordered[-1]
    below = math.floor(virtual)
    a, b = ordered[below], ordered[below + 1]
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def surrogate_band(series, spec: SurrogateSpec, config: DfaConfig = DfaConfig()) -> SurrogateBand:
    """DFA exponent distribution over `spec.count` independent surrogates.

    Surrogate k is driven by a stream derived from (spec.seed, k), so any
    single surrogate is reproducible in isolation. The copies are made a
    kernel chunk at a time, as the DFA takes them (`dfa_made_rows`).
    """
    seeds = [child_seed(spec.seed, k) for k in range(spec.count)]

    def copies(part):
        if spec.kind == "shuffle":
            return np.stack([shuffle(series, seed) for seed in seeds[part]])
        return _phase_randomized(series, seeds[part])

    hurst_values = []
    for result in dfa_made_rows(spec.count, np.size(series), copies, config):
        if isinstance(result, DfaError):
            raise result
        hurst_values.append(result[1].hurst)
    hs = np.asarray(hurst_values)
    ordered = np.sort(hs).tolist()
    quantiles = {f"q{int(q * 100):02d}": _linear_quantile(ordered, q) for q in _QUANTILES}
    return SurrogateBand(
        kind=spec.kind,
        count=spec.count,
        mean=float(hs.mean()),
        std=float(hs.std()) if spec.count >= 2 else None,
        quantiles=quantiles,
        hurst_values=tuple(float(h) for h in hurst_values),
    )
