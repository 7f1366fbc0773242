"""Seeded synthetic series generators used as correctness oracles.

Fractional Gaussian noise is produced by circulant embedding of the exact
autocovariance (O(n log n)), which is nonnegative definite for every H in
(0, 1) and every length.

All draws come from a single named generator (`RNG_NAME`) so that outputs
are bit-reproducible from (kind, params, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  numpy loads these lazily; load them at import, not mid-run
import numpy.random  # noqa: F401

from .errors import SynthError

RNG_NAME = "numpy.random.PCG64"
RNG_VERSION = 1


def _rng(seed) -> np.random.Generator:
    """Deterministic generator from an integer seed or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """Exact autocovariance of unit-variance fractional Gaussian noise.

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})
    """
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


def fgn(hurst: float, n: int, seed) -> np.ndarray:
    """Fractional Gaussian noise with exact covariance, unit variance.

    Parameters
    ----------
    hurst : float in (0, 1)
    n : int >= 2
        Any length is accepted; the embedding size is 2n.
    seed : int or numpy SeedSequence

    The minimal embedding of fGn is nonnegative definite for every H in
    (0, 1): gamma(k) <= 0 at nonzero lags when H <= 1/2 (Craigmile 2003),
    and gamma is convex and decreasing when H >= 1/2. Its computed
    eigenvalues still go negative by rounding, from the cancelling
    k^{2H}-sized terms of `fgn_autocovariance`: up to 0.85 of
    eps * (n+1)^{2H} * sqrt(2n) as measured for n up to 2^20 and H up to
    0.99999. Eigenvalues down to minus the larger of 8 times that level
    and 1e-10 of the largest eigenvalue are taken for rounding and clipped
    to 0; one below both raises.
    """
    if not 0.0 < hurst < 1.0:
        raise SynthError(f"hurst must be in (0, 1), got {hurst}")
    if n < 2:
        raise SynthError(f"need n >= 2, got {n}")
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    # first row of the 2n circulant: gamma(0..n) then mirrored gamma(n-1..1)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    rng = _rng(seed)
    rounding = 8.0 * np.finfo(float).eps * (n + 1.0) ** (2.0 * hurst) * np.sqrt(2.0 * n)
    if eig.min() < -max(1e-10 * eig.max(), rounding):
        raise SynthError(
            f"circulant embedding not nonnegative definite for H={hurst}, n={n}: "
            f"smallest eigenvalue {eig.min():.3g} is beyond rounding"
        )
    eig = np.clip(eig, 0.0, None)

    # Hermitian-symmetric complex normals; fixed draw layout so the output
    # is a pure function of the seed.
    m = 2 * n
    z = rng.standard_normal(m)
    w = np.empty(m, dtype=complex)
    w[0] = np.sqrt(eig[0] / m) * z[0]
    w[n] = np.sqrt(eig[n] / m) * z[1]
    w[1:n] = np.sqrt(eig[1:n] / (2.0 * m)) * (z[2 : n + 1] + 1j * z[n + 1 :])
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


def cumsum(series) -> np.ndarray:
    """Prefix sum; turns stationary increments into a random-walk-like path."""
    return np.cumsum(np.asarray(series, dtype=float))


def pareto(alpha: float, n: int, seed) -> np.ndarray:
    """Pareto(alpha) sample on [1, inf) by inverse-CDF transform."""
    if alpha <= 0:
        raise SynthError(f"alpha must be positive, got {alpha}")
    if n < 1:
        raise SynthError(f"need n >= 1, got {n}")
    u = _rng(seed).random(n)
    # 1 - u lies in (0, 1], so the power never overflows at u ~ 1
    return (1.0 - u) ** (-1.0 / alpha)


def iid_gaussian(n: int, seed) -> np.ndarray:
    """Standard normal draws."""
    if n < 1:
        raise SynthError(f"need n >= 1, got {n}")
    return _rng(seed).standard_normal(n)


# Each generator kind: its generator, called as (param, n, seed), the one
# GeneratorSpec parameter it takes as `param`, None for a kind that takes
# none, and the least n it accepts.
GENERATORS = {
    "fgn": (fgn, "hurst", 2),
    "fbm_increments_cumsum": (lambda hurst, n, seed: cumsum(fgn(hurst, n, seed)), "hurst", 2),
    "iid_gaussian": (lambda _, n, seed: iid_gaussian(n, seed), None, 1),
    "pareto": (pareto, "alpha", 1),
}
GENERATOR_KINDS = tuple(GENERATORS)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative request for one synthetic series: `hurst` or `alpha` is
    given exactly when the kind takes it (see GENERATORS)."""

    kind: str
    n: int
    seed: int
    hurst: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise SynthError(f"unknown generator kind {self.kind!r}")
        takes = GENERATORS[self.kind][1]
        for name in ("hurst", "alpha"):
            if (getattr(self, name) is None) == (name == takes):
                rule = "requires" if name == takes else "takes no"
                raise SynthError(f"kind {self.kind!r} {rule} {name}")

    def metadata(self) -> dict:
        meta = {
            "kind": self.kind,
            "n": self.n,
            "seed": self.seed,
            "rng": RNG_NAME,
            "rng_version": RNG_VERSION,
        }
        takes = GENERATORS[self.kind][1]
        if takes:
            meta[takes] = getattr(self, takes)
        return meta


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Materialize a GeneratorSpec; bit-identical for identical specs."""
    make, takes, _ = GENERATORS[spec.kind]
    return make(takes and getattr(spec, takes), spec.n, spec.seed)
