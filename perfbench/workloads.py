"""Benchmark workloads and their seeded input generation.

Each workload is a flows CSV, a prices CSV and a run config, generated
from the workload seed alone with the benchmark's own fGn generator, so a
change to the program never changes its inputs. All three share the
paper's analysis settings (DFA order 2, n_min 5, 20 scales, window 250,
both surrogate kinds, one regime, the regression) and differ in which
layer they load:

- market_2k: the README quick start, 2,000 days in the wide schema. Rolling
  DFA dominates (3,159 windows), surrogates come second (900 copies).
- null_heavy: 1,000 days, 100 surrogates per kind, rolling step 50.
  Surrogate DFA dominates (1,800 copies); rolling is small (144 windows).
- firm_panel: 1,000 days of firm-level long-schema rows (3 groups x 2
  sides x 50 firms, 300,000 rows). CSV parsing and aggregation dominate;
  DFA is a minor share.

BENCHMARK.json gates market_2k and firm_panel only. Between them they load
every layer, and on a 2-core box whose speed drifts by up to 1.5x over
minutes, a third gated workload would leave less measuring time per run.
null_heavy stays runnable by name and in `--workload all`.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# generating Hurst exponent per investor group (the README quick start)
HURST = {"retail": 0.85, "institutional": 0.70, "foreign": 0.55}
SIDES = ("BUY", "SELL")
FLOW_TYPES = ("BUY", "SELL", "NET")
SURROGATE_KINDS = ("shuffle", "phase_randomize")
WINDOW = 250


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    surrogates: int
    step: int
    firms: int = 0  # 0: wide schema; otherwise firms per (group, side) in the long schema

    @property
    def windows(self) -> int:
        return (self.days - WINDOW) // self.step + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("market_2k", days=2000, surrogates=50, step=5),
        Workload("null_heavy", days=1000, surrogates=100, step=50),
        Workload("firm_panel", days=1000, surrogates=5, step=25, firms=50),
    )
}


def series_keys() -> list[str]:
    return [f"{group}_{flow}" for group in HURST for flow in FLOW_TYPES]


def fgn(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance fractional Gaussian noise by circulant embedding.

    The embedding of the exact autocovariance is nonnegative definite for
    H in [0.5, 1), so the output has exactly the fGn covariance.
    """
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eig.min() < -1e-10 * eig.max():
        raise ValueError(f"circulant embedding not nonnegative definite for H={hurst}")
    m = 2 * n
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.fft.fft(np.sqrt(np.clip(eig, 0.0, None) / m) * z).real[:n]


def _calendar(days: int) -> list[str]:
    d0 = datetime.date(2015, 1, 1)
    return [(d0 + datetime.timedelta(days=i)).isoformat() for i in range(days)]


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's flows CSV, prices CSV and config into `directory`.

    The same (workload, seed) gives byte-identical files. Returns the config
    path and the content hash and size of every file.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    calendar = _calendar(workload.days)

    # per-group BUY/SELL totals: fGn shifted to be nonnegative; a constant
    # shift leaves the scaling exponent unchanged, and NET = BUY - SELL of two
    # independent fGn of one H is again fGn of that H
    totals = {}
    for group, hurst in HURST.items():
        for side in SIDES:
            x = fgn(hurst, workload.days, rng)
            totals[(group, side)] = (x - x.min()).tolist()

    flows = directory / "flows.csv"
    if not workload.firms:
        lines = ["date,group,buy,sell"]
        for i, date in enumerate(calendar):
            for group in HURST:
                lines.append(
                    f"{date},{group},{totals[(group, 'BUY')][i]!r},{totals[(group, 'SELL')][i]!r}"
                )
    else:
        # split each day's group total over firms by Dirichlet weights
        lines = ["date,firm_id,group,side,amount"]
        shares = {
            key: rng.dirichlet(np.ones(workload.firms), size=workload.days)
            for key in totals
        }
        firm_ids = [f"F{f:03d}" for f in range(workload.firms)]
        for i, date in enumerate(calendar):
            for group in HURST:
                for side in SIDES:
                    amounts = (totals[(group, side)][i] * shares[(group, side)][i]).tolist()
                    lines.extend(
                        f"{date},{firm},{group},{side},{a!r}"
                        for firm, a in zip(firm_ids, amounts)
                    )
    _write_lines(flows, lines)

    prices = directory / "prices.csv"
    closes = (100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(workload.days)))).tolist()
    _write_lines(prices, ["date,close"] + [f"{d},{c!r}" for d, c in zip(calendar, closes)])

    config = directory / "config.json"
    config.write_text(
        json.dumps(
            {
                "flows_csv": flows.name,
                "prices_csv": prices.name,
                "seed": seed,
                "dfa": {"detrend_order": 2, "n_min": 5, "n_max_fraction": 0.25,
                        "n_scales": 20, "min_blocks": 4, "include_order1": False},
                "rolling": {"window": WINDOW, "step": workload.step},
                "surrogates": {"kinds": list(SURROGATE_KINDS), "count": workload.surrogates},
                "tails": {"tail_fraction": 0.05, "net_side": "absolute"},
                "regimes": [
                    {"label": "stress",
                     "start_date": calendar[workload.days * 3 // 10],
                     "end_date": calendar[workload.days * 6 // 10]}
                ],
                "regression": {"fill_policy": "forward_fill", "robust_se": True, "lag_k": 0},
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "config": str(config),
        "sha256": {p.name: _sha256(p) for p in (flows, prices, config)},
        "bytes": {p.name: p.stat().st_size for p in (flows, prices, config)},
    }
