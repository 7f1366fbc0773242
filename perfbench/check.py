"""Output checks behind `failed` and `fail_frac`.

A run counts as failed when it raised, when `assemble_report` did not
reproduce its report.json byte for byte, when its output directory differs
from the other runs of the same inputs, or when `check_out_dir` finds a
problem: wrong counts, or estimates that miss the fGn oracle.

The oracle tolerances come from the estimator's measured dispersion. Over
300 simulated 1,000-day markets, DFA(2) with n_min 5 read the generating H
with a bias of +0.02 to +0.03 and a spread of 0.03 to 0.037 per series, so
6.7% of markets had some series more than 0.1 away. A per-series bound of
0.1 would fail correct code, so 0.1 bounds the mean deviation over the
nine series and 0.2 bounds each series, which a wrong H still breaks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import HURST, SURROGATE_KINDS, Workload, series_keys

MEAN_H_TOL = 0.1
SERIES_H_TOL = 0.2
SHUFFLE_MEAN_TOL = 0.1
REGRESSION_ROWS = 9


def dir_digest(out_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _json(out_dir: Path, name: str):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _csv_rows(out_dir: Path, name: str) -> list[dict]:
    with open(out_dir / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_out_dir(out_dir: Path, workload: Workload, hurst=HURST) -> list[str]:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = []
    try:
        report = _json(out_dir, "report.json")
        if sorted(report["series"]) != sorted(series_keys()):
            problems.append(f"series {sorted(report['series'])} != the 9 expected")
        deviations = []
        for key in series_keys():
            truth = hurst[key.split("_")[0]]
            h = _json(out_dir, f"dfa_fit_{key}.json")["fit"]["hurst"]
            deviations.append(h - truth)
            if abs(h - truth) > SERIES_H_TOL:
                problems.append(f"{key}: static H {h:.4f} vs generating {truth}")
            for kind in SURROGATE_KINDS:
                band = _json(out_dir, f"surrogate_{kind}_{key}.json")
                if band["count"] != workload.surrogates or len(band["hurst_values"]) != workload.surrogates:
                    problems.append(f"{key}: {kind} band has {band['count']} surrogates")
                if kind == "shuffle" and abs(band["mean"] - 0.5) > SHUFFLE_MEAN_TOL:
                    problems.append(f"{key}: shuffle band mean {band['mean']:.4f} vs 0.5")
            windows = len(_csv_rows(out_dir, f"fig4_rolling_{key}.csv"))
            if windows != workload.windows or report["series"][key]["rolling"]["n_windows"] != windows:
                problems.append(f"{key}: {windows} rolling windows, expected {workload.windows}")
        mean_dev = sum(deviations) / len(deviations)
        if abs(mean_dev) > MEAN_H_TOL:
            problems.append(f"static H misses the generating H by {mean_dev:.4f} on average")
        rows = len(_csv_rows(out_dir, "table1_regression.csv"))
        if rows != REGRESSION_ROWS or len(report["regression"]["rows"]) != REGRESSION_ROWS:
            problems.append(f"{rows} regression rows, expected {REGRESSION_ROWS}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def judge(runs: list[dict], workload: Workload, hurst=HURST) -> list[list[str]]:
    """The problems of each run of one set of inputs, in run order."""
    digests = [dir_digest(Path(r["out_dir"])) if r["error"] is None else None for r in runs]
    identical = len({d for d in digests if d is not None}) <= 1
    verdicts = []
    for run, digest in zip(runs, digests):
        if run["error"] is not None:
            verdicts.append([f"raised: {run['error'].strip().splitlines()[-1]}"])
            continue
        problems = check_out_dir(Path(run["out_dir"]), workload, hurst)
        if not run["report_identical"]:
            problems.append("assemble_report differs from the written report.json")
        if not identical:
            problems.append("output differs between repeats of the same inputs")
        verdicts.append(problems)
    return verdicts
