#!/usr/bin/env python3
"""Regenerate the bundled synthetic dataset and its golden pipeline output.

Run from the repository root after any intentional change to the pipeline's
numerics or artifact formats:

    python tools/make_golden.py      # PYTHONPATH=src if flowmem is not installed

The artifact manifest pins byte-level output in the numeric environment
recorded next to it, `golden/environment.json` (Python, numpy, scipy, BLAS,
platform); the test suite fails if a run there stops reproducing it. Another
environment may differ in the last ulp (numpy's FFT, libm's erfc), so
`golden/` also holds copies of the report and of the fig2, fig3 and fig4
CSVs, whose numbers the suite compares at 1e-12 relative, a check that holds
across environments. The script prints which manifest entries
changed and whether any input under `tests/data/` changed: every
regeneration is a CHANGES.md entry with that diff as evidence.
"""

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
# the figure CSVs whose numbers the suite compares across environments
FIGURE_CSVS = ("fig2_", "fig3_", "fig4_")

CONFIG = {
    "flows_csv": "flows_synth.csv",
    "prices_csv": "prices_synth.csv",
    "seed": 2024,
    "dfa": {
        "detrend_order": 2,
        "n_min": 5,
        "n_max_fraction": 0.25,
        "n_scales": 20,
        "min_blocks": 4,
        "include_order1": True,
    },
    "rolling": {"window": 250, "step": 5},
    "surrogates": {"kinds": ["shuffle", "phase_randomize"], "count": 10},
    "tails": {"tail_fraction": 0.05, "net_side": "absolute"},
    "regimes": [
        {"label": "mid", "start_date": "2015-12-01", "end_date": "2016-05-31"},
        {"label": "late", "start_date": "2016-06-01", "end_date": "2016-08-22"},
        {"label": "never", "start_date": "2030-01-01", "end_date": "2030-12-31"},
    ],
    "regression": {"fill_policy": "forward_fill", "robust_se": True, "lag_k": 0},
}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def numeric_environment():
    """The library versions, BLAS and platform that fix the golden bytes."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "system": platform.system(),
        "machine": platform.machine(),
    }


def input_digests(data_dir):
    """sha256 of every input file in data_dir (golden/ is a directory)."""
    paths = (os.path.join(data_dir, name) for name in os.listdir(data_dir))
    return {os.path.basename(p): sha256_file(p) for p in paths if os.path.isfile(p)}


def run_manifest(run_dir):
    """sha256 of every artifact the run's report.json lists; anything else
    in the run directory is an error naming it."""
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["artifacts"]
    extra = sorted(set(os.listdir(run_dir)) - set(listed))
    if extra:
        sys.exit(f"{run_dir} holds entries its report.json does not list: {', '.join(extra)}")
    return {name: sha256_file(os.path.join(run_dir, name)) for name in sorted(listed)}


def changed_keys(before, after):
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main():
    data_dir = os.path.abspath(DATA_DIR)
    os.makedirs(data_dir, exist_ok=True)
    golden_dir = os.path.join(data_dir, "golden")
    inputs_before = input_digests(data_dir)
    try:
        with open(os.path.join(golden_dir, "manifest.json"), encoding="utf-8") as fh:
            previous = json.load(fh)
    except FileNotFoundError:
        previous = {}

    subprocess.run(
        [
            sys.executable, "-m", "flowmem.cli", "synth", "flows",
            "--group", "retail=fgn:0.8",
            "--group", "institutional=fgn:0.65",
            "--group", "foreign=fgn:0.55",
            "-n", "600", "--seed", "42",
            "--out", os.path.join(data_dir, "flows_synth.csv"),
        ],
        check=True,
    )
    subprocess.run(
        [
            sys.executable, "-m", "flowmem.cli", "synth", "prices",
            "-n", "600", "--seed", "43",
            "--out", os.path.join(data_dir, "prices_synth.csv"),
        ],
        check=True,
    )

    from flowmem.pipeline import config_from_json_dict

    config = config_from_json_dict(CONFIG, base_dir=data_dir)
    with open(os.path.join(data_dir, "run_config.json"), "w", encoding="utf-8") as fh:
        fh.write(config.canonical_json())

    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [
                sys.executable, "-m", "flowmem.cli", "run",
                "--config", os.path.join(data_dir, "run_config.json"),
                "--out", tmp,
            ],
            check=True,
        )
        manifest = run_manifest(tmp)
        shutil.rmtree(golden_dir, ignore_errors=True)
        os.makedirs(golden_dir)
        for name in ["report.json", *(n for n in manifest if n.startswith(FIGURE_CSVS))]:
            shutil.copy(os.path.join(tmp, name), os.path.join(golden_dir, name))
    write_json(os.path.join(golden_dir, "manifest.json"), manifest)
    write_json(os.path.join(golden_dir, "environment.json"), numeric_environment())
    print(f"golden artifacts pinned: {len(manifest)} files")

    changed = changed_keys(previous, manifest)
    print(f"manifest entries changed: {len(changed)}")
    for name in changed:
        print(f"  {name}: {previous.get(name, '(absent)')[:12]} -> {manifest.get(name, '(absent)')[:12]}")
    changed_inputs = changed_keys(inputs_before, input_digests(data_dir))
    print("inputs under tests/data changed: " + (", ".join(changed_inputs) or "none"))


if __name__ == "__main__":
    main()
