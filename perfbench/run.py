"""flowmem benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload market_2k --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from anywhere; the flowmem source is taken from `src/` next to this
directory, and nothing needs installing. The load is closed-loop with one
client: one single-process pipeline run at a time, with the BLAS and
OpenMP thread pools pinned to one thread. Inputs are generated from the
seed before anything is timed (see workloads.py); the program receives
only the CSVs and the config.

Each repeat is a fresh worker process that does what one `flowmem run`
does: import flowmem.cli, load the config, make one run_pipeline call
(see worker.py). Repeats go on until their time comes nearest to
--seconds, and every metric is the median over the repeats.

--trace 0 measures, with no instrumentation:
  run_s        wall time of the run_pipeline call
  setup_s      time from starting the process to flowmem.cli imported and
               the config loaded
  peak_rss_mb  peak resident memory of the process
--trace 1 measures per-layer times and counts from spans recorded around
the public functions each stage calls (see tracing.py), set-up import
times from `python -X importtime`, and pipeline.report_s, the wall time of
assemble_report(out_dir), the `flowmem report` read path.

Every run is checked (see check.py). The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
full record, with the environment fingerprint, the input hashes and each
run's problems, goes to .perfbench_out/results/, and the spans of a traced
run to .perfbench_out/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in every child

sys.path.insert(0, str(HERE))
from check import judge  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from worker import SETUP_MARK  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# the run must end within this many seconds of starting
DEADLINE_S = 170.0
# two repeats at least, so that their outputs can be compared byte for byte
MIN_REPEATS = 2


def declared_units(section: str) -> dict:
    """Names and units of the metrics in one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        if time.monotonic() >= self.end:
            raise TimeoutError("benchmark run exceeded its time limit")
        return self.end - time.monotonic()


def _child(args: list[str], deadline: Deadline) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    done = subprocess.run(args, capture_output=True, text=True, timeout=deadline.left())
    if done.returncode != 0:
        raise RuntimeError(f"{args[1]} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def setup_imports(stderr: str) -> dict:
    """Cumulative set-up import times of flowmem.cli and scipy.stats, in seconds."""
    cumulative = {}
    for line in stderr.splitlines():
        if line == SETUP_MARK:
            break
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    # scipy.stats is absent when nothing imports it during set-up any more
    return {"cli.import_s": cumulative["flowmem.cli"],
            "cli.import_scipy_stats_s": cumulative.get("scipy.stats", 0.0)}


def fingerprint(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None  # a plain source checkout has no .git
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "flowmem").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "seed": seed,
    }


def run_repeats(config: str, work: Path, seconds: float, seed: int,
                trace_dir: Path | None, deadline: Deadline) -> list[dict]:
    """Run fresh workers, one run each, until their time comes nearest to `seconds`.

    With a trace directory, the workers alternate stage-span-only and
    full-span runs, start under `-X importtime`, and write their spans there.
    """
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or (time.monotonic() - start) * (1 + 0.5 / len(runs)) < seconds:
        k = len(runs)
        job = {"src": str(SRC), "config": config, "out_dir": str(work / f"out{k}"),
               "traced": None, "result_path": str(work / f"result{k}.json")}
        args = [sys.executable, str(HERE / "worker.py"), str(work / f"job{k}.json")]
        if trace_dir is not None:
            # alternate which kind goes first, by seed
            job["traced"] = "full" if (k + seed) % 2 else "stage"
            job["trace_path"] = str(trace_dir / f"run{k}.jsonl")
            args[1:1] = ["-X", "importtime"]
        Path(args[-1]).write_text(json.dumps(job), encoding="utf-8")
        t0 = time.monotonic()
        done = _child(args, deadline)
        run = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
        run["setup_s"] = run.pop("setup_end") - t0
        if trace_dir is not None:
            run["trace_path"] = job["trace_path"]
            run.update(setup_imports(done.stderr))
        runs.append(run)
    return runs


def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _per(total: float, count: int) -> float:
    # a run with no records, windows or copies fails the count check, so its
    # result is already not correct; 0 only avoids dividing by zero
    return total / count if count else 0.0


def trace_metrics(completed: list[dict]) -> dict:
    full, stage = [], []
    for run in completed:
        with open(run["trace_path"], encoding="utf-8") as fh:
            layers = layer_metrics([json.loads(line) for line in fh])
        (full if run["traced"] == "full" else stage).append((layers, Path(run["out_dir"])))
    if not full or not stage:
        raise RuntimeError("a traced or a reference run did not complete")
    per_run = []
    for layers, out_dir in full:
        m = dict(layers)
        m["trace.run_s"] = m.pop("run_s")
        m["flows.us_per_record"] = 1e6 * _per(m["flows.parse_s"] + m["flows.aggregate_s"],
                                              m["flows.records"])
        m["rolling.ms_per_window"] = 1e3 * _per(m["rolling.s"], m["rolling.windows"])
        m["surrogate.ms_per_copy"] = 1e3 * _per(m["surrogate.s"], m["surrogate.copies"])
        m["pipeline.artifacts"], m["pipeline.bytes_written"] = _dir_size(out_dir)
        per_run.append(m)
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    stage_layers = [layers for layers, _ in stage]
    stage_run_s = statistics.median(m["run_s"] for m in stage_layers)
    metrics["rolling.share_stage"] = statistics.median(m["rolling.share"] for m in stage_layers)
    metrics["surrogate.share_stage"] = statistics.median(m["surrogate.share"] for m in stage_layers)
    metrics["trace.overhead_frac"] = metrics["trace.run_s"] / stage_run_s - 1.0
    return metrics


def bench(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, run, check and measure one workload; returns the result record."""
    deadline = Deadline(DEADLINE_S)
    workload = WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(workload, seed, work / "inputs")
        record = {"workload": workload_name, "trace": trace, "env": fingerprint(seed),
                  "inputs": inputs}
        trace_dir = None
        if trace:
            trace_dir = OUT / "traces" / tag
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        runs = run_repeats(inputs["config"], work, seconds, seed, trace_dir, deadline)
        verdicts = judge(runs, workload)
        completed = [r for r in runs if r["error"] is None]
        if not completed:
            raise RuntimeError("no run completed: " + "; ".join(v[0] for v in verdicts))
        if trace:
            metrics = trace_metrics(completed)
            metrics["pipeline.report_s"] = statistics.median(
                t for r in completed for t in r["report_s"]
            )
            for name in ("cli.import_s", "cli.import_scipy_stats_s"):
                metrics[name] = statistics.median(r[name] for r in runs)
        else:
            metrics = {name: statistics.median(r[name] for r in completed)
                       for name in ("run_s", "peak_rss_mb")}
            metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        units = declared_units("per_layer" if trace else "end_to_end")
        failed = sum(1 for v in verdicts if v)
        record.update(
            attempted=len(runs),
            failed=failed,
            fail_frac=failed / len(runs),
            runs=[
                {"run_s": r.get("run_s"), "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
                 "traced": r["traced"], "problems": v,
                 "report_s": statistics.median(r["report_s"]) if r.get("report_s") else None}
                for r, v in zip(runs, verdicts)
            ],
            metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
        )
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{tag}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_record(record: dict, prefix: str = "") -> None:
    for name, m in record["metrics"].items():
        print(f"{prefix}{name} {m['value']!r} {m['unit']}")
    print(f"{prefix}fail_frac {record['fail_frac']!r} ratio "
          f"({record['failed']} of {record['attempted']} runs)")
    for k, run in enumerate(record["runs"]):
        for problem in run["problems"]:
            print(f"{prefix}run {k} FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flowmem" / "__init__.py").is_file():
        print(f"error: no flowmem source under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print(json.dumps({"env": records[0]["env"]}))
    for record in records:
        _print_record(record, prefix=f"{record['workload']}: " if len(records) > 1 else "")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
