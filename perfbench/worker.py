"""One benchmark worker process: one pipeline run, as one `flowmem run` makes it.

Usage: python3 perfbench/worker.py JOB.json

JOB names the flowmem source tree, the config, the output directory, the
trace mode and where to write the result. The worker imports flowmem.cli
from that source tree only and loads the config, which is the set-up every
CLI call pays, and stamps the end of set-up on the monotonic clock, which
the parent compares with the time it started this process. Then it times
one run_pipeline call and calls assemble_report on the result, noting
whether the assembled report matches the written report.json byte for
byte. Each repeat of a workload is a fresh worker, so whatever the first
run in a process pays (lazy imports, caches) is paid by every repeat.

Trace mode "stage" records spans of the stage calls only (the reference),
"full" records every span; both write the spans as JSON lines after the
run, and time assemble_report repeatedly for a tenth of the run's time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

REPORT_SHARE = 0.1
# written to stderr when set-up ends; `-X importtime` lines before it are set-up imports
SETUP_MARK = "perfbench: setup done"


def time_report(pipeline, out_dir: Path, budget_s: float) -> dict:
    """Call assemble_report for `budget_s` seconds, at least once.

    Returns each call's wall time and whether every assembled report
    matched the written report.json byte for byte.
    """
    written = (out_dir / "report.json").read_text(encoding="utf-8")
    times, identical = [], True
    end = time.perf_counter() + budget_s
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        report = pipeline.assemble_report(str(out_dir))
        times.append(time.perf_counter() - t0)
        identical &= report.canonical_json() == written
    return {"report_s": times, "report_identical": identical}


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"])
    out_dir = Path(job["out_dir"])
    sys.path.insert(0, str(src))
    import flowmem.cli  # noqa: F401  (what every CLI call imports)
    import flowmem.pipeline as pipeline

    config = pipeline.load_config(job["config"], out_dir=str(out_dir))
    setup_end = time.monotonic()
    print(SETUP_MARK, file=sys.stderr, flush=True)

    import flowmem

    if src not in Path(flowmem.__file__).resolve().parents:
        raise SystemExit(f"flowmem imported from {flowmem.__file__}, not from {src}")

    tracer = None
    if job["traced"] is not None:
        from tracing import STAGE_SPANS, Tracer

        tracer = Tracer()
        tracer.instrument(STAGE_SPANS if job["traced"] == "stage" else None)
    result = {"setup_end": setup_end, "out_dir": str(out_dir), "traced": job["traced"],
              "error": None}
    try:
        t0 = time.perf_counter()
        pipeline.run_pipeline(config)
        result["run_s"] = time.perf_counter() - t0
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()
    if result["error"] is None:
        budget = REPORT_SHARE * result["run_s"] if tracer is not None else 0.0
        try:
            result.update(time_report(pipeline, out_dir, budget))
        except Exception:
            result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        with open(job["trace_path"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
