"""Spans recorded from outside the program, and the per-layer metrics.

The program is not edited: `instrument` replaces the public functions
each stage calls with timing wrappers, in every flowmem module that
imported them by name, and `restore` puts the originals back. A span is
(id, parent, name, t0, t1, counts); the parent is the span that was
open when the call started, so spans nest by caller. Spans stay in memory
until the worker writes them out as JSON lines after its run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module defining the function, function name, span name, counter)
# A counter takes (args, kwargs, result) and returns the counts to record
# on the span and the result to hand back to the caller.


def _records(args, kwargs, result):
    """Records read; counted as they are consumed when the parser streams them."""
    if hasattr(result, "__len__"):
        return {"records": len(result)}, result
    counts = {"records": 0}

    def counted():
        for record in result:
            counts["records"] += 1
            yield record

    return counts, counted()


def _scales(args, kwargs, result):
    scales = kwargs["scales"] if "scales" in kwargs else args[1]
    return {"scales": len(scales), "kept": int(result.scales.size)}, result


def _windows(args, kwargs, result):
    return {"windows": len(result.entries), "gaps": sum(not e.ok for e in result.entries)}, result


def _copies(args, kwargs, result):
    return {"copies": result.count}, result


def _pairs(args, kwargs, result):
    return {"pairs": len(result.dates)}, result


TRACED = [
    ("flowmem.pipeline", "run_pipeline", "pipeline.run", None),
    ("flowmem.flows", "read_flows_csv", "flows.parse", _records),
    ("flowmem.flows", "aggregate_daily", "flows.aggregate", None),
    ("flowmem.pipeline", "tail_report", "tails.report", None),
    ("flowmem.pipeline", "static_dfa_table", "dfa.static", None),
    ("flowmem.dfa", "fluctuation", "dfa.fluctuation", _scales),
    ("flowmem.dfa", "fit_hurst", "dfa.fit", None),
    ("flowmem.surrogate", "surrogate_band", "surrogate.band", _copies),
    ("flowmem.surrogate", "shuffle", "surrogate.shuffle", None),
    ("flowmem.surrogate", "phase_randomize", "surrogate.phase_randomize", None),
    ("flowmem.rolling", "rolling_hurst", "rolling.hurst", _windows),
    ("flowmem.rolling", "regime_summary", "rolling.regime", None),
    ("flowmem.stats", "align_h_rv", "stats.align", _pairs),
    ("flowmem.stats", "ols", "stats.ols", None),
]

# the stage-level subset: one span per stage call, a few dozen per run
STAGE_SPANS = {"pipeline.run", "rolling.hurst", "surrogate.band"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None, "name": name}
            spans.append(span)
            stack.append(span["id"])
            span["t0"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["counts"] = {"error": 1}
                raise
            finally:
                span["t1"] = clock()
                stack.pop()
            if counter is not None:
                span["counts"], result = counter(args, kwargs, result)
            return result

        return wrapper

    def instrument(self, names=None) -> None:
        """Wrap the traced functions (all, or those whose span is in `names`)."""
        modules = [m for key, m in sys.modules.items() if key.startswith("flowmem")]
        for module_name, attr, name, counter in TRACED:
            if names is not None and name not in names:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals, counts and self times over the spans of one run."""
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["t1"] - s["t0"]
    for s in spans:
        d = s["t1"] - s["t0"]
        dur[s["name"]] += d
        self_time[s["name"]] += d - child_time[s["id"]]
        calls[s["name"]] += 1
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] += value
    run_s = dur["pipeline.run"]
    return {
        "run_s": run_s,
        "flows.parse_s": dur["flows.parse"],
        "flows.aggregate_s": dur["flows.aggregate"],
        "flows.records": counts["flows.parse.records"],
        "dfa.static_s": dur["dfa.static"],
        "dfa.fluctuation_s": dur["dfa.fluctuation"],
        "dfa.fluctuation_calls": calls["dfa.fluctuation"],
        "dfa.scales_evaluated": counts["dfa.fluctuation.scales"],
        "dfa.scales_dropped": counts["dfa.fluctuation.scales"] - counts["dfa.fluctuation.kept"],
        "dfa.fit_s": dur["dfa.fit"],
        "rolling.s": dur["rolling.hurst"],
        "rolling.self_s": self_time["rolling.hurst"],
        "rolling.windows": counts["rolling.hurst.windows"],
        "rolling.gaps": counts["rolling.hurst.gaps"],
        "rolling.regime_s": dur["rolling.regime"],
        "rolling.share": dur["rolling.hurst"] / run_s,
        "surrogate.s": dur["surrogate.band"],
        "surrogate.self_s": self_time["surrogate.band"],
        "surrogate.gen_s": dur["surrogate.shuffle"] + dur["surrogate.phase_randomize"],
        "surrogate.copies": counts["surrogate.band.copies"],
        "surrogate.share": dur["surrogate.band"] / run_s,
        "tails.s": dur["tails.report"],
        "stats.s": dur["stats.align"] + dur["stats.ols"],
        "stats.pairs": counts["stats.align.pairs"],
        "pipeline.other_s": self_time["pipeline.run"],
        "trace.spans": len(spans),
    }
