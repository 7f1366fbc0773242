"""Full analysis pipeline: ingest flows, tail diagnostics, static DFA with
surrogate bands, rolling DFA with regime summaries, and the volatility
regressions.

Every stage writes file artifacts (CSV for plot data, JSON for fits and
summaries) into the output directory, and the run report ties them
together with provenance (config hash, seed, derived stage seeds). Given
the same inputs, config and seed, a rerun is bit-identical: per-series
random streams are pre-derived from stable labels and results are emitted
in a fixed series order. `threads` is accepted for compatibility; stages
run in one thread, since the batched DFA kernel leaves a thread pool
nothing to overlap. Paths in the config are kept as written (resolved
against the config file's directory only when opened), so the config hash
does not depend on where the tree is checked out.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .dfa import DfaConfig, fit_hurst, fluctuation, make_scale_grid, profile
from .errors import FlowmemError, PipelineError, TailError
from .flows import FLOW_TYPES, GROUPS, FlowPanel, aggregate_daily, read_flows_csv
from .rolling import (
    RegimeWindow,
    regime_summary,
    rolling_hurst,
    write_regime_summaries_json,
)
from .stats import (
    align_h_rv,
    ols,
    read_prices_csv,
    regression_table_rows,
    returns_from_prices,
    squared_return_vol,
    write_regression_table_csv,
)
from .surrogate import SURROGATE_KINDS, SurrogateSpec, surrogate_band
from .synth import RNG_NAME
from .tails import empirical_ccdf, fit_tail_exponent, gaussian_ccdf_reference

OUT_DIR_ENV = "FLOWMEM_OUT"

@dataclass(frozen=True)
class RunConfig:
    flows_csv: str
    prices_csv: str | None = None
    out_dir: str | None = None
    base_dir: str = "."  # runtime-only: where relative input paths resolve
    seed: int = 0
    dfa: DfaConfig = DfaConfig()
    dfa_include_order1: bool = False
    rolling_window: int = 250
    rolling_step: int = 5
    surrogate_kinds: tuple[str, ...] = SURROGATE_KINDS
    surrogate_count: int = 20
    tail_fraction: float = 0.05
    tail_net_side: str = "absolute"
    regimes: tuple[RegimeWindow, ...] = ()
    fill_policy: str = "forward_fill"
    robust_se: bool = True
    lag_k: int = 0
    threads: int = 1

    def resolve(self, path: str | None) -> str | None:
        if path is None:
            return None
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    def to_json_dict(self) -> dict:
        return {
            "flows_csv": self.flows_csv,
            "prices_csv": self.prices_csv,
            "seed": self.seed,
            "dfa": {
                "detrend_order": self.dfa.detrend_order,
                "n_min": self.dfa.n_min,
                "n_max_fraction": self.dfa.n_max_fraction,
                "n_scales": self.dfa.n_scales,
                "min_blocks": self.dfa.min_blocks,
                "include_order1": self.dfa_include_order1,
            },
            "rolling": {"window": self.rolling_window, "step": self.rolling_step},
            "surrogates": {
                "kinds": list(self.surrogate_kinds),
                "count": self.surrogate_count,
            },
            "tails": {
                "tail_fraction": self.tail_fraction,
                "net_side": self.tail_net_side,
            },
            "regimes": [
                {"label": w.label, "start_date": w.start_date, "end_date": w.end_date}
                for w in self.regimes
            ],
            "regression": {
                "fill_policy": self.fill_policy,
                "robust_se": self.robust_se,
                "lag_k": self.lag_k,
            },
        }

    def canonical_json(self) -> str:
        """Stable serialization; out_dir, base_dir and threads are runtime-only."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_DFA_KEYS = {f.name for f in fields(DfaConfig)}


def _typed(cast, value, key: str):
    """cast(value), or a config error naming the key."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise PipelineError("config", f"config key {key!r}: invalid value {value!r}") from None


def config_from_json_dict(data: dict, base_dir: str = ".") -> RunConfig:
    try:
        dfa_block = dict(data.get("dfa", {}))
        include_order1 = bool(dfa_block.pop("include_order1", False))
        for key, value in sorted(dfa_block.items()):
            if key not in _DFA_KEYS:
                raise PipelineError("config", f"unknown config key 'dfa.{key}'")
            if not isinstance(value, (int, float)):
                raise PipelineError("config", f"config key 'dfa.{key}': invalid value {value!r}")
        rolling = data.get("rolling", {})
        surr = data.get("surrogates", {})
        tails = data.get("tails", {})
        regression = data.get("regression", {})
        regimes = tuple(
            RegimeWindow(w["label"], w["start_date"], w["end_date"])
            for w in data.get("regimes", [])
        )
        return RunConfig(
            flows_csv=data["flows_csv"],
            prices_csv=data.get("prices_csv"),
            base_dir=base_dir,
            seed=_typed(int, data.get("seed", 0), "seed"),
            dfa=DfaConfig(**dfa_block),
            dfa_include_order1=include_order1,
            rolling_window=_typed(int, rolling.get("window", 250), "rolling.window"),
            rolling_step=_typed(int, rolling.get("step", 5), "rolling.step"),
            surrogate_kinds=tuple(surr.get("kinds", list(SURROGATE_KINDS))),
            surrogate_count=_typed(int, surr.get("count", 20), "surrogates.count"),
            tail_fraction=_typed(float, tails.get("tail_fraction", 0.05), "tails.tail_fraction"),
            tail_net_side=tails.get("net_side", "absolute"),
            regimes=regimes,
            fill_policy=regression.get("fill_policy", "forward_fill"),
            robust_se=bool(regression.get("robust_se", True)),
            lag_k=_typed(int, regression.get("lag_k", 0), "regression.lag_k"),
        )
    except KeyError as exc:
        raise PipelineError("config", f"missing config key: {exc}") from None


def load_config(path, out_dir=None, seed=None, threads=None) -> RunConfig:
    """Parse a JSON config file; CLI flags and FLOWMEM_OUT override it."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    config = config_from_json_dict(
        data, base_dir=os.path.dirname(os.path.abspath(path))
    )
    if seed is not None:
        config = replace(config, seed=int(seed))
    if threads is not None:
        config = replace(config, threads=int(threads))
    resolved_out = out_dir or os.environ.get(OUT_DIR_ENV) or data.get("out_dir")
    if resolved_out is not None:
        config = replace(config, out_dir=str(resolved_out))
    return config


def stage_seed(run_seed: int, label: str) -> int:
    """Derive a 64-bit stage seed from the run seed and a stable label."""
    digest = hashlib.sha256(label.encode()).digest()
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    seq = np.random.SeedSequence(entropy=run_seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def series_key(group, flow_type) -> str:
    return f"{group.value}_{flow_type.value}"


def _write_text(path, text) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _ccdf_with_reference_text(ccdf, reference) -> str:
    lines = ["x,p,gaussian_p"]
    for x, emp, ref in zip(ccdf.xs, ccdf.ps, reference.ps):
        lines.append(f"{float(x)!r},{float(emp)!r},{float(ref)!r}")
    return "\n".join(lines) + "\n"


@dataclass
class RunReport:
    provenance: dict
    series: dict
    regimes: dict
    regression: dict | None
    artifacts: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "series": self.series,
            "regimes": self.regimes,
            "regression": self.regression,
            "artifacts": sorted(self.artifacts),
        }

    def canonical_json(self) -> str:
        return _json_text(self.to_json_dict())


class _Run:
    """One pipeline execution; tracks written artifacts for quarantine."""

    def __init__(self, config: RunConfig):
        if not config.out_dir:
            raise PipelineError("config", "no output directory configured")
        self.config = config
        self.out_dir = config.out_dir
        self.panel: FlowPanel | None = None
        self.rollers: dict = {}
        self.written: list[str] = []
        self.report = RunReport(
            provenance={
                "config_sha256": config.sha256(),
                "seed": config.seed,
                "version": __version__,
                "rng": RNG_NAME,
                "stage_seeds": {},
            },
            series={series_key(g, ft): {} for g in GROUPS for ft in FLOW_TYPES},
            regimes={},
            regression=None,
        )

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def emit_text(self, name: str, text: str) -> None:
        _write_text(self.path(name), text)
        self.written.append(name)
        self.report.artifacts.append(name)

    def emit_file(self, name: str, writer) -> None:
        target = self.path(name)
        tmp = f"{target}.tmp"
        writer(tmp)
        os.replace(tmp, target)
        self.written.append(name)
        self.report.artifacts.append(name)

    def quarantine(self) -> None:
        qdir = os.path.join(self.out_dir, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        for name in self.written:
            src = self.path(name)
            if os.path.exists(src):
                shutil.move(src, os.path.join(qdir, name))


def _series_items(panel: FlowPanel):
    return [
        (group, flow_type, panel.series[(group, flow_type)])
        for group in GROUPS
        for flow_type in FLOW_TYPES
    ]


def _stage_ingest(run: _Run) -> None:
    records = read_flows_csv(run.config.resolve(run.config.flows_csv))
    run.panel = aggregate_daily(records)


def tail_report(values, side: str, tail_fraction: float):
    """CCDF, mean/variance-matched Gaussian reference and both tail fits.

    side="absolute" analyses |values| (the default treatment for signed
    net flows); the Gaussian reference is matched to the values as
    plotted. The two fit methods are flagged when they disagree by more
    than 0.3.
    """
    plotted = np.abs(values) if side == "absolute" else np.asarray(values, dtype=float)
    ccdf = empirical_ccdf(plotted, side="upper")
    std = float(plotted.std())
    reference = (
        gaussian_ccdf_reference(float(plotted.mean()), std, ccdf.xs)
        if std > 0
        else ccdf
    )
    fits = {}
    for method in ("ccdf_ols", "hill"):
        try:
            fits[method] = fit_tail_exponent(
                plotted, tail_fraction=tail_fraction, method=method
            ).to_json_dict()
        except TailError as exc:
            fits[method] = {"error": str(exc)}
    disagree = None
    if "error" not in fits["ccdf_ols"] and "error" not in fits["hill"]:
        disagree = bool(
            abs(fits["ccdf_ols"]["exponent"] - fits["hill"]["exponent"]) > 0.3
        )
    return ccdf, reference, {"side": side, "fits": fits, "methods_disagree": disagree}


def _stage_tails(run: _Run) -> None:
    config = run.config

    for group, flow_type, values in _series_items(run.panel):
        side = config.tail_net_side if flow_type.value == "NET" else "upper"
        ccdf, reference, summary = tail_report(values, side, config.tail_fraction)
        key = series_key(group, flow_type)
        run.emit_text(f"fig2_ccdf_{key}.csv", _ccdf_with_reference_text(ccdf, reference))
        run.emit_text(f"tails_{key}.json", _json_text(summary))
        run.report.series[key]["tails"] = dict(summary, ccdf_csv=f"fig2_ccdf_{key}.csv")


def static_dfa_table(panel: FlowPanel, config: DfaConfig, include_order1: bool = False) -> dict:
    """Static DFA curve and fit per series; the report's static section."""
    out = {}
    for group, flow_type, values in _series_items(panel):
        prof = profile(values)
        scales = make_scale_grid(prof.size, config)
        curve = fluctuation(prof, scales, config.detrend_order)
        entry = {"curve": curve, "fit": fit_hurst(curve), "fit_order1": None}
        if include_order1:
            entry["fit_order1"] = fit_hurst(fluctuation(prof, scales, 1))
        out[(group, flow_type)] = entry
    return out


def _stage_static_dfa(run: _Run) -> None:
    table = static_dfa_table(run.panel, run.config.dfa, run.config.dfa_include_order1)
    for (group, flow_type), entry in table.items():
        key = series_key(group, flow_type)
        run.emit_file(f"fig3_dfa_{key}.csv", entry["curve"].write_csv)
        payload = {"fit": entry["fit"].to_json_dict()}
        if entry["fit_order1"] is not None:
            payload["fit_order1"] = entry["fit_order1"].to_json_dict()
        run.emit_text(f"dfa_fit_{key}.json", _json_text(payload))
        run.report.series[key]["static_dfa"] = dict(payload, curve_csv=f"fig3_dfa_{key}.csv")


def _stage_surrogates(run: _Run) -> None:
    config = run.config
    for group, flow_type, values in _series_items(run.panel):
        key = series_key(group, flow_type)
        for kind in config.surrogate_kinds:
            seed = stage_seed(config.seed, f"surrogate/{kind}/{key}")
            spec = SurrogateSpec(kind=kind, seed=seed, count=config.surrogate_count)
            band = surrogate_band(values, spec, config.dfa)
            run.emit_file(f"surrogate_{kind}_{key}.json", band.write_json)
            run.report.series[key].setdefault("surrogates", {})[kind] = band.to_json_dict()
            run.report.provenance["stage_seeds"][f"surrogate/{kind}/{key}"] = seed


def _stage_rolling(run: _Run) -> None:
    config = run.config

    for group, flow_type, values in _series_items(run.panel):
        roll = rolling_hurst(
            values,
            run.panel.calendar,
            window=config.rolling_window,
            step=config.rolling_step,
            config=config.dfa,
            label=(group.value, flow_type.value),
        )
        key = series_key(group, flow_type)
        run.emit_file(f"fig4_rolling_{key}.csv", roll.write_csv)
        run.report.series[key]["rolling"] = {
            "csv": f"fig4_rolling_{key}.csv",
            "n_windows": len(roll.entries),
            "n_gaps": sum(1 for e in roll.entries if not e.ok),
            "window": roll.window,
            "step": roll.step,
        }
        if config.regimes:
            summaries = regime_summary(roll, config.regimes)
            run.emit_file(
                f"regimes_{key}.json",
                lambda p, s=summaries: write_regime_summaries_json(p, s),
            )
            run.report.regimes[key] = [s.to_json_dict() for s in summaries]
        run.rollers[(group, flow_type)] = roll


def _stage_regression(run: _Run) -> None:
    config = run.config
    calendar, closes = read_prices_csv(config.resolve(config.prices_csv))
    rv = squared_return_vol(returns_from_prices(calendar, closes))

    classic = {}
    robust = {} if config.robust_se else None
    n_pairs = {}
    for (group, flow_type), roll in run.rollers.items():
        pairs = align_h_rv(roll, rv, config.fill_policy).lagged(config.lag_k)
        classic[(group.value, flow_type.value)] = ols(pairs.volatility, pairs.hurst)
        if robust is not None:
            robust[(group.value, flow_type.value)] = ols(
                pairs.volatility, pairs.hurst, robust=True
            )
        n_pairs[series_key(group, flow_type)] = len(pairs.dates)

    rows = regression_table_rows(classic, robust)
    run.emit_file("table1_regression.csv", lambda p: write_regression_table_csv(p, rows))
    run.report.regression = {
        "rows": rows,
        "fill_policy": config.fill_policy,
        "lag_k": config.lag_k,
        "n_pairs": n_pairs,
        "csv": "table1_regression.csv",
    }


_STAGES = [
    ("ingest", _stage_ingest),
    ("tails", _stage_tails),
    ("static_dfa", _stage_static_dfa),
    ("surrogates", _stage_surrogates),
    ("rolling", _stage_rolling),
]


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute every stage, write artifacts, and return the run report.

    On a stage failure the artifacts written so far move to
    `<out_dir>/quarantine/` and a PipelineError naming the stage is
    raised.
    """
    run = _Run(config)
    os.makedirs(run.out_dir, exist_ok=True)

    stages = list(_STAGES)
    if config.prices_csv is not None:
        stages.append(("regression", _stage_regression))

    for name, step in stages:
        try:
            step(run)
        except PipelineError:
            run.quarantine()
            raise
        except (FlowmemError, OSError) as exc:
            run.quarantine()
            raise PipelineError(name, str(exc)) from exc

    run.emit_text("config.json", config.canonical_json())
    run.emit_text("provenance.json", _json_text(run.report.provenance))
    run.report.artifacts.append("report.json")
    _write_text(run.path("report.json"), run.report.canonical_json())
    return run.report


def _load_json_artifact(out_dir: str, name: str) -> dict:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise PipelineError("report", f"missing artifact: {name}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise PipelineError("report", f"malformed artifact {path}: {exc}") from None


def _require(out_dir: str, name: str) -> str:
    if not os.path.exists(os.path.join(out_dir, name)):
        raise PipelineError("report", f"missing artifact: {name}")
    return name


def assemble_report(out_dir: str) -> RunReport:
    """Rebuild the run report from the stage artifacts in a directory.

    The result is byte-identical to the report.json the pipeline wrote,
    which makes stage outputs and the assembled view interchangeable.
    Missing or malformed artifacts raise a stage-labeled error naming the
    offending path.
    """
    config_data = _load_json_artifact(out_dir, "config.json")
    config = config_from_json_dict(config_data, base_dir=out_dir)
    provenance = _load_json_artifact(out_dir, "provenance.json")

    report = RunReport(
        provenance=provenance,
        series={series_key(g, ft): {} for g in GROUPS for ft in FLOW_TYPES},
        regimes={},
        regression=None,
        artifacts=["config.json", "provenance.json", "report.json"],
    )

    for group in GROUPS:
        for flow_type in FLOW_TYPES:
            key = series_key(group, flow_type)
            ccdf_csv = _require(out_dir, f"fig2_ccdf_{key}.csv")
            tails = _load_json_artifact(out_dir, f"tails_{key}.json")
            report.series[key]["tails"] = dict(tails, ccdf_csv=ccdf_csv)
            report.artifacts += [ccdf_csv, f"tails_{key}.json"]

            curve_csv = _require(out_dir, f"fig3_dfa_{key}.csv")
            static = _load_json_artifact(out_dir, f"dfa_fit_{key}.json")
            report.series[key]["static_dfa"] = dict(static, curve_csv=curve_csv)
            report.artifacts += [curve_csv, f"dfa_fit_{key}.json"]

            for kind in config.surrogate_kinds:
                band = _load_json_artifact(out_dir, f"surrogate_{kind}_{key}.json")
                report.series[key].setdefault("surrogates", {})[kind] = band
                report.artifacts.append(f"surrogate_{kind}_{key}.json")

            roll_csv = _require(out_dir, f"fig4_rolling_{key}.csv")
            with open(os.path.join(out_dir, roll_csv), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            report.series[key]["rolling"] = {
                "csv": roll_csv,
                "n_windows": len(rows),
                "n_gaps": sum(1 for r in rows if r["H"] == ""),
                "window": config.rolling_window,
                "step": config.rolling_step,
            }
            report.artifacts.append(roll_csv)

            if config.regimes:
                regimes = _load_json_artifact(out_dir, f"regimes_{key}.json")
                report.regimes[key] = regimes
                report.artifacts.append(f"regimes_{key}.json")

    if config.prices_csv is not None:
        table_csv = _require(out_dir, "table1_regression.csv")
        with open(os.path.join(out_dir, table_csv), newline="", encoding="utf-8") as fh:
            raw_rows = list(csv.DictReader(fh))
        rows = []
        for raw in raw_rows:
            rows.append(
                {
                    "group": raw["group"],
                    "flow": raw["flow"],
                    "alpha": float(raw["alpha"]),
                    "t_alpha": float(raw["t_alpha"]),
                    "alpha_stars": raw["alpha_stars"],
                    "beta": float(raw["beta"]),
                    "t_beta": float(raw["t_beta"]),
                    "beta_stars": raw["beta_stars"],
                    "r_squared": float(raw["r_squared"]),
                    "n": int(raw["n"]),
                    **(
                        {
                            "t_alpha_robust": float(raw["t_alpha_robust"]),
                            "t_beta_robust": float(raw["t_beta_robust"]),
                        }
                        if "t_beta_robust" in raw
                        else {}
                    ),
                }
            )
        report.regression = {
            "rows": rows,
            "fill_policy": config.fill_policy,
            "lag_k": config.lag_k,
            "n_pairs": {row["group"] + "_" + row["flow"]: row["n"] for row in rows},
            "csv": table_csv,
        }
        report.artifacts.append(table_csv)

    return report
