"""Full analysis pipeline: ingest flows, tail diagnostics, static DFA with
surrogate bands, rolling DFA with regime summaries, and the volatility
regressions.

Every stage writes file artifacts (CSV for plot data, JSON for fits and
summaries) into the output directory, and the run report ties them
together with provenance (config hash, seed, derived stage seeds). Given
the same inputs, config and seed, a rerun is bit-identical: per-series
random streams are pre-derived from stable labels and results are emitted
in a fixed series order. Paths in the config are kept as written
(resolved against the config file's directory only when opened), so the
config hash does not depend on where the tree is checked out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .dfa import DfaConfig, fit_hurst, fluctuation, make_scale_grid, profile
from .errors import FlowmemError, PipelineError, TailError
from .flows import (
    FLOW_TYPES,
    GROUPS,
    FlowPanel,
    FlowType,
    _valid_date,
    aggregate_daily,
    read_flows_csv,
)
from .rolling import RegimeWindow, RollingHurst, regime_summary, rolling_hurst
from .stats import (
    FILL_POLICIES,
    read_regression_table_csv,
    regression_table,
    write_regression_table_csv,
)
from .surrogate import SURROGATE_KINDS, SurrogateSpec, surrogate_band
from .synth import RNG_NAME
from .tails import TAIL_SIDES, empirical_ccdf, fit_tail_exponent, gaussian_ccdf_reference

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

    def resolve(self, path: str | None) -> str | None:
        if path is None:
            return None
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    def to_json_dict(self) -> dict:
        """The config.json form: every key of _KEYS but the runtime-only out_dir."""
        out = {}
        for key, (field, _, _) in _KEYS.items():
            block, _, name = key.rpartition(".")
            if key != "out_dir" and "[" not in block:
                value = functools.reduce(getattr, field.split("."), self)
                if isinstance(value, tuple):
                    value = [asdict(v) if is_dataclass(v) else v for v in value]
                (out.setdefault(block, {}) if block else out)[name] = value
        return out

    def canonical_json(self) -> str:
        """Stable serialization; out_dir and base_dir are runtime-only."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# Every config key: the field it sets ("dfa.<name>" is a field of
# RunConfig.dfa, "regimes[].<name>" one of a RegimeWindow entry), the JSON
# types it takes, and its rule: a tuple of allowed values (of each element,
# none repeated, for a list), the class a list's entries build, or a
# predicate. Defaults live on the dataclass fields alone; a field without
# one is a required key.
_KEYS = {
    "flows_csv": ("flows_csv", (str,), None),
    "prices_csv": ("prices_csv", (str, type(None)), None),
    "out_dir": ("out_dir", (str, type(None)), None),
    "seed": ("seed", (int,), lambda v: v >= 0),
    "dfa.detrend_order": ("dfa.detrend_order", (int,), None),
    "dfa.n_min": ("dfa.n_min", (int,), None),
    "dfa.n_max_fraction": ("dfa.n_max_fraction", (int, float), None),
    "dfa.n_scales": ("dfa.n_scales", (int,), None),
    "dfa.min_blocks": ("dfa.min_blocks", (int,), None),
    "dfa.include_order1": ("dfa_include_order1", (bool,), None),
    "rolling.window": ("rolling_window", (int,), lambda v: v >= 2),
    "rolling.step": ("rolling_step", (int,), lambda v: v >= 1),
    "surrogates.kinds": ("surrogate_kinds", (list,), SURROGATE_KINDS),
    "surrogates.count": ("surrogate_count", (int,), lambda v: v >= 1),
    "tails.tail_fraction": ("tail_fraction", (int, float), lambda v: 0 < v <= 1),
    "tails.net_side": ("tail_net_side", (str,), TAIL_SIDES),
    "regimes": ("regimes", (list,), RegimeWindow),
    "regimes[].label": ("label", (str,), None),
    "regimes[].start_date": ("start_date", (str,), _valid_date),
    "regimes[].end_date": ("end_date", (str,), _valid_date),
    "regression.fill_policy": ("fill_policy", (str,), FILL_POLICIES),
    "regression.robust_se": ("robust_se", (bool,), None),
    "regression.lag_k": ("lag_k", (int,), lambda v: v >= 0),
}
_BLOCKS = {key.rpartition(".")[0] for key in _KEYS if "." in key and "[" not in key}


def _bad_value(key: str, value) -> PipelineError:
    return PipelineError("config", f"config key {key!r}: invalid value {value!r}")


def _build(cls, kwargs: dict, where: str):
    """cls(**kwargs); a missing required key or a FlowmemError from the
    constructor is a config error naming `where` (a key prefix)."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in kwargs:
            raise PipelineError("config", f"missing config key {where + f.name!r}")
    try:
        return cls(**kwargs)
    except FlowmemError as exc:
        raise PipelineError("config", f"config key {where.rstrip('.')!r}: {exc}") from None


def _read(obj, prefix: str = "", where: str = "") -> dict:
    """{field: value} for one JSON object, each key checked against its row
    of _KEYS; `prefix` is the rows' key prefix, `where` its name in errors."""
    if type(obj) is not dict:
        raise _bad_value(where.rstrip(".") or "<top level>", obj)
    out = {}
    for name in sorted(obj):
        key, value = prefix + name, obj[name]
        if key in _BLOCKS:
            out.update(_read(value, f"{key}.", f"{where}{name}."))
            continue
        if key not in _KEYS:
            raise PipelineError("config", f"unknown config key {where + name!r}")
        field, types, rule = _KEYS[key]
        if type(value) not in types:
            raise _bad_value(where + name, value)
        if isinstance(rule, type):  # a list of objects, each one an entry
            entries = [f"{where}{name}[{i}]." for i in range(len(value))]
            value = [_build(rule, _read(v, f"{key}[].", e), e) for v, e in zip(value, entries)]
        elif rule is not None:
            items = value if type(value) is list else [value]
            if not all(v in rule if isinstance(rule, tuple) else rule(v) for v in items):
                raise _bad_value(where + name, value)
            if len(set(items)) < len(items):
                raise _bad_value(where + name, value)
        if type(value) is list:
            value = tuple(value)
        out[field] = float(value) if float in types else value
    return out


def config_from_json_dict(data: dict, base_dir: str = ".") -> RunConfig:
    """Validate a parsed config in full against _KEYS: an unknown key, a
    value of the wrong JSON type or out of range is a config error naming
    the key, raised before any stage runs."""
    given = _read(data)
    nested: dict = {}
    for path in [p for p in given if "." in p]:
        owner, name = path.split(".")
        nested.setdefault(owner, {})[name] = given.pop(path)
    for owner, kwargs in nested.items():
        given[owner] = _build(type(getattr(RunConfig, owner)), kwargs, f"{owner}.")
    return _build(RunConfig, {**given, "base_dir": base_dir}, "")


def load_config(path, out_dir=None, seed=None) -> RunConfig:
    """Parse a JSON config file; CLI flags and FLOWMEM_OUT override it."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PipelineError("config", f"{path}: {exc}") from None
    if seed is not None and isinstance(data, dict):
        data["seed"] = seed
    config = config_from_json_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
    resolved_out = out_dir or os.environ.get(OUT_DIR_ENV)
    return replace(config, out_dir=str(resolved_out)) if resolved_out else config


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
    artifacts: list[str]

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


# what a finished run writes besides the stage artifacts; a failed rerun
# moves an older run's copies aside so they cannot pass for its own
_RUN_FILES = ("config.json", "provenance.json", "report.json")


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
        self.stage_seeds: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def emit_text(self, name: str, text: str) -> None:
        _write_text(self.path(name), text)
        self.written.append(name)

    def emit_file(self, name: str, writer) -> None:
        target = self.path(name)
        tmp = f"{target}.tmp"
        writer(tmp)
        os.replace(tmp, target)
        self.written.append(name)

    def quarantine(self) -> None:
        qdir = os.path.join(self.out_dir, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        for name in dict.fromkeys([*self.written, *_RUN_FILES]):
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
    path = run.config.resolve(run.config.flows_csv)
    run.panel = aggregate_daily(read_flows_csv(path))
    for group in GROUPS:
        if not any(run.panel.series[(group, side)].any() for side in (FlowType.BUY, FlowType.SELL)):
            raise PipelineError("ingest", f"{path}: no flows for investor group {group.value!r}")


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


def static_dfa(values, config: DfaConfig, include_order1: bool = False):
    """Static DFA of one series: (curve, fits).

    `fits` holds the DfaFit under "fit" and, when include_order1 is set,
    the order-1 cross-check under "fit_order1"; its JSON form is the
    dfa_fit artifact.
    """
    prof = profile(values)
    scales = make_scale_grid(prof.size, config)
    curve = fluctuation(prof, scales, config.detrend_order)
    fits = {"fit": fit_hurst(curve)}
    if include_order1:
        fits["fit_order1"] = fit_hurst(fluctuation(prof, scales, 1))
    return curve, fits


def fits_json_text(fits: dict) -> str:
    return _json_text({name: fit.to_json_dict() for name, fit in fits.items()})


def static_dfa_table(panel: FlowPanel, config: DfaConfig, include_order1: bool = False) -> dict:
    """Static DFA per series: {(group, flow_type): {"curve", "fit"[, "fit_order1"]}}."""
    out = {}
    for group, flow_type, values in _series_items(panel):
        curve, fits = static_dfa(values, config, include_order1)
        out[(group, flow_type)] = {"curve": curve, **fits}
    return out


def _stage_static_dfa(run: _Run) -> None:
    table = static_dfa_table(run.panel, run.config.dfa, run.config.dfa_include_order1)
    for (group, flow_type), entry in table.items():
        key = series_key(group, flow_type)
        curve = entry.pop("curve")
        run.emit_file(f"fig3_dfa_{key}.csv", curve.write_csv)
        run.emit_text(f"dfa_fit_{key}.json", fits_json_text(entry))


def _stage_surrogates(run: _Run) -> None:
    config = run.config
    for group, flow_type, values in _series_items(run.panel):
        key = series_key(group, flow_type)
        for kind in config.surrogate_kinds:
            seed = stage_seed(config.seed, f"surrogate/{kind}/{key}")
            spec = SurrogateSpec(kind=kind, seed=seed, count=config.surrogate_count)
            band = surrogate_band(values, spec, config.dfa)
            run.emit_text(f"surrogate_{kind}_{key}.json", _json_text(band.to_json_dict()))
            run.stage_seeds[f"surrogate/{kind}/{key}"] = seed


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
        if config.regimes:
            summaries = regime_summary(roll, config.regimes)
            run.emit_text(f"regimes_{key}.json", _json_text([s.to_json_dict() for s in summaries]))
        run.rollers[(group.value, flow_type.value)] = roll


def _stage_regression(run: _Run) -> None:
    config = run.config
    rows = regression_table(
        run.rollers, config.resolve(config.prices_csv), config.fill_policy, config.lag_k,
        config.robust_se,
    )
    run.emit_file("table1_regression.csv", lambda p: write_regression_table_csv(p, rows))


def _stage_report(run: _Run) -> RunReport:
    config = run.config
    provenance = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "version": __version__,
        "rng": RNG_NAME,
        "stage_seeds": run.stage_seeds,
    }
    run.emit_text("config.json", config.canonical_json())
    run.emit_text("provenance.json", _json_text(provenance))
    report = assemble_report(run.out_dir)
    run.emit_text("report.json", report.canonical_json())
    return report


_STAGES = [
    ("ingest", _stage_ingest),
    ("tails", _stage_tails),
    ("static_dfa", _stage_static_dfa),
    ("surrogates", _stage_surrogates),
    ("rolling", _stage_rolling),
]


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute every stage, write artifacts, and return the run report.

    The report is assembled from the artifacts the stages wrote, exactly
    as `assemble_report` rebuilds it later. On any exception in a stage
    the artifacts written so far, and an older run's config, provenance
    and report, move to `<out_dir>/quarantine/` and a PipelineError naming
    the stage is raised; an error from outside the toolkit keeps its type
    name in the message.
    """
    run = _Run(config)
    os.makedirs(run.out_dir, exist_ok=True)

    stages = list(_STAGES)
    if config.prices_csv is not None:
        stages.append(("regression", _stage_regression))
    stages.append(("report", _stage_report))

    for name, step in stages:
        try:
            report = step(run)
        except Exception as exc:
            run.quarantine()
            if isinstance(exc, PipelineError):
                raise
            known = isinstance(exc, (FlowmemError, OSError))
            raise PipelineError(name, str(exc) if known else f"{type(exc).__name__}: {exc}") from exc
    return report


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
    """Build the run report from the stage artifacts in a directory.

    This is the only report builder: `run_pipeline` calls it on the
    artifacts it just wrote, and `flowmem report` on any finished run
    directory. Missing or malformed artifacts raise a stage-labeled error
    naming the offending path.
    """
    config_data = _load_json_artifact(out_dir, "config.json")
    config = config_from_json_dict(config_data, base_dir=out_dir)
    provenance = _load_json_artifact(out_dir, "provenance.json")

    report = RunReport(
        provenance=provenance,
        series={series_key(g, ft): {} for g in GROUPS for ft in FLOW_TYPES},
        regimes={},
        regression=None,
        artifacts=list(_RUN_FILES),
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
            roll = RollingHurst.read_csv(
                os.path.join(out_dir, roll_csv), config.rolling_step, config.rolling_window
            )
            report.series[key]["rolling"] = {
                "csv": roll_csv,
                "n_windows": len(roll.entries),
                "n_gaps": sum(1 for e in roll.entries if not e.ok),
                "window": roll.window,
                "step": roll.step,
            }
            report.artifacts.append(roll_csv)

            if config.regimes:
                regimes = _load_json_artifact(out_dir, f"regimes_{key}.json")
                report.regimes[key] = regimes
                report.artifacts.append(f"regimes_{key}.json")

    if config.prices_csv is not None:
        table_csv = _require(out_dir, "table1_regression.csv")
        rows = read_regression_table_csv(os.path.join(out_dir, table_csv))
        report.regression = {
            "rows": rows,
            "fill_policy": config.fill_policy,
            "lag_k": config.lag_k,
            "n_pairs": {row["group"] + "_" + row["flow"]: row["n"] for row in rows},
            "csv": table_csv,
        }
        report.artifacts.append(table_csv)

    return report
