"""Full analysis pipeline: ingest flows, tail diagnostics, static DFA with
surrogate bands, rolling DFA with regime summaries, and the volatility
regressions.

Every stage writes file artifacts (CSV for plot data, JSON for fits and
summaries), named from the one `ARTIFACTS` table, into a staging
directory; the run report ties them together with provenance (config
hash, seed, derived stage seeds), and the run is then published whole
into the output directory, or quarantined if a stage failed. Given
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
import pickle
import shutil
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace

import numpy as np
import numpy.random  # noqa: F401  numpy loads these lazily; load them at import, not mid-run

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


SERIES_KEYS = tuple(series_key(g, ft) for g in GROUPS for ft in FLOW_TYPES)

# Every file a run can write, grouped by the stage that writes it, as name
# templates over {key} (a series key) and {kind} (a surrogate kind).
# "regimes" is the rolling stage's regime summaries, written only when
# regimes are configured; "regression" only with a prices file. The
# stages, `assemble_report`, the publish step and `flowmem regress` all
# take their file names from here.
ARTIFACTS = {
    "tails": ("fig2_ccdf_{key}.csv", "tails_{key}.json"),
    "static_dfa": ("fig3_dfa_{key}.csv", "dfa_fit_{key}.json"),
    "surrogates": ("surrogate_{kind}_{key}.json",),
    "rolling": ("fig4_rolling_{key}.csv",),
    "regimes": ("regimes_{key}.json",),
    "regression": ("table1_regression.csv",),
    "report": ("config.json", "provenance.json", "report.json"),
}
CCDF_CSV, TAILS_JSON = ARTIFACTS["tails"]
CURVE_CSV, DFA_FIT_JSON = ARTIFACTS["static_dfa"]
(SURROGATE_JSON,) = ARTIFACTS["surrogates"]
(ROLLING_CSV,) = ARTIFACTS["rolling"]
(REGIMES_JSON,) = ARTIFACTS["regimes"]
(TABLE_CSV,) = ARTIFACTS["regression"]
CONFIG_JSON, PROVENANCE_JSON, REPORT_JSON = ARTIFACTS["report"]

STAGING_DIR = ".staging"
QUARANTINE_DIR = "quarantine"


def artifact_names(config: RunConfig | None = None) -> list[str]:
    """The file names a run with `config` writes; with no config, every
    name any run can write (all surrogate kinds, regimes and regression)."""
    groups, kinds = list(ARTIFACTS), SURROGATE_KINDS
    if config is not None:
        kinds = config.surrogate_kinds
        if not config.regimes:
            groups.remove("regimes")
        if config.prices_csv is None:
            groups.remove("regression")
    return list(dict.fromkeys(
        template.format(key=key, kind=kind)
        for group in groups
        for template in ARTIFACTS[group]
        for key in SERIES_KEYS
        for kind in (kinds if "{kind}" in template else ("",))
    ))


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _ccdf_with_reference_text(ccdf, reference) -> str:
    lines = ["x,p,gaussian_p"]
    for x, emp, ref in zip(ccdf.xs.tolist(), ccdf.ps.tolist(), reference.ps.tolist()):
        lines.append(f"{x!r},{emp!r},{ref!r}")
    return "\n".join(lines) + "\n"


@dataclass
class RunReport:
    provenance: dict
    series: dict
    regimes: dict
    regression: dict | None
    artifacts: list[str]

    def to_json_dict(self) -> dict:
        # shallow: the fields hold plain JSON values, which asdict would deep-copy
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "artifacts": sorted(self.artifacts)
        }

    def canonical_json(self) -> str:
        return _json_text(self.to_json_dict())


class _Run:
    """One pipeline execution: its config, the staging directory its stages
    write into, and the state they hand on."""

    def __init__(self, config: RunConfig, staging: str):
        self.config = config
        self.staging = staging
        self.panel: FlowPanel | None = None
        self.rollers: dict = {}
        self.stage_seeds: dict = {}

    def path(self, template: str, **names) -> str:
        return os.path.join(self.staging, template.format(**names))


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
        _write_text(run.path(CCDF_CSV, key=key), _ccdf_with_reference_text(ccdf, reference))
        _write_text(run.path(TAILS_JSON, key=key), _json_text(summary))


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
        entry.pop("curve").write_csv(run.path(CURVE_CSV, key=key))
        _write_text(run.path(DFA_FIT_JSON, key=key), fits_json_text(entry))


def _stage_surrogates(run: _Run) -> None:
    config = run.config
    for group, flow_type, values in _series_items(run.panel):
        key = series_key(group, flow_type)
        for kind in config.surrogate_kinds:
            seed = stage_seed(config.seed, f"surrogate/{kind}/{key}")
            spec = SurrogateSpec(kind=kind, seed=seed, count=config.surrogate_count)
            band = surrogate_band(values, spec, config.dfa)
            band_json = _json_text(band.to_json_dict())
            _write_text(run.path(SURROGATE_JSON, kind=kind, key=key), band_json)
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
        roll.write_csv(run.path(ROLLING_CSV, key=key))
        if config.regimes:
            summaries = [s.to_json_dict() for s in regime_summary(roll, config.regimes)]
            _write_text(run.path(REGIMES_JSON, key=key), _json_text(summaries))
        run.rollers[(group.value, flow_type.value)] = roll


def _stage_regression(run: _Run) -> None:
    config = run.config
    if config.prices_csv is None:
        return
    rows = regression_table(
        run.rollers, config.resolve(config.prices_csv), config.fill_policy, config.lag_k,
        config.robust_se,
    )
    write_regression_table_csv(run.path(TABLE_CSV), rows)


def _stage_report(run: _Run) -> RunReport:
    config = run.config
    provenance = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "version": __version__,
        "rng": RNG_NAME,
        "stage_seeds": run.stage_seeds,
    }
    _write_text(run.path(CONFIG_JSON), config.canonical_json())
    _write_text(run.path(PROVENANCE_JSON), _json_text(provenance))
    report = assemble_report(run.staging)
    _write_text(run.path(REPORT_JSON), report.canonical_json())
    return report


_STAGES = [
    ("ingest", _stage_ingest),
    ("tails", _stage_tails),
    ("static_dfa", _stage_static_dfa),
    ("surrogates", _stage_surrogates),
    ("rolling", _stage_rolling),
    ("regression", _stage_regression),
    ("report", _stage_report),
]


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute every stage, publish the run's artifacts, return its report.

    The stages write into `<out_dir>/.staging/`, cleared first of anything
    a killed run left, and the report is assembled from the staged files
    as `assemble_report` rebuilds it later. Right after ingest the
    surrogate stage starts in a forked worker (`_Beside`), and the other
    stages run here meanwhile; the report waits for both. `_publish` then
    moves the staged files to the top level or, on any exception in a
    stage, to `quarantine/`, and a PipelineError names the earliest failed
    stage in `_STAGES` order, as a serial run would; an error from outside
    the toolkit keeps its type name in the message. The worker is joined
    before anything moves, also when this process is interrupted.
    """
    out_dir = config.out_dir
    if not out_dir:
        raise PipelineError("config", "no output directory configured")
    staging = os.path.join(out_dir, STAGING_DIR)
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    run = _Run(config, staging)
    position = {name: i for i, (name, _) in enumerate(_STAGES)}
    worker = None
    try:
        failed = {}  # position in _STAGES -> the PipelineError that stage failed with
        for name, step in _STAGES:
            if worker is not None and (failed or name == "report"):
                if (error := worker.join()) is not None:
                    failed[position[worker.name]] = error
            if failed:
                raise failed[min(failed)]
            if name == "surrogates":  # the worker's, started after ingest
                continue
            try:
                report = step(run)
            except Exception as exc:
                failed[position[name]] = _stage_error(name, exc)
            if name == "ingest" and not failed:
                worker = _Beside(run, "surrogates", _stage_surrogates)
        if failed:
            raise failed[min(failed)]
    except BaseException:
        if worker is not None:
            worker.join(kill=True)
        _publish(out_dir, os.listdir(staging), os.path.join(out_dir, QUARANTINE_DIR))
        raise
    _publish(out_dir, report.artifacts, out_dir)
    return report


def _stage_error(name: str, exc: BaseException) -> PipelineError:
    """The error a run raises when stage `name` fails with `exc`: exc itself
    if it is a PipelineError, else one naming the stage, caused by exc."""
    if isinstance(exc, PipelineError):
        return exc
    known = isinstance(exc, (FlowmemError, OSError))
    error = PipelineError(name, str(exc) if known else f"{type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


class _Beside:
    """One stage run beside the caller's stages: in a forked worker process,
    or inline where os.fork does not exist. `join` waits for it, merges the
    stage seeds it derived into the run and returns the PipelineError it
    failed with, or None.

    The worker writes into a fresh directory of its own inside `.staging/`,
    whose files `join` moves up; a worker orphaned by a killed run then
    cannot write into the next run's `.staging/`, only into a directory
    that run has cleared. It sends its seeds, or its error's (stage,
    message) and pickled cause, back over a pipe and ends with os._exit
    whatever happens, so it never returns into the caller's frames; an
    interrupt or exit inside the stage is its failure. A worker that ends
    without a result, killed or out of memory, fails the stage naming its
    exit status or signal.
    """

    def __init__(self, run: _Run, name: str, step):
        self.run, self.name, self.pid, self.error = run, name, None, None
        if not hasattr(os, "fork"):
            try:
                step(run)
            except Exception as exc:
                self.error = _stage_error(name, exc)
            return
        self.own = os.path.join(run.staging, f".{name}-{os.urandom(8).hex()}")
        read_end, write_end = os.pipe()
        try:
            os.mkdir(self.own)
            self.pid = os.fork()
        except OSError as exc:  # no directory or process to spare fails the stage
            os.close(read_end)
            os.close(write_end)
            shutil.rmtree(self.own, ignore_errors=True)
            self.error = _stage_error(name, exc)
            return
        if self.pid == 0:
            status = 1
            try:
                os.close(read_end)
                run.staging = self.own  # this process's copy of the run
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(self._result(step))
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        self.pipe = read_end

    def _result(self, step) -> bytes:
        try:
            step(self.run)
        except BaseException as exc:
            error = _stage_error(self.name, exc)
            try:
                cause = pickle.dumps(error.__cause__)
            except Exception:
                cause = None
            return pickle.dumps(({}, (error.stage, error.message, cause)))
        return pickle.dumps((self.run.stage_seeds, None))

    def join(self, kill: bool = False) -> PipelineError | None:
        """Wait for the stage (ending the worker first if `kill`) and reap it."""
        pid, self.pid = self.pid, None
        if pid is None:
            return self.error
        try:
            with os.fdopen(self.pipe, "rb") as pipe:
                if kill:
                    _kill(pid)
                result = pipe.read()
        except BaseException:
            _kill(pid)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            for file in os.listdir(self.own):
                os.replace(os.path.join(self.own, file), os.path.join(self.run.staging, file))
            os.rmdir(self.own)
        if code != 0 or not result:
            ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            self.error = PipelineError(self.name, f"worker process ended without a result ({ended})")
            return self.error
        seeds, failure = pickle.loads(result)
        self.run.stage_seeds.update(seeds)
        if failure is not None:
            stage, message, cause = failure
            self.error = PipelineError(stage, message)
            self.error.__cause__ = _unpickled(cause)
        return self.error


def _kill(pid: int) -> None:
    import signal  # loaded only when a worker is stopped

    os.kill(pid, signal.SIGKILL)


def _unpickled(data: bytes | None):
    """The exception a worker pickled, or None if it does not load here."""
    try:
        return pickle.loads(data) if data is not None else None
    except Exception:
        return None


def _publish(out_dir: str, staged, target: str) -> None:
    """Retire an older run's files from the top level of out_dir, report
    first, then move the `staged` files into `target`, report.json last,
    and remove .staging/.

    When `target` is out_dir itself (success) the older files are deleted:
    the top level then holds exactly what the new report lists, plus any
    `quarantine/`. Otherwise (failure, `target` is `quarantine/`, merged
    into if it exists) they move there ahead of the staged ones, so the
    failed run's copy wins a name clash. Names no run writes stay put.
    """
    os.makedirs(target, exist_ok=True)
    for name in [REPORT_JSON, *artifact_names()]:
        older = os.path.join(out_dir, name)
        if os.path.isfile(older) and target == out_dir:
            os.remove(older)
        elif os.path.isfile(older):
            os.replace(older, os.path.join(target, name))
    staging = os.path.join(out_dir, STAGING_DIR)
    for name in sorted(staged, key=lambda n: n == REPORT_JSON):
        os.replace(os.path.join(staging, name), os.path.join(target, name))
    shutil.rmtree(staging)


def _load_json_artifact(out_dir: str, template: str, **names) -> dict:
    path = os.path.join(out_dir, template.format(**names))
    if not os.path.exists(path):
        raise PipelineError("report", f"missing artifact: {os.path.basename(path)}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise PipelineError("report", f"malformed artifact {path}: {exc}") from None


def assemble_report(out_dir: str) -> RunReport:
    """Build the run report from the stage artifacts in a directory.

    This is the only report builder: `run_pipeline` calls it on the
    artifacts it just staged, and `flowmem report` on any finished run
    directory. The report lists every name `artifact_names` gives for the
    run's config; a missing or malformed one raises a stage-labeled error
    naming it.
    """
    config = config_from_json_dict(_load_json_artifact(out_dir, CONFIG_JSON), base_dir=out_dir)
    artifacts = artifact_names(config)
    missing = [
        name for name in artifacts
        if name != REPORT_JSON and not os.path.exists(os.path.join(out_dir, name))
    ]
    if missing:
        raise PipelineError("report", f"missing artifact: {', '.join(missing)}")
    report = RunReport(
        provenance=_load_json_artifact(out_dir, PROVENANCE_JSON),
        series={},
        regimes={},
        regression=None,
        artifacts=artifacts,
    )

    for key in SERIES_KEYS:
        ccdf_csv, curve_csv = CCDF_CSV.format(key=key), CURVE_CSV.format(key=key)
        tails = _load_json_artifact(out_dir, TAILS_JSON, key=key)
        static = _load_json_artifact(out_dir, DFA_FIT_JSON, key=key)
        entry = report.series[key] = {
            "tails": dict(tails, ccdf_csv=ccdf_csv),
            "static_dfa": dict(static, curve_csv=curve_csv),
        }
        for kind in config.surrogate_kinds:
            band = _load_json_artifact(out_dir, SURROGATE_JSON, kind=kind, key=key)
            entry.setdefault("surrogates", {})[kind] = band

        roll_csv = ROLLING_CSV.format(key=key)
        roll = RollingHurst.read_csv(
            os.path.join(out_dir, roll_csv), config.rolling_step, config.rolling_window
        )
        entry["rolling"] = {
            "csv": roll_csv,
            "n_windows": len(roll.entries),
            "n_gaps": sum(1 for e in roll.entries if not e.ok),
            "window": roll.window,
            "step": roll.step,
        }
        if config.regimes:
            report.regimes[key] = _load_json_artifact(out_dir, REGIMES_JSON, key=key)

    if config.prices_csv is not None:
        rows = read_regression_table_csv(os.path.join(out_dir, TABLE_CSV))
        report.regression = {
            "rows": rows,
            "fill_policy": config.fill_policy,
            "lag_k": config.lag_k,
            "n_pairs": {row["group"] + "_" + row["flow"]: row["n"] for row in rows},
            "csv": TABLE_CSV,
        }

    return report
