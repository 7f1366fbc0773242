"""Full analysis pipeline: ingest flows, tail diagnostics, static DFA with
surrogate bands, rolling DFA with regime summaries, and the volatility
regressions.

Every stage yields its file artifacts (CSV for plot data, JSON for fits
and summaries) as (name, text) pairs, named from the one `ARTIFACTS`
table, and the run alone writes them into a staging directory; this
module also owns the CSV formats and their readers. The run report ties
the files together with provenance (config hash, seed, derived stage
seeds), and the run is then published whole into the output directory,
or quarantined if a stage failed. Given the same inputs, config and
seed, a rerun is bit-identical: per-series random streams are
pre-derived from stable labels and results are emitted in a fixed
series order. Paths in the config are kept as written
(resolved against the config file's directory only when opened), so the
config hash does not depend on where the tree is checked out.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import shutil
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import numpy.random  # noqa: F401  numpy loads these lazily; load them at import, not mid-run

from . import __version__
from .dfa import DfaConfig, dfa_rows, make_scale_grid
from .errors import DfaError, FlowError, FlowmemError, PipelineError, TailError
from .flows import (
    FLOW_TYPES,
    GROUPS,
    FlowPanel,
    _halves,
    _joined_panel,
    _parse_date,
    _read_cells,
    _SumOverflow,
    _valid_date,
    aggregate_daily,
    increasing,
    read_csv,
    read_flows_csv,
)
from .rolling import RegimeWindow, RollingHurst, regime_summary, rolling_hurst
from .stats import FILL_POLICIES, _paired, read_prices_csv, regression_table
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
                (out.setdefault(block, {}) if block else out)[name] = value
        return out

    def canonical_json(self) -> str:
        """Stable serialization; out_dir and base_dir are runtime-only."""
        return _json_text(self.to_json_dict())

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
    the key, raised before any stage runs. So is a `dfa` block that the
    order-1 cross-check of `dfa.include_order1` cannot use."""
    given = _read(data)
    nested: dict = {}
    for path in [p for p in given if "." in p]:
        owner, name = path.split(".")
        nested.setdefault(owner, {})[name] = given.pop(path)
    for owner, kwargs in nested.items():
        given[owner] = _build(type(getattr(RunConfig, owner)), kwargs, f"{owner}.")
    config = _build(RunConfig, {**given, "base_dir": base_dir}, "")
    if config.dfa_include_order1:  # the DfaConfig that `static_dfa_table` builds
        _build(DfaConfig, {**_fields(config.dfa), "detrend_order": 1}, "dfa.include_order1")
    return config


def load_config(path, out_dir=None, seed=None) -> RunConfig:
    """Parse a JSON config file; CLI flags and FLOWMEM_OUT override it."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PipelineError("config", f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise PipelineError("config", f"{path}: not UTF-8 text") from None
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


def series_key(group: str, flow_type: str) -> str:
    return f"{group}_{flow_type}"


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
# the label of a surrogate band's stage seed, and its key in "stage_seeds"
SURROGATE_SEED = "surrogate/{kind}/{key}"

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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_text(payload) -> str:
    """The text of every JSON file; a dataclass encodes as the object of its fields."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_fields) + "\n"


# The CSV formats. No field the toolkit writes needs quoting (repr'd
# floats, ints, checked dates, group and flow names, stars, empty gap
# fields), so each caller formats its lines with f-strings, and they read
# back through `flows.read_csv`.
def _csv_text(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def ccdf_csv(ccdf, reference) -> str:
    """fig2: `x,p,gaussian_p`, the CCDF beside its Gaussian reference."""
    rows = zip(ccdf.xs.tolist(), ccdf.ps.tolist(), reference.ps.tolist())
    return _csv_text("x,p,gaussian_p", (f"{x!r},{p!r},{g!r}" for x, p, g in rows))


def curve_csv(curve) -> str:
    """fig3: `n,F`, the fluctuation curve."""
    rows = zip(curve.scales.tolist(), curve.values.tolist())
    return _csv_text("n,F", (f"{n},{f!r}" for n, f in rows))


def rolling_csv(roll: RollingHurst) -> str:
    """fig4: `end_date,H,stderr,r2`; a gap row keeps its date, fields empty."""
    columns = (roll.hurst.tolist(), roll.stderr.tolist(), roll.r_squared.tolist())
    return _csv_text("end_date,H,stderr,r2", (
        f"{d},{h!r},{s!r},{r!r}" if e is None else f"{d},,,"
        for d, h, s, r, e in zip(roll.end_dates, *columns, roll.errors)
    ))


def read_rolling_csv(path, step: int) -> RollingHurst:
    """The RollingHurst a `rolling_csv` file holds, whose end dates must be
    real calendar dates that strictly increase. The file does not hold the
    window length, n_points_used or a gap's reason, so those come back as
    None, 0 and "gap"."""

    def window_row(_header, _line, row):
        date, h, stderr, r2 = row
        end_date = _parse_date(date)
        if not h:
            return end_date, math.nan, math.nan, math.nan, 0, "gap"
        return end_date, float(h), float(stderr), float(r2), 0, None

    header = ("end_date", "H", "stderr", "r2")
    rows = read_csv(path, (header,), increasing(window_row), FlowmemError)
    return RollingHurst.from_rows(rows, None, step)


def table_csv(rows) -> str:
    """table 1: one line per `regression_table` row, in its key order (the
    str of its floats is their repr)."""
    return _csv_text(",".join(rows[0]), (",".join(map(str, row.values())) for row in rows))


_TEXT_COLUMNS = ("group", "flow", "alpha_stars", "beta_stars")
# a `regression_table` row's columns; robust t-values add two more
_TABLE_HEADER = (
    "group", "flow", "alpha", "t_alpha", "alpha_stars", "beta", "t_beta", "beta_stars",
    "r_squared", "n",
)


def _table_row(header, _line, row) -> dict:
    return {
        k: v if k in _TEXT_COLUMNS else int(v) if k == "n" else float(v)
        for k, v in zip(header, row)
    }


def read_table_csv(path) -> list[dict]:
    """The rows a `table_csv` file holds, with their types restored."""
    headers = (_TABLE_HEADER, (*_TABLE_HEADER, "t_alpha_robust", "t_beta_robust"))
    return list(read_csv(path, headers, _table_row, FlowmemError))


@dataclass
class RunReport:
    provenance: dict
    series: dict
    regimes: dict
    regression: dict | None
    artifacts: list[str]  # sorted

    def canonical_json(self) -> str:
        return _json_text(self)


class _Run:
    """One pipeline execution: its config, the staging directory its files
    are written into, the inputs ingest reads for the other stages, the
    rolling stage's exponents for the regression, and the queue of
    surrogate bands its two processes share."""

    def __init__(self, config: RunConfig, staging: str):
        self.config = config
        self.staging = staging
        self.panel: FlowPanel | None = None
        self.prices: tuple | None = None  # (calendar, closes), with a prices file
        self.rolling: dict = {}  # {(group, flow): RollingHurst}
        self.queue: int | None = None  # the surrogate band queue's read end (`run_pipeline`)
        self.report: RunReport | None = None


# from this size on a flows file is read in two halves (see `read_panel`)
SPLIT_MIN_BYTES = 3_000_000


def read_panel(path) -> tuple[FlowPanel, int]:
    """The panel of a flows CSV and its record count (a wide row counts 2),
    as `aggregate_daily(read_flows_csv(path))` reads them.

    The file is read by raw tokens (`_read_raw`): below SPLIT_MIN_BYTES in
    this process, and from that size on in two halves, the second beside
    this process (`_beside`, a forked worker where a fork succeeds).
    Anything the raw read cannot judge alone (a quote, a lone CR, a bad
    row, amount or token, a repeated wide row) sends the file to
    `read_flows_csv`, which raises the error naming its line. Each cell is
    summed with math.fsum, so the panel does not depend on the split; a
    cell that sums past the float range is a FlowError naming the file
    and the cell.
    """
    try:
        read = _read_raw(path)
        if read is not None:
            return read
        seen = itertools.count()
        # zip stops on the exhausted reader before it draws from `seen`
        panel = aggregate_daily(record for record, _ in zip(read_flows_csv(path), seen))
        return panel, next(seen)
    except _SumOverflow as exc:
        raise FlowError(f"{path}: {exc}") from None


def _read_raw(path) -> tuple[FlowPanel, int] | None:
    layout = _halves(path)
    if layout is None:
        return None
    header, (first, second) = layout
    if second[1] < SPLIT_MIN_BYTES:
        reads = [_read_cells(path, header, first[0], second[1])]
    else:
        mine, (theirs, error) = _beside(
            lambda: _read_cells(path, header, *second),
            lambda: _read_cells(path, header, *first),
            useless=lambda mine: mine is None,
        )
        if mine is not None and error is not None:
            raise error
        reads = [mine, theirs]
    return None if None in reads else _joined_panel(header, reads)


def _stage_ingest(run: _Run):
    config = run.config
    path = config.resolve(config.flows_csv)
    run.panel, _ = read_panel(path)
    # a DFA grid for the series and for one window, and a series one window long
    length, window = len(run.panel.calendar), config.rolling_window
    window_key = "config key 'rolling.window'"
    for where, size in ((path, length), (window_key, window)):
        try:
            make_scale_grid(size, config.dfa)
        except DfaError as exc:
            raise PipelineError("ingest", f"{where}: {exc}") from None
    if length < window:
        raise PipelineError("ingest", f"{path}: length {length} < {window_key} = {window}")
    for (group, flow_type), values in run.panel.series.items():
        check_varies(f"{path}: series {series_key(group, flow_type)}", values)
    return ()  # no file


def check_varies(name: str, values) -> None:
    """Reject a series that is one value on every day, naming it: it has no
    fluctuation for a DFA to fit, nor a tail. The rule of `run`'s ingest and
    of the stage commands."""
    if values.min() == values.max():
        raise FlowError(f"{name} is {float(values[0])} on every day")


def _stage_prices(run: _Run):
    """The rest of ingest, read at the head of the parent's lane after the
    fork: the prices file, if any. Its errors are ingest's, and so are a
    file of fewer than the 2 prices a return needs and one whose dates
    leave the regression fewer than 3 pairs, or pairs from one window."""
    config = run.config
    if config.prices_csv is not None:
        path = config.resolve(config.prices_csv)
        try:
            run.prices = read_prices_csv(path)
        except Exception as exc:
            raise _stage_error("ingest", exc)
        if (count := len(run.prices[0])) < 2:
            raise PipelineError("ingest", f"{path}: need at least 2 prices, got {count}")
        # the window of each regression pair, as `regression_table` pairs the
        # rolling end dates with the days of the returns
        window, step, lag = config.rolling_window, config.rolling_step, config.lag_k
        ends = run.panel.calendar[window - 1 :: step]
        _, windows = _paired(ends, step, run.prices[0][1:], config.fill_policy)
        windows = windows[: max(windows.size - lag, 0)].tolist()
        if len(windows) < 3 or windows[0] == windows[-1]:
            got = f"{len(windows)} regression pairs from {len(set(windows))} rolling windows"
            keys = f"'rolling.window' = {window}, 'rolling.step' = {step}, 'regression.lag_k' = {lag}"
            needs = "a fit needs 3 pairs from 2 windows"
            raise PipelineError("ingest", f"{path}: {got} (config keys {keys}); {needs}")
    return ()  # no file


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
            fits[method] = _fields(
                fit_tail_exponent(plotted, tail_fraction=tail_fraction, method=method)
            )
        except TailError as exc:
            fits[method] = {"error": str(exc)}
    disagree = None
    if "error" not in fits["ccdf_ols"] and "error" not in fits["hill"]:
        disagree = bool(
            abs(fits["ccdf_ols"]["exponent"] - fits["hill"]["exponent"]) > 0.3
        )
    return ccdf, reference, {"side": side, "fits": fits, "methods_disagree": disagree}


def _stage_tails(run: _Run):
    config = run.config
    for (group, flow_type), values in run.panel.series.items():
        side = config.tail_net_side if flow_type == "NET" else "upper"
        ccdf, reference, summary = tail_report(values, side, config.tail_fraction)
        key = series_key(group, flow_type)
        yield CCDF_CSV.format(key=key), ccdf_csv(ccdf, reference)
        yield TAILS_JSON.format(key=key), _json_text(summary)


def static_dfa_table(series: dict, config: DfaConfig, include_order1: bool = False) -> dict:
    """Static DFA of every series of a {key: values} mapping of one length:
    {key: {"curve", "fit"[, "fit_order1"]}}, from one `dfa_rows` call per
    detrend order. The first failing series' error is raised, prefixed by its key.

    The dict less "curve" is the dfa_fit artifact's content: "fit" and,
    when include_order1 is set, the order-1 cross-check "fit_order1".
    """
    rows = np.stack(list(series.values()))
    orders = {"fit": dfa_rows(rows, config)}
    if include_order1:
        orders["fit_order1"] = dfa_rows(rows, replace(config, detrend_order=1))
    table = {}
    for key, *results in zip(series, *orders.values()):
        for result in results:
            if isinstance(result, DfaError):
                raise DfaError(f"{key}: {result}")
        fits = {name: fit for name, (_, fit) in zip(orders, results)}
        table[key] = {"curve": results[0][0], **fits}
    return table


def _stage_static_dfa(run: _Run):
    series = {series_key(*pair): values for pair, values in run.panel.series.items()}
    table = static_dfa_table(series, run.config.dfa, run.config.dfa_include_order1)
    for key, entry in table.items():
        yield CURVE_CSV.format(key=key), curve_csv(entry.pop("curve"))
        yield DFA_FIT_JSON.format(key=key), _json_text(entry)


def _stage_surrogates(run: _Run):
    """One band file per (series, kind), in that order, for the bands this
    process takes from the run's queue, one at a time. A failing band's
    exception carries the band's index as `band`, and the rest of the
    queue is drained first, so that the other process starts no more
    bands."""
    config = run.config
    bands = [
        (series_key(group, flow_type), kind, values)
        for (group, flow_type), values in run.panel.series.items()
        for kind in config.surrogate_kinds
    ]
    for index in _taken(run.queue):
        key, kind, values = bands[index]
        try:
            seed = stage_seed(config.seed, SURROGATE_SEED.format(kind=kind, key=key))
            spec = SurrogateSpec(kind=kind, seed=seed, count=config.surrogate_count)
            text = _json_text(surrogate_band(values, spec, config.dfa))
        except BaseException as exc:
            exc.band = index
            for _ in _taken(run.queue):
                pass
            raise
        yield SURROGATE_JSON.format(kind=kind, key=key), text


def _taken(queue: int):
    """Band indices taken from a queue's read end, one byte each, until it
    is empty; each index goes to exactly one of the processes reading it."""
    while token := os.read(queue, 1):
        yield token[0]


def _stage_rolling(run: _Run):
    config = run.config
    for (group, flow_type), values in run.panel.series.items():
        roll = rolling_hurst(
            values,
            run.panel.calendar,
            window=config.rolling_window,
            step=config.rolling_step,
            config=config.dfa,
        )
        run.rolling[group, flow_type] = roll
        key = series_key(group, flow_type)
        yield ROLLING_CSV.format(key=key), rolling_csv(roll)
        if config.regimes:
            yield REGIMES_JSON.format(key=key), _json_text(regime_summary(roll, config.regimes))


def read_rolling_dir(directory, step: int) -> dict:
    """{(group, flow): RollingHurst} of the fig4 files in `directory`, in
    series order, as `flowmem regress` reads them; a series without a file
    is left out."""
    rolling = {}
    for group, flow in itertools.product(GROUPS, FLOW_TYPES):
        path = os.path.join(directory, ROLLING_CSV.format(key=series_key(group, flow)))
        if os.path.isfile(path):
            rolling[group, flow] = read_rolling_csv(path, step)
    return rolling


def _stage_regression(run: _Run):
    config = run.config
    if run.prices is not None:
        rows = regression_table(run.rolling, run.prices, config.fill_policy, config.lag_k, config.robust_se)
        yield TABLE_CSV, table_csv(rows)


def _stage_report(run: _Run):
    config = run.config
    kinds = config.surrogate_kinds
    labels = [SURROGATE_SEED.format(kind=kind, key=key) for key in SERIES_KEYS for kind in kinds]
    provenance = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "version": __version__,
        "rng": RNG_NAME,
        "stage_seeds": {label: stage_seed(config.seed, label) for label in labels},
    }
    yield CONFIG_JSON, config.canonical_json()
    yield PROVENANCE_JSON, _json_text(provenance)
    # `_write` wrote each file before asking for the next one
    run.report = assemble_report(run.staging)
    yield REPORT_JSON, run.report.canonical_json()


# The stages by name, in the order that picks the earliest failed one, and
# `_lane` runs them. "prices" is the rest of ingest, read after the fork
# (`run_pipeline`), and fails as stage 'ingest'.
_STAGES = {
    "ingest": _stage_ingest,
    "prices": _stage_prices,
    "tails": _stage_tails,
    "static_dfa": _stage_static_dfa,
    "surrogates": _stage_surrogates,
    "rolling": _stage_rolling,
    "regression": _stage_regression,
    "report": _stage_report,
}


_SURROGATES = list(_STAGES).index("surrogates")


def _serial_order(error: PipelineError) -> tuple[int, int]:
    """Where `error` stands in a serial run: its stage, and in the surrogate
    stage its band, a worker that died (no band) first."""
    return list(_STAGES).index(error.stage), getattr(error.__cause__, "band", -1)


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute every stage, publish the run's artifacts, return its report.

    Each file a stage yields is written into `<out_dir>/.staging/`,
    cleared first of anything a killed run left, by `_write` alone. After
    the flows are read, the surrogate bands go into a queue, one byte per
    band in an os.pipe, and a worker (`_beside`, a forked process where a
    fork succeeds) takes bands from it while this process reads the prices
    and runs the tails, static DFA, rolling and regression stages, then
    takes the bands that are left; each band is taken once. One hand-off
    rule holds: inside a process, stages pass values on `_Run` (the panel,
    the prices, the rolling exponents the regression takes); between
    processes, the worker passes back its files' text, which this process
    writes, so a worker orphaned by a killed run cannot write anything at
    all; the report is built from the staged files, as `assemble_report`
    rebuilds it later. A stage moved into the worker's lane takes its
    inputs from files. A failure in this process before the surrogate
    stage's place in `_STAGES` kills the worker, whose result could not
    matter. `_publish` then moves the staged files to the top level or, on
    any exception in a stage, to `quarantine/`, and a PipelineError names
    the earliest failed stage in `_STAGES` order, and in the surrogate
    stage the earliest failed band, as a serial run would; an error from
    outside the toolkit keeps its type name in the message.
    """
    out_dir = config.out_dir
    if not out_dir:
        raise PipelineError("config", "no output directory configured")
    staging = os.path.join(out_dir, STAGING_DIR)
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    run = _Run(config, staging)
    try:
        if failed := _lane(run, ["ingest"]):
            raise failed
        run.queue, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as queue:
                queue.write(bytes(range(len(run.panel.series) * len(config.surrogate_kinds))))
            failed, (files, error) = _beside(
                lambda: list(_stage_surrogates(run)),
                lambda: _lane(
                    run, ["prices", "tails", "static_dfa", "rolling", "regression", "surrogates"]
                ),
                useless=lambda failed: failed and _serial_order(failed)[0] < _SURROGATES,
            )
        finally:
            os.close(run.queue)
        if error is None:
            try:
                _write(run, files)
            except OSError as exc:
                error = exc
        errors = [failed, None if error is None else _stage_error("surrogates", error)]
        if any(errors):
            raise min(filter(None, errors), key=_serial_order)
        if failed := _lane(run, ["report"]):
            raise failed
    except BaseException:
        _publish(out_dir, os.listdir(staging), os.path.join(out_dir, QUARANTINE_DIR))
        raise
    _publish(out_dir, run.report.artifacts, out_dir)
    return run.report


def _lane(run: _Run, names) -> PipelineError | None:
    """Run the stages `names` in turn, writing each one's files; stop at
    the first that fails and return its PipelineError, else None."""
    for name in names:
        try:
            _write(run, _STAGES[name](run))
        except Exception as exc:
            return _stage_error(name, exc)
    return None


def _write(run: _Run, files) -> None:
    """Write each (file name, text) pair into the run's staging directory."""
    for name, text in files:
        _write_text(os.path.join(run.staging, name), text)


def _stage_error(name: str, exc: BaseException) -> PipelineError:
    """The error a run raises when stage `name` fails with `exc`: exc itself
    if it is a PipelineError, else one naming the stage, caused by exc."""
    if isinstance(exc, PipelineError):
        return exc
    known = isinstance(exc, (FlowmemError, OSError))
    error = PipelineError(name, str(exc) if known else f"{type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


def _beside(theirs, mine, useless=lambda value: False) -> tuple:
    """`theirs()` run beside `mine()`: in a forked worker process while
    `mine()` runs here, or first and inline where os.fork is missing or
    fails. Returns (mine's value, (theirs' value, None)), or (mine's value,
    (None, error)) with the exception theirs raised; an exception mine
    raises is raised. The worker is reaped before this returns or raises,
    and killed first when mine raises or `useless(mine's value)` is true.

    The worker sends its value or exception back pickled over a pipe and
    ends with os._exit whatever happens, so it never returns into the
    caller's frames; an interrupt or exit inside theirs is its error. An
    exception that does not come back whole from pickle comes back as a
    FlowmemError naming its type and message. A worker that ends without
    a result, killed or out of memory, is a ChildProcessError naming its
    exit status or signal.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork, or no process to spare
        os.close(read_end)
        os.close(write_end)
        try:
            outcome = (theirs(), None)
        except Exception as exc:
            outcome = (None, exc)
        return mine(), outcome
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(_outcome(theirs))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        try:
            value = mine()
            if useless(value):
                _kill(pid)
            data = pipe.read()
        except BaseException:
            _kill(pid)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return value, (None, ChildProcessError(f"worker process ended without a result ({ended})"))
    return value, pickle.loads(data)


def _outcome(fn) -> bytes:
    try:
        return pickle.dumps((fn(), None))
    except BaseException as exc:
        try:
            data = pickle.dumps((None, exc))
            pickle.loads(data)
        except Exception:
            data = pickle.dumps((None, FlowmemError(f"{type(exc).__name__}: {exc}")))
        return data


def _kill(pid: int) -> None:
    import signal  # loaded only when a worker is stopped

    os.kill(pid, signal.SIGKILL)


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


def _load_json_artifact(path) -> dict:
    """A JSON artifact's content; a malformed one raises a FlowmemError
    naming the file and where it does not parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FlowmemError(f"malformed artifact {path}: {exc}") from None
    except UnicodeDecodeError:
        raise FlowmemError(f"malformed artifact {path}: not UTF-8 text") from None


def _load_run_config(path) -> RunConfig:
    """The RunConfig of a run directory's config.json; a malformed file or
    a bad value in it raises a FlowmemError naming the file."""
    try:
        return config_from_json_dict(_load_json_artifact(path), base_dir=os.path.dirname(path))
    except PipelineError as exc:
        raise FlowmemError(f"{path}: {exc.message}") from None


def _report_input(out_dir: str, template: str, load=_load_json_artifact, **names):
    """A JSON artifact of a run directory, as `assemble_report` reads it
    with `load`: a missing or malformed one is an error of stage 'report'."""
    path = os.path.join(out_dir, template.format(**names))
    if not os.path.exists(path):
        raise PipelineError("report", f"missing artifact: {os.path.basename(path)}")
    try:
        return load(path)
    except FlowmemError as exc:
        raise PipelineError("report", str(exc)) from None


def assemble_report(out_dir: str) -> RunReport:
    """Build the run report from the stage artifacts in a directory.

    This is the only report builder: `run_pipeline` calls it on the
    artifacts it just staged, and `flowmem report` on any finished run
    directory. The report lists every name `artifact_names` gives for the
    run's config; a missing or malformed one raises a stage-labeled error
    naming it.
    """
    config = _report_input(out_dir, CONFIG_JSON, _load_run_config)
    artifacts = artifact_names(config)
    missing = [
        name for name in artifacts
        if name != REPORT_JSON and not os.path.exists(os.path.join(out_dir, name))
    ]
    if missing:
        raise PipelineError("report", f"missing artifact: {', '.join(missing)}")
    report = RunReport(
        provenance=_report_input(out_dir, PROVENANCE_JSON),
        series={},
        regimes={},
        regression=None,
        artifacts=sorted(artifacts),
    )

    for key in SERIES_KEYS:
        ccdf_csv, curve_csv = CCDF_CSV.format(key=key), CURVE_CSV.format(key=key)
        tails = _report_input(out_dir, TAILS_JSON, key=key)
        static = _report_input(out_dir, DFA_FIT_JSON, key=key)
        entry = report.series[key] = {
            "tails": dict(tails, ccdf_csv=ccdf_csv),
            "static_dfa": dict(static, curve_csv=curve_csv),
        }
        for kind in config.surrogate_kinds:
            band = _report_input(out_dir, SURROGATE_JSON, kind=kind, key=key)
            entry.setdefault("surrogates", {})[kind] = band

        roll_csv = ROLLING_CSV.format(key=key)
        roll = read_rolling_csv(os.path.join(out_dir, roll_csv), config.rolling_step)
        entry["rolling"] = {
            "csv": roll_csv,
            "n_windows": len(roll.errors),
            "n_gaps": len(roll.errors) - roll.errors.count(None),
            "window": config.rolling_window,
            "step": config.rolling_step,
        }
        if config.regimes:
            report.regimes[key] = _report_input(out_dir, REGIMES_JSON, key=key)

    if config.prices_csv is not None:
        rows = read_table_csv(os.path.join(out_dir, TABLE_CSV))
        report.regression = {
            "rows": rows,
            "fill_policy": config.fill_policy,
            "lag_k": config.lag_k,
            "n_pairs": {series_key(row["group"], row["flow"]): row["n"] for row in rows},
            "csv": TABLE_CSV,
        }

    return report
