"""Command-line interface: stage tools plus the end-to-end pipeline run."""

from __future__ import annotations

import datetime
import functools
import os
import re

import click
import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it at import, not mid-run

from . import __version__
from .dfa import DfaConfig
from .errors import DfaError, FlowmemError
from .flows import FLOW_TYPES, GROUPS, SIDES, _valid_date
from .pipeline import (
    CONFIG_JSON,
    REPORT_JSON,
    ROLLING_CSV,
    RunConfig,
    _csv_text,
    _json_text,
    _load_run_config,
    _write_text,
    assemble_report,
    ccdf_csv,
    check_varies,
    curve_csv,
    load_config,
    read_panel,
    read_rolling_dir,
    rolling_csv,
    run_pipeline,
    series_key,
    stage_seed,
    static_dfa_table,
    table_csv,
    tail_report,
)
from .rolling import rolling_hurst
from .stats import FILL_POLICIES, read_prices_csv, regression_table
from .surrogate import SURROGATE_KINDS, SurrogateSpec, surrogate_band
from .synth import GENERATOR_KINDS, GENERATORS, GeneratorSpec, generate
from .tails import TAIL_SIDES


class _Main(click.Group):
    """The root group: a FlowmemError from any command is reported as
    `Error: <message>`, and an OSError on a path, such as an output file
    that cannot be written, as `Error: <path>: <reason>`, each with exit
    status 1, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FlowmemError as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            if exc.filename is None:  # such as a closed stdout, which click handles
                raise
            raise click.ClickException(f"{exc.filename}: {exc.strerror}") from exc


def _options(*options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return decorate


def with_series_options(fn):
    """--flows/--series/--group/--flow, handed to the command as one
    `loaded` argument: (calendar, values, label)."""

    @functools.wraps(fn)
    def command(flows, series, group, flow, **kwargs):
        return fn(loaded=_load_series(flows, series, group, flow), **kwargs)

    return _options(
        click.option("--flows", type=click.Path(exists=True)),
        click.option("--series", type=click.Path(exists=True), help="A date,value CSV."),
        click.option("--group", type=click.Choice(GROUPS)),
        click.option("--flow", type=click.Choice(FLOW_TYPES)),
    )(command)


def with_dfa_options(fn):
    """The DfaConfig fields as options, defaulting to the field defaults and
    handed to the command as one `dfa_config` argument. A config that
    DfaConfig rejects is a usage error."""

    @functools.wraps(fn)
    def command(order, n_min, n_max_fraction, n_scales, min_blocks, **kwargs):
        try:
            config = DfaConfig(order, n_min, n_max_fraction, n_scales, min_blocks)
        except DfaError as exc:
            raise click.UsageError(str(exc)) from None
        return fn(dfa_config=config, **kwargs)

    return _options(
        click.option("--order", default=DfaConfig.detrend_order, show_default=True,
                     help="Detrending polynomial order."),
        click.option("--n-min", default=DfaConfig.n_min, show_default=True),
        click.option("--n-max-fraction", default=DfaConfig.n_max_fraction, show_default=True),
        click.option("--n-scales", default=DfaConfig.n_scales, show_default=True),
        click.option("--min-blocks", default=DfaConfig.min_blocks, show_default=True),
    )(command)


def _load_series(flows, series, group, flow):
    """Resolve a series from either a flows CSV or a date,value CSV; a
    series that is one value on every day is an error (`check_varies`)."""
    if (flows is None) == (series is None):
        raise click.UsageError("provide exactly one of --flows or --series")
    if flows is not None:
        if group is None or flow is None:
            raise click.UsageError("--flows requires --group and --flow")
        panel, _ = read_panel(flows)
        key = series_key(group, flow)
        check_varies(f"{flows}: series {key}", panel.series[group, flow])
        return panel.calendar, panel.series[group, flow], key
    calendar, values = read_prices_csv(series, column="value")
    check_varies(f"{series}: column value", values)
    return calendar, values, os.path.basename(series)


def _start_date(_ctx, _param, value: str) -> str:
    if not _valid_date(value):
        raise click.BadParameter(f"{value!r} is not a YYYY-MM-DD date")
    return value


start_date_option = click.option("--start-date", default="2015-01-01", show_default=True,
                                 callback=_start_date)


def _date_range(start: str, n: int) -> list[str]:
    d0 = datetime.date.fromisoformat(start)
    try:
        return [(d0 + datetime.timedelta(days=i)).isoformat() for i in range(n)]
    except OverflowError:
        raise click.BadParameter(f"{n} days from {start} run past the year 9999",
                                 param_hint="'--start-date'") from None


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="flowmem")
def main():
    """Long-memory diagnostics for investor-segregated trading flows."""


@main.command("ingest-check")
@click.argument("flows_csv", type=click.Path(exists=True))
def ingest_check(flows_csv):
    """Parse and aggregate a flows CSV, reporting what it contains."""
    panel, records = read_panel(flows_csv)
    click.echo(f"records: {records}")
    click.echo(f"trading days: {len(panel.calendar)} ({panel.calendar[0]} .. {panel.calendar[-1]})")
    for (group, flow_type), values in sorted(panel.series.items()):
        click.echo(f"{group:14s} {flow_type:4s} total={values.sum():.6g}")


@main.group()
def synth():
    """Seeded synthetic data generators (series, flows, prices)."""


@synth.command("series")
@click.option("--kind", type=click.Choice(GENERATOR_KINDS), required=True)
@click.option("--hurst", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("-n", "--length", "length", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@start_date_option
@click.option("--out", type=click.Path(), required=True)
def synth_series(kind, hurst, alpha, length, seed, start_date, out):
    """One synthetic series as a date,value CSV (plus a .meta.json sidecar)."""
    _check_length(kind, length)
    spec = GeneratorSpec(kind=kind, n=length, seed=seed, hurst=hurst, alpha=alpha)
    values = generate(spec)
    dates = _date_range(start_date, length)
    lines = (f"{d},{v!r}" for d, v in zip(dates, values.tolist()))
    _write_text(out, _csv_text("date,value", lines))
    _write_text(f"{out}.meta.json", _json_text(spec.metadata()))
    click.echo(f"wrote {out} ({length} rows)")


def _check_length(kind, length):
    """A length below the least n of a known kind (GENERATORS) is a usage
    error naming -n."""
    if kind in GENERATORS and length < GENERATORS[kind][2]:
        raise click.BadParameter(f"{kind} needs n >= {GENERATORS[kind][2]}, got {length}.",
                                 param_hint="'-n' / '--length'")


def _parse_group_spec(text):
    m = re.match(rf"^({'|'.join(GROUPS)})=(\w+)(?::(\d+\.?\d*|\.\d+))?$", text)
    if not m:
        raise click.UsageError(
            f"bad group spec {text!r}; expected group=kind[:param], e.g. retail=fgn:0.85"
        )
    group, kind, param = m.groups()
    if kind not in GENERATORS:  # GeneratorSpec names the unknown kind
        return group, kind, {}
    takes = GENERATORS[kind][1]
    if takes is None and param is not None:
        raise click.UsageError(f"{text!r}: {kind} takes no parameter")
    if takes is not None and param is None:
        article = "an" if takes == "alpha" else "a"
        raise click.UsageError(f"{text!r}: {kind} needs {article} {takes} value")
    return group, kind, {takes: float(param)} if takes else {}


@synth.command("flows")
@click.option("--group", "group_specs", multiple=True, required=True,
              help="group=kind[:param], e.g. retail=fgn:0.85. Repeatable.")
@click.option("-n", "--length", "length", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@start_date_option
@click.option("--out", type=click.Path(), required=True)
def synth_flows(group_specs, length, seed, start_date, out):
    """Synthetic wide-format flows CSV; BUY and SELL per group are
    independent draws of the requested process, shifted to be nonnegative
    (a constant shift does not change scaling exponents)."""
    dates = _date_range(start_date, length)
    columns = {}
    meta = {"seed": seed, "groups": {}}
    for text in group_specs:
        group, kind, params = _parse_group_spec(text)
        _check_length(kind, length)
        if group in meta["groups"]:
            raise click.UsageError(f"{text!r}: group {group!r} is given twice")
        for side in SIDES:
            side_seed = stage_seed(seed, f"synth-flows/{group}/{side}")
            spec = GeneratorSpec(kind=kind, n=length, seed=side_seed, **params)
            raw = generate(spec)
            columns[(group, side)] = (raw - raw.min()).tolist()
            meta["groups"].setdefault(group, {})[side] = spec.metadata()
    groups = sorted({g for g, _ in columns})
    rows = [
        f"{date},{group},{columns[group, 'BUY'][i]!r},{columns[group, 'SELL'][i]!r}"
        for i, date in enumerate(dates)
        for group in groups
    ]
    _write_text(out, _csv_text("date,group,buy,sell", rows))
    _write_text(f"{out}.meta.json", _json_text(meta))
    click.echo(f"wrote {out} ({len(rows)} rows)")


@synth.command("prices")
@click.option("-n", "--length", "length", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--daily-vol", type=float, default=0.01, show_default=True)
@start_date_option
@click.option("--out", type=click.Path(), required=True)
def synth_prices(length, seed, daily_vol, start_date, out):
    """Synthetic date,close CSV following a geometric random walk."""
    rng = np.random.Generator(np.random.PCG64(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        closes = 100.0 * np.exp(np.cumsum(daily_vol * rng.standard_normal(length)))
    if not (np.isfinite(closes) & (closes > 0)).all():
        raise click.BadParameter(f"{daily_vol} makes closes that are not positive and finite",
                                 param_hint="'--daily-vol'")
    dates = _date_range(start_date, length)
    lines = (f"{d},{c!r}" for d, c in zip(dates, closes.tolist()))
    _write_text(out, _csv_text("date,close", lines))
    click.echo(f"wrote {out} ({length} rows)")


@main.command()
@with_series_options
@with_dfa_options
@click.option("--include-order1", is_flag=True, help="Also fit with order-1 detrending.")
@click.option("--out-curve", type=click.Path(), default=None)
@click.option("--out-fit", type=click.Path(), default=None)
def dfa(loaded, dfa_config, include_order1, out_curve, out_fit):
    """Static DFA: fluctuation curve and log-log scaling fit."""
    _, values, label = loaded
    fits = static_dfa_table({label: values}, dfa_config, include_order1)[label]
    curve = fits.pop("curve")
    if out_curve:
        _write_text(out_curve, curve_csv(curve))
    if out_fit:
        _write_text(out_fit, _json_text(fits))
    fit = fits["fit"]
    click.echo(
        f"{label}: hurst={fit.hurst:.4f} stderr={fit.slope_stderr:.4f} "
        f"r2={fit.r_squared:.4f} scales={fit.scale_range} points={fit.n_points_used}"
    )


@main.command()
@with_series_options
@click.option("--window", type=click.IntRange(min=2), default=RunConfig.rolling_window,
              show_default=True)
@click.option("--step", type=click.IntRange(min=1), default=RunConfig.rolling_step,
              show_default=True)
@with_dfa_options
@click.option("--out", type=click.Path(), required=True)
def roll(loaded, window, step, dfa_config, out):
    """Rolling-window DFA exponent, written as end_date,H,stderr,r2."""
    calendar, values, label = loaded
    rolled = rolling_hurst(values, calendar, window=window, step=step, config=dfa_config)
    _write_text(out, rolling_csv(rolled))
    n_windows = len(rolled.end_dates)
    gaps = n_windows - rolled.errors.count(None)
    click.echo(f"{label}: {n_windows} windows ({gaps} gaps) -> {out}")


@main.command()
@with_series_options
@click.option("--kind", type=click.Choice(SURROGATE_KINDS), required=True)
@click.option("--count", type=click.IntRange(min=1), default=RunConfig.surrogate_count,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@with_dfa_options
@click.option("--out", type=click.Path(), required=True)
@click.option("--out-values", type=click.Path(), default=None,
              help="Optional CSV of individual surrogate exponents.")
def surrogate(loaded, kind, count, seed, dfa_config, out, out_values):
    """Surrogate null band: DFA exponent distribution over randomized copies."""
    _, values, label = loaded
    band = surrogate_band(values, SurrogateSpec(kind=kind, seed=seed, count=count), dfa_config)
    _write_text(out, _json_text(band))
    if out_values:
        lines = (f"{i},{h!r}" for i, h in enumerate(band.hurst_values))
        _write_text(out_values, _csv_text("surrogate_index,hurst", lines))
    std = "n/a" if band.std is None else f"{band.std:.4f}"
    click.echo(f"{label}: {kind} band mean={band.mean:.4f} std={std} count={count}")


@main.command()
@with_series_options
@click.option("--side", type=click.Choice(TAIL_SIDES), default="upper", show_default=True)
@click.option("--tail-fraction", type=click.FloatRange(0, 1, min_open=True),
              default=RunConfig.tail_fraction, show_default=True)
@click.option("--out-ccdf", type=click.Path(), default=None)
@click.option("--out-fit", type=click.Path(), default=None)
def tails(loaded, side, tail_fraction, out_ccdf, out_fit):
    """Empirical CCDF vs Gaussian reference plus power-law tail fits."""
    _, values, label = loaded
    ccdf, reference, summary = tail_report(values, side, tail_fraction)
    if out_ccdf:
        _write_text(out_ccdf, ccdf_csv(ccdf, reference))
    if out_fit:
        _write_text(out_fit, _json_text(summary))
    for method, fit in summary["fits"].items():
        desc = f"exponent={fit['exponent']:.4f}" if "error" not in fit else fit["error"]
        click.echo(f"{label}: {method} {desc}")
    if summary["methods_disagree"]:
        click.echo(f"{label}: warning: tail fit methods disagree by > 0.3")


@main.command()
@click.option("--roll-dir", type=click.Path(exists=True, file_okay=False), required=True,
              help=f"Directory holding {ROLLING_CSV.format(key='<group>_<flow>')} files.")
@click.option("--prices", type=click.Path(exists=True), required=True)
@click.option("--step", type=click.IntRange(min=1), default=None,
              show_default=f"the run's, else {RunConfig.rolling_step}",
              help="Rolling step in trading days; caps how long forward_fill holds an exponent. "
                   "It is a property of the fig4 files: one that differs from the run's is an error.")
@click.option("--fill", type=click.Choice(FILL_POLICIES), default=None,
              show_default=f"the run's, else {RunConfig.fill_policy}")
@click.option("--lag", type=click.IntRange(min=0), default=None,
              show_default=f"the run's, else {RunConfig.lag_k}")
@click.option("--robust/--no-robust", default=None,
              show_default=f"the run's, else {'--robust' if RunConfig.robust_se else '--no-robust'}")
@click.option("--out", type=click.Path(), required=True)
def regress(roll_dir, prices, step, fill, lag, robust, out):
    """Volatility-on-persistence regressions, one row per rolling series.

    When --roll-dir holds a run's config.json, the run's settings are the
    defaults, so the table reproduces the run's. An explicit --fill, --lag
    or --robust is an analysis choice and is honoured.
    """
    run = RunConfig  # without a config.json, the field defaults
    config_path = os.path.join(roll_dir, CONFIG_JSON)
    if os.path.isfile(config_path):
        run = _load_run_config(config_path)
        if step not in (None, run.rolling_step):
            raise click.BadParameter(
                f"{step} differs from the rolling step {run.rolling_step} of the run in {roll_dir}",
                param_hint="'--step'",
            )
    step = run.rolling_step if step is None else step
    fill = run.fill_policy if fill is None else fill
    lag = run.lag_k if lag is None else lag
    robust = run.robust_se if robust is None else robust
    rolling = read_rolling_dir(roll_dir, step)
    if not rolling:
        raise click.ClickException(f"no {ROLLING_CSV.format(key='*')} files in {roll_dir}")
    rows = regression_table(rolling, read_prices_csv(prices), fill, lag, robust)
    _write_text(out, table_csv(rows))
    for row in rows:
        click.echo(
            f"{row['group']:14s} {row['flow']:4s} beta={row['beta']:+.6f} "
            f"t={row['t_beta']:+.3f}{row['beta_stars']}"
        )


@main.command()
@click.option("--dir", "out_dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", type=click.Path(), default=None,
              help="Where to write the assembled report (default: stdout).")
def report(out_dir, out):
    """Assemble a run report from the stage artifacts in a directory."""
    assembled = assemble_report(out_dir)
    text = assembled.canonical_json()
    if out:
        _write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Run seed override.")
def run(config_path, out, seed):
    """Run the full pipeline: ingest, tails, DFA, surrogates, rolling, regression."""
    config = load_config(config_path, out_dir=out, seed=seed)
    result = run_pipeline(config)
    click.echo(f"report: {os.path.join(config.out_dir, REPORT_JSON)}")
    for key, payload in result.series.items():
        fit = payload["static_dfa"]["fit"]
        shuffled = payload.get("surrogates", {}).get("shuffle")
        null = f" shuffle_mean={shuffled['mean']:.3f}" if shuffled else ""
        click.echo(f"{key:20s} hurst={fit['hurst']:+.4f}{null}")


if __name__ == "__main__":
    main()
