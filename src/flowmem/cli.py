"""Command-line interface: stage tools plus the end-to-end pipeline run."""

from __future__ import annotations

import csv
import datetime
import os
import re

import click
import numpy as np

from . import __version__
from .dfa import DfaConfig, fit_hurst, fluctuation, make_scale_grid, profile
from .errors import FlowmemError
from .flows import Group, aggregate_daily, extract_series, read_flows_csv, write_flows_csv
from .pipeline import (
    _ccdf_with_reference_text,
    _json_text,
    _write_text,
    assemble_report,
    load_config,
    run_pipeline,
    stage_seed,
    tail_report,
)
from .rolling import RollingEntry, RollingHurst, rolling_hurst
from .stats import (
    align_h_rv,
    ols,
    read_prices_csv,
    regression_table_rows,
    returns_from_prices,
    squared_return_vol,
    write_regression_table_csv,
)
from .surrogate import SurrogateSpec, surrogate_band
from .synth import GeneratorSpec, generate


def _fail(exc: FlowmemError):
    raise click.ClickException(str(exc))


dfa_options = [
    click.option("--order", default=2, show_default=True, help="Detrending polynomial order."),
    click.option("--n-min", default=5, show_default=True),
    click.option("--n-max-fraction", default=0.25, show_default=True),
    click.option("--n-scales", default=20, show_default=True),
    click.option("--min-blocks", default=4, show_default=True),
]


def with_dfa_options(fn):
    for opt in reversed(dfa_options):
        fn = opt(fn)
    return fn


def _dfa_config(order, n_min, n_max_fraction, n_scales, min_blocks) -> DfaConfig:
    return DfaConfig(
        detrend_order=order,
        n_min=n_min,
        n_max_fraction=n_max_fraction,
        n_scales=n_scales,
        min_blocks=min_blocks,
    )


def _load_series(flows, series, group, flow):
    """Resolve a series from either a flows CSV or a date,value CSV."""
    if (flows is None) == (series is None):
        raise click.UsageError("provide exactly one of --flows or --series")
    if flows is not None:
        if group is None or flow is None:
            raise click.UsageError("--flows requires --group and --flow")
        panel = aggregate_daily(read_flows_csv(flows))
        labeled = extract_series(panel, group, flow)
        return labeled.calendar, labeled.values, f"{group}_{flow}"
    dates, values = [], []
    with open(series, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != ("date", "value"):
            raise click.ClickException(f"{series}: expected header date,value")
        for row in reader:
            if row:
                dates.append(row[0])
                values.append(float(row[1]))
    return tuple(dates), np.asarray(values), os.path.basename(series)


def _date_range(start: str, n: int) -> list[str]:
    d0 = datetime.date.fromisoformat(start)
    return [(d0 + datetime.timedelta(days=i)).isoformat() for i in range(n)]


@click.group()
@click.version_option(version=__version__, prog_name="flowmem")
def main():
    """Long-memory diagnostics for investor-segregated trading flows."""


@main.command("ingest-check")
@click.argument("flows_csv", type=click.Path(exists=True))
def ingest_check(flows_csv):
    """Parse and aggregate a flows CSV, reporting what it contains."""
    try:
        records = read_flows_csv(flows_csv)
        panel = aggregate_daily(records)
    except FlowmemError as exc:
        _fail(exc)
    click.echo(f"records: {len(records)}")
    click.echo(f"trading days: {len(panel.calendar)} ({panel.calendar[0]} .. {panel.calendar[-1]})")
    for (group, flow_type), values in sorted(
        panel.series.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        click.echo(f"{group.value:14s} {flow_type.value:4s} total={values.sum():.6g}")


@main.group()
def synth():
    """Seeded synthetic data generators (series, flows, prices)."""


@synth.command("series")
@click.option("--kind", type=click.Choice(["fgn", "fbm_increments_cumsum", "iid_gaussian", "pareto"]), required=True)
@click.option("--hurst", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("-n", "--length", "length", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--start-date", default="2015-01-01", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def synth_series(kind, hurst, alpha, length, seed, start_date, out):
    """One synthetic series as a date,value CSV (plus a .meta.json sidecar)."""
    try:
        spec = GeneratorSpec(kind=kind, n=length, seed=seed, hurst=hurst, alpha=alpha)
        values = generate(spec)
    except FlowmemError as exc:
        _fail(exc)
    dates = _date_range(start_date, length)
    lines = ["date,value"] + [f"{d},{float(v)!r}" for d, v in zip(dates, values)]
    _write_text(out, "\n".join(lines) + "\n")
    _write_text(f"{out}.meta.json", _json_text(spec.metadata()))
    click.echo(f"wrote {out} ({length} rows)")


def _parse_group_spec(text):
    m = re.match(r"^(retail|institutional|foreign)=(\w+)(?::([0-9.]+))?$", text)
    if not m:
        raise click.UsageError(
            f"bad group spec {text!r}; expected group=kind[:param], e.g. retail=fgn:0.85"
        )
    group, kind, param = m.group(1), m.group(2), m.group(3)
    hurst = alpha = None
    if kind in ("fgn", "fbm_increments_cumsum"):
        if param is None:
            raise click.UsageError(f"{text!r}: {kind} needs a hurst value")
        hurst = float(param)
    elif kind == "pareto":
        if param is None:
            raise click.UsageError(f"{text!r}: pareto needs an alpha value")
        alpha = float(param)
    return group, kind, hurst, alpha


@synth.command("flows")
@click.option("--group", "group_specs", multiple=True, required=True,
              help="group=kind[:param], e.g. retail=fgn:0.85. Repeatable.")
@click.option("-n", "--length", "length", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--start-date", default="2015-01-01", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def synth_flows(group_specs, length, seed, start_date, out):
    """Synthetic wide-format flows CSV; BUY and SELL per group are
    independent draws of the requested process, shifted to be nonnegative
    (a constant shift does not change scaling exponents)."""
    dates = _date_range(start_date, length)
    columns = {}
    meta = {"seed": seed, "groups": {}}
    try:
        for text in group_specs:
            group, kind, hurst, alpha = _parse_group_spec(text)
            for side in ("BUY", "SELL"):
                side_seed = stage_seed(seed, f"synth-flows/{group}/{side}")
                spec = GeneratorSpec(kind=kind, n=length, seed=side_seed, hurst=hurst, alpha=alpha)
                raw = generate(spec)
                columns[(group, side)] = raw - raw.min()
                meta["groups"].setdefault(group, {})[side] = spec.metadata()
    except FlowmemError as exc:
        _fail(exc)
    rows = []
    for i, date in enumerate(dates):
        for group in sorted({g for g, _ in columns}):
            rows.append(
                (date, group, columns[(group, "BUY")][i], columns[(group, "SELL")][i])
            )
    write_flows_csv(out, rows)
    _write_text(f"{out}.meta.json", _json_text(meta))
    click.echo(f"wrote {out} ({len(rows)} rows)")


@synth.command("prices")
@click.option("-n", "--length", "length", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--daily-vol", type=float, default=0.01, show_default=True)
@click.option("--start-date", default="2015-01-01", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def synth_prices(length, seed, daily_vol, start_date, out):
    """Synthetic date,close CSV following a geometric random walk."""
    rng = np.random.Generator(np.random.PCG64(seed))
    closes = 100.0 * np.exp(np.cumsum(daily_vol * rng.standard_normal(length)))
    dates = _date_range(start_date, length)
    lines = ["date,close"] + [f"{d},{float(c)!r}" for d, c in zip(dates, closes)]
    _write_text(out, "\n".join(lines) + "\n")
    click.echo(f"wrote {out} ({length} rows)")


@main.command()
@click.option("--flows", type=click.Path(exists=True))
@click.option("--series", type=click.Path(exists=True))
@click.option("--group", type=click.Choice([g.value for g in Group]))
@click.option("--flow", type=click.Choice(["BUY", "SELL", "NET"]))
@with_dfa_options
@click.option("--include-order1", is_flag=True, help="Also fit with order-1 detrending.")
@click.option("--out-curve", type=click.Path(), default=None)
@click.option("--out-fit", type=click.Path(), default=None)
def dfa(flows, series, group, flow, order, n_min, n_max_fraction, n_scales,
        min_blocks, include_order1, out_curve, out_fit):
    """Static DFA: fluctuation curve and log-log scaling fit."""
    try:
        _, values, label = _load_series(flows, series, group, flow)
        config = _dfa_config(order, n_min, n_max_fraction, n_scales, min_blocks)
        prof = profile(values)
        scales = make_scale_grid(prof.size, config)
        curve = fluctuation(prof, scales, config.detrend_order)
        fit = fit_hurst(curve)
        payload = {"fit": fit.to_json_dict()}
        if include_order1:
            payload["fit_order1"] = fit_hurst(fluctuation(prof, scales, 1)).to_json_dict()
    except FlowmemError as exc:
        _fail(exc)
    if out_curve:
        curve.write_csv(out_curve)
    if out_fit:
        _write_text(out_fit, _json_text(payload))
    click.echo(
        f"{label}: hurst={fit.hurst:.4f} stderr={fit.slope_stderr:.4f} "
        f"r2={fit.r_squared:.4f} scales={fit.scale_range} points={fit.n_points_used}"
    )


@main.command()
@click.option("--flows", type=click.Path(exists=True))
@click.option("--series", type=click.Path(exists=True))
@click.option("--group", type=click.Choice([g.value for g in Group]))
@click.option("--flow", type=click.Choice(["BUY", "SELL", "NET"]))
@click.option("--window", default=250, show_default=True)
@click.option("--step", default=5, show_default=True)
@with_dfa_options
@click.option("--out", type=click.Path(), required=True)
def roll(flows, series, group, flow, window, step, order, n_min, n_max_fraction,
         n_scales, min_blocks, out):
    """Rolling-window DFA exponent, written as end_date,H,stderr,r2."""
    try:
        calendar, values, label = _load_series(flows, series, group, flow)
        config = _dfa_config(order, n_min, n_max_fraction, n_scales, min_blocks)
        rolled = rolling_hurst(values, calendar, window=window, step=step, config=config)
    except FlowmemError as exc:
        _fail(exc)
    rolled.write_csv(out)
    ok = rolled.hurst_values()
    gaps = len(rolled.entries) - ok.size
    click.echo(f"{label}: {len(rolled.entries)} windows ({gaps} gaps) -> {out}")


@main.command()
@click.option("--flows", type=click.Path(exists=True))
@click.option("--series", type=click.Path(exists=True))
@click.option("--group", type=click.Choice([g.value for g in Group]))
@click.option("--flow", type=click.Choice(["BUY", "SELL", "NET"]))
@click.option("--kind", type=click.Choice(["shuffle", "phase_randomize"]), required=True)
@click.option("--count", default=20, show_default=True)
@click.option("--seed", type=int, required=True)
@with_dfa_options
@click.option("--out", type=click.Path(), required=True)
@click.option("--out-values", type=click.Path(), default=None,
              help="Optional CSV of individual surrogate exponents.")
def surrogate(flows, series, group, flow, kind, count, seed, order, n_min,
              n_max_fraction, n_scales, min_blocks, out, out_values):
    """Surrogate null band: DFA exponent distribution over randomized copies."""
    try:
        _, values, label = _load_series(flows, series, group, flow)
        config = _dfa_config(order, n_min, n_max_fraction, n_scales, min_blocks)
        band = surrogate_band(values, SurrogateSpec(kind=kind, seed=seed, count=count), config)
    except FlowmemError as exc:
        _fail(exc)
    band.write_json(out)
    if out_values:
        band.write_values_csv(out_values)
    std = "n/a" if band.std is None else f"{band.std:.4f}"
    click.echo(f"{label}: {kind} band mean={band.mean:.4f} std={std} count={count}")


@main.command()
@click.option("--flows", type=click.Path(exists=True))
@click.option("--series", type=click.Path(exists=True))
@click.option("--group", type=click.Choice([g.value for g in Group]))
@click.option("--flow", type=click.Choice(["BUY", "SELL", "NET"]))
@click.option("--side", type=click.Choice(["upper", "absolute"]), default="upper",
              show_default=True)
@click.option("--tail-fraction", default=0.05, show_default=True)
@click.option("--out-ccdf", type=click.Path(), default=None)
@click.option("--out-fit", type=click.Path(), default=None)
def tails(flows, series, group, flow, side, tail_fraction, out_ccdf, out_fit):
    """Empirical CCDF vs Gaussian reference plus power-law tail fits."""
    try:
        _, values, label = _load_series(flows, series, group, flow)
        ccdf, reference, summary = tail_report(values, side, tail_fraction)
    except FlowmemError as exc:
        _fail(exc)
    if out_ccdf:
        _write_text(out_ccdf, _ccdf_with_reference_text(ccdf, reference))
    if out_fit:
        _write_text(out_fit, _json_text(summary))
    for method, fit in summary["fits"].items():
        desc = f"exponent={fit['exponent']:.4f}" if "error" not in fit else fit["error"]
        click.echo(f"{label}: {method} {desc}")
    if summary["methods_disagree"]:
        click.echo(f"{label}: warning: tail fit methods disagree by > 0.3")


_ROLL_CSV_RE = re.compile(r"^fig4_rolling_(retail|institutional|foreign)_(BUY|SELL|NET)\.csv$")


def _read_rolling_csv(path, window, step):
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["H"] == "":
                entries.append(RollingEntry(row["end_date"], None, None, None, 0, False, "gap"))
            else:
                entries.append(
                    RollingEntry(
                        row["end_date"], float(row["H"]), float(row["stderr"]),
                        float(row["r2"]), 0, True,
                    )
                )
    return RollingHurst(entries=tuple(entries), window=window, step=step)


@main.command()
@click.option("--roll-dir", type=click.Path(exists=True, file_okay=False), required=True,
              help="Directory holding fig4_rolling_<group>_<flow>.csv files.")
@click.option("--prices", type=click.Path(exists=True), required=True)
@click.option("--window", default=250, show_default=True)
@click.option("--step", default=5, show_default=True)
@click.option("--fill", type=click.Choice(["forward_fill", "step_dates_only"]),
              default="forward_fill", show_default=True)
@click.option("--lag", default=0, show_default=True)
@click.option("--robust/--no-robust", default=True, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def regress(roll_dir, prices, window, step, fill, lag, robust, out):
    """Volatility-on-persistence regressions, one row per rolling series."""
    present = {n for n in os.listdir(roll_dir) if _ROLL_CSV_RE.match(n)}
    # canonical series order, matching the pipeline's table
    names = [
        f"fig4_rolling_{g.value}_{ft}.csv"
        for g in Group
        for ft in ("BUY", "SELL", "NET")
        if f"fig4_rolling_{g.value}_{ft}.csv" in present
    ]
    if not names:
        raise click.ClickException(f"no fig4_rolling_*.csv files in {roll_dir}")
    try:
        calendar, closes = read_prices_csv(prices)
        rv = squared_return_vol(returns_from_prices(calendar, closes))
        classic, robust_res = {}, ({} if robust else None)
        for name in names:
            m = _ROLL_CSV_RE.match(name)
            key = (m.group(1), m.group(2))
            rolled = _read_rolling_csv(os.path.join(roll_dir, name), window, step)
            pairs = align_h_rv(rolled, rv, fill).lagged(lag)
            classic[key] = ols(pairs.volatility, pairs.hurst)
            if robust_res is not None:
                robust_res[key] = ols(pairs.volatility, pairs.hurst, robust=True)
        rows = regression_table_rows(classic, robust_res)
        write_regression_table_csv(out, rows)
    except FlowmemError as exc:
        _fail(exc)
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
    try:
        assembled = assemble_report(out_dir)
    except FlowmemError as exc:
        _fail(exc)
    text = assembled.canonical_json()
    if out:
        _write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("--seed", type=int, default=None, help="Run seed override.")
@click.option("--threads", type=int, default=None,
              help="Accepted for compatibility; every stage runs in one thread.")
def run(config_path, out, seed, threads):
    """Run the full pipeline: ingest, tails, DFA, surrogates, rolling, regression."""
    try:
        config = load_config(config_path, out_dir=out, seed=seed, threads=threads)
        result = run_pipeline(config)
    except FlowmemError as exc:
        _fail(exc)
    click.echo(f"report: {os.path.join(config.out_dir, 'report.json')}")
    for key, payload in result.series.items():
        fit = payload["static_dfa"]["fit"]
        shuffled = payload.get("surrogates", {}).get("shuffle")
        null = f" shuffle_mean={shuffled['mean']:.3f}" if shuffled else ""
        click.echo(f"{key:20s} hurst={fit['hurst']:+.4f}{null}")


if __name__ == "__main__":
    main()
