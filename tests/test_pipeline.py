import builtins
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from flowmem import pipeline
from flowmem.errors import PipelineError
from flowmem.flows import GROUPS, FlowPanel, aggregate_daily, read_flows_csv
from flowmem.pipeline import (
    OUT_DIR_ENV,
    RunConfig,
    assemble_report,
    config_from_json_dict,
    load_config,
    run_pipeline,
    stage_seed,
    static_dfa_table,
)
from flowmem.synth import cumsum, fgn


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def numeric_environment():
    """The running interpreter's fingerprint, as tools/make_golden.py records it."""
    path = Path(__file__).resolve().parents[1] / "tools" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.numeric_environment()


def json_mismatches(got, want, path="$"):
    """Every place two parsed JSON documents differ, as 'path: got != want'.

    Floats agree within 1e-12 relative (last-ulp drift between numeric
    environments); keys, lengths, types and all other values must be equal.
    """
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in got for m in json_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in json_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(got, float):
        same = math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    else:
        same = got == want
    return [] if same else [f"{path}: {got!r} != {want!r}"]


def csv_mismatches(name, got, want):
    """Every cell where two CSV texts differ, as 'name line N column: got != want'.

    Numbers agree within 1e-12 relative. fig2's `gaussian_p` column also
    agrees within 1e-300 absolute: far in the tail one erfc underflows to 0
    where another returns a subnormal. Headers, row counts and every other
    cell must be equal.
    """
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if got_rows[:1] != want_rows[:1] or len(got_rows) != len(want_rows):
        return [f"{name}: header or row count differs"]
    header = want_rows[0]
    out = []
    for line, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        if len(g_row) != len(w_row):
            out.append(f"{name} line {line}: {g_row} != {w_row}")
            continue
        for column, g, w in zip(header, g_row, w_row):
            try:
                floor = 1e-300 if column == "gaussian_p" else 0.0
                same = g == w or math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=floor)
            except ValueError:
                same = False
            if not same:
                out.append(f"{name} line {line} {column}: {g} != {w}")
    return out


class TestGolden:
    """The byte golden pins output in the environment recorded in
    golden/environment.json; the numeric check holds in any environment."""

    def test_report_matches_committed_golden(self, bundled_run, data_dir):
        _, _, out = bundled_run
        got = (out / "report.json").read_text()
        want = (data_dir / "golden" / "report.json").read_text()
        assert got == want

    def test_artifact_manifest_matches(self, bundled_run, data_dir):
        _, _, out = bundled_run
        golden = data_dir / "golden"
        manifest = json.loads((golden / "manifest.json").read_text())
        produced = sorted(p.name for p in out.iterdir())
        assert produced == sorted(manifest)
        mismatched = [name for name, digest in sorted(manifest.items()) if sha256(out / name) != digest]
        if mismatched:
            recorded = json.loads((golden / "environment.json").read_text())
            running = numeric_environment()
            drift = [
                f"{key}: golden {recorded.get(key)!r}, running {running.get(key)!r}"
                for key in sorted(recorded.keys() | running.keys())
                if recorded.get(key) != running.get(key)
            ]
            pytest.fail(
                f"{len(mismatched)} artifacts differ from the manifest: {', '.join(mismatched)}\n"
                "environment differences: " + ("; ".join(drift) or "none")
            )

    def test_report_numbers_match_golden(self, bundled_run, data_dir):
        _, _, out = bundled_run
        got = json.loads((out / "report.json").read_text())
        want = json.loads((data_dir / "golden" / "report.json").read_text())
        mismatches = json_mismatches(got, want)
        assert not mismatches, "\n".join(mismatches)

    def test_figure_numbers_match_golden(self, bundled_run, data_dir):
        _, _, out = bundled_run
        golden = data_dir / "golden"
        names = sorted(p.name for p in golden.glob("fig*.csv"))
        manifest = json.loads((golden / "manifest.json").read_text())
        assert names == sorted(n for n in manifest if n.startswith(("fig2_", "fig3_", "fig4_")))
        mismatches = [
            m
            for name in names
            for m in csv_mismatches(name, (out / name).read_text(), (golden / name).read_text())
        ]
        assert not mismatches, "\n".join(mismatches)

    def test_figure_check_names_perturbed_cell(self, data_dir):
        name = "fig4_rolling_retail_NET.csv"
        want = (data_dir / "golden" / name).read_text()
        lines = want.splitlines(keepends=True)
        end_date, h, rest = lines[7].split(",", 2)

        def perturbed(rel):
            value = repr(float(h) * (1 + rel))
            return value, "".join(lines[:7] + [f"{end_date},{value},{rest}"] + lines[8:])

        assert csv_mismatches(name, perturbed(1e-15)[1], want) == []
        value, got = perturbed(1e-10)
        assert csv_mismatches(name, got, want) == [f"{name} line 8 H: {value} != {h}"]

    def test_numeric_check_names_perturbed_path(self, data_dir):
        want = json.loads((data_dir / "golden" / "report.json").read_text())
        got = json.loads(json.dumps(want))
        band = got["series"]["retail_NET"]["surrogates"]["shuffle"]
        path, std = "$.series.retail_NET.surrogates.shuffle.std", band["std"]
        band["std"] = std * (1 + 1e-15)
        assert json_mismatches(got, want) == []
        band["std"] = std * (1 + 1e-10)
        assert json_mismatches(got, want) == [f"{path}: {band['std']!r} != {std!r}"]
        band["std"] = round(std)  # an int where the golden holds a float
        assert json_mismatches(got, want) == [f"{path}: 0 != {std!r}"]

    @pytest.mark.parametrize(
        "changes",
        [{}, {"regimes": (), "prices_csv": None}, {"surrogate_kinds": ()}],
        ids=["bundled", "no_regimes_or_prices", "no_surrogates"],
    )
    def test_report_lists_exactly_its_artifacts(self, bundled_run, tmp_path, changes):
        config, report, out = bundled_run
        if changes:
            out = tmp_path / "out"
            report = run_pipeline(replace(config, out_dir=str(out), **changes))
        listed = set(report.artifacts)
        on_disk = {p.name for p in out.iterdir()}
        assert listed == on_disk
        assert json.loads((out / "report.json").read_text())["artifacts"] == sorted(listed)


class TestPublish:
    """After any run the top level of out_dir holds exactly the listed
    artifacts plus quarantine/ (success), or quarantine/ alone (failure)."""

    def test_rerun_without_regimes_retires_older_regime_files(self, bundled_run, tmp_path):
        config, _, previous = bundled_run
        out = tmp_path / "out"
        shutil.copytree(previous, out)
        report = run_pipeline(replace(config, out_dir=str(out), regimes=()))
        assert sorted(p.name for p in out.iterdir()) == report.artifacts
        assert not list(out.glob("regimes_*"))

    def test_failed_rerun_leaves_only_quarantine(self, bundled_run, tmp_path):
        config, _, previous = bundled_run
        out = tmp_path / "out"
        shutil.copytree(previous, out)
        (out / "tails_retail_BUY.json").write_text("{}\n")  # marks the older copy
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, out_dir=str(out), seed=-1))  # numpy rejects the seed
        assert info.value.stage == "surrogates"
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        quarantined = {p.name for p in (out / "quarantine").iterdir()}
        assert quarantined == {p.name for p in previous.iterdir()}
        # the failed run's own copy wins the name clash
        name = "tails_retail_BUY.json"
        assert (out / "quarantine" / name).read_bytes() == (previous / name).read_bytes()

    def test_stale_staging_is_cleared_and_not_published(self, bundled_run, tmp_path):
        config, _, _ = bundled_run
        out = tmp_path / "out"
        (out / ".staging").mkdir(parents=True)
        (out / ".staging" / "stray.csv").write_text("left by a killed run\n")
        (out / "notes.txt").write_text("not a flowmem file\n")
        report = run_pipeline(replace(config, out_dir=str(out)))
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted([*report.artifacts, "notes.txt"])
        assert (out / "notes.txt").read_text() == "not a flowmem file\n"

    def test_failure_merges_into_existing_quarantine(self, bundled_run, tmp_path):
        config, _, _ = bundled_run
        out = tmp_path / "out"
        (out / "quarantine").mkdir(parents=True)
        (out / "quarantine" / "earlier.txt").write_text("kept\n")
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, out_dir=str(out), seed=-1))  # numpy rejects the seed
        assert info.value.stage == "surrogates"
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        quarantined = {p.name for p in (out / "quarantine").iterdir()}
        assert "earlier.txt" in quarantined and "fig2_ccdf_retail_BUY.csv" in quarantined
        assert ".staging" not in quarantined


class TestStageErrors:
    def test_bad_window_names_rolling_stage_and_quarantines(self, data_dir, tmp_path, monkeypatch):
        """A window `rolling_hurst` rejects fails the run at `rolling`. Ingest
        rejects a 5000-day window first, so the patch hands it to that stage."""
        real = pipeline.rolling_hurst
        monkeypatch.setattr(pipeline, "rolling_hurst", lambda *a, **kw: real(*a, **{**kw, "window": 5000}))
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert str(info.value) == "stage 'rolling': series length 600 shorter than window 5000"
        out = tmp_path / "out"
        quarantined = list((out / "quarantine").iterdir())
        assert quarantined  # partial outputs moved aside
        assert [p for p in out.iterdir() if p.name != "quarantine"] == []

    def test_any_stage_exception_quarantines_and_names_stage(self, data_dir, tmp_path):
        out = tmp_path / "out"
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        # a negative seed gets past no config check here; numpy rejects it
        with pytest.raises(PipelineError, match="ValueError: ") as info:
            run_pipeline(replace(config, seed=-1))
        assert info.value.stage == "surrogates"
        assert isinstance(info.value.__cause__, ValueError)
        assert list((out / "quarantine").iterdir())
        assert [p.name for p in out.iterdir()] == ["quarantine"]

    def test_failed_rerun_moves_older_report_aside(self, data_dir, bundled_run, tmp_path):
        _, _, previous = bundled_run
        out = tmp_path / "out"
        shutil.copytree(previous, out)
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, seed=-1))  # numpy rejects the seed
        assert info.value.stage == "surrogates"
        for name in ("config.json", "provenance.json", "report.json"):
            assert not (out / name).exists()
            assert (out / "quarantine" / name).read_bytes() == (previous / name).read_bytes()

    def test_absent_group_fails_at_ingest_naming_it(self, data_dir, tmp_path):
        flows = tmp_path / "flows.csv"
        lines = (data_dir / "flows_synth.csv").read_text().splitlines(keepends=True)
        flows.write_text("".join(line for line in lines if ",institutional," not in line))
        assert aggregate_daily(read_flows_csv(flows)).calendar  # a partial file still parses
        config = RunConfig(flows_csv=str(flows), out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError, match="institutional") as info:
            run_pipeline(config)
        assert info.value.stage == "ingest"
        assert str(flows) in str(info.value)
        assert not list((tmp_path / "out" / "quarantine").iterdir())

    def test_bad_prices_file_fails_at_ingest_naming_file_and_line(self, data_dir, tmp_path):
        prices = tmp_path / "prices.csv"
        lines = (data_dir / "prices_synth.csv").read_text().splitlines(keepends=True)
        lines[4] = lines[4].split(",")[0] + ",abc\n"  # line 5
        prices.write_text("".join(lines))
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, prices_csv=str(prices)))
        assert info.value.stage == "ingest"
        assert str(info.value) == f"stage 'ingest': {prices}: line 5: bad close 'abc'"
        assert not list((tmp_path / "out" / "quarantine").iterdir())

    def test_one_row_prices_file_fails_at_ingest_naming_it(self, data_dir, tmp_path):
        prices = tmp_path / "prices.csv"
        lines = (data_dir / "prices_synth.csv").read_text().splitlines(keepends=True)
        prices.write_text("".join(lines[:2]))
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, prices_csv=str(prices)))
        assert str(info.value) == f"stage 'ingest': {prices}: need at least 2 prices, got 1"
        assert not list((tmp_path / "out" / "quarantine").iterdir())

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"lag_k": 100000}, "0 regression pairs from 0 rolling windows (config keys "
             "'rolling.window' = 250, 'rolling.step' = 5, 'regression.lag_k' = 100000)"),
            ({"rolling_step": 100000}, "351 regression pairs from 1 rolling windows (config keys "
             "'rolling.window' = 250, 'rolling.step' = 100000, 'regression.lag_k' = 0)"),
            ({"prices_csv": "2035"}, "5 regression pairs from 1 rolling windows (config keys "
             "'rolling.window' = 250, 'rolling.step' = 5, 'regression.lag_k' = 0)"),
        ],
        ids=["lag", "one-window", "prices-after-flows"],
    )
    def test_too_few_regression_pairs_fail_at_ingest(self, data_dir, tmp_path, edit, message):
        """A lag, step or prices calendar that leaves the regression fewer
        than 3 pairs, or pairs from one window (so a constant regressor),
        fails before any file is staged, naming the prices file and the
        config keys. The 2035 prices share no date with the 2015-2016 flows."""
        if edit.get("prices_csv") == "2035":
            prices = tmp_path / "prices.csv"
            text = (data_dir / "prices_synth.csv").read_text()
            prices.write_text(text.replace("2015-", "2035-").replace("2016-", "2036-"))
            edit = {"prices_csv": str(prices)}
        out = tmp_path / "out"
        config = replace(load_config(data_dir / "run_config.json", out_dir=str(out)), **edit)
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        path = config.resolve(config.prices_csv)
        assert str(info.value) == f"stage 'ingest': {path}: {message}; a fit needs 3 pairs from 2 windows"
        assert not list((out / "quarantine").iterdir())

    @pytest.mark.parametrize(
        "n_min, window, message",
        [
            (400, 250, "{flows}: length 600 leaves 0 DFA scales; a fit needs 4"),
            (5, 10, "{window}: length 10 leaves 0 DFA scales; a fit needs 4"),
            (5, 20, "{window}: length 20 leaves 1 DFA scales; a fit needs 4"),
            (5, 24, "{window}: length 24 leaves 2 DFA scales; a fit needs 4"),
            (5, 30, "{window}: length 30 leaves 3 DFA scales; a fit needs 4"),
            (5, 5000, "{flows}: length 600 < {window} = 5000"),
        ],
    )
    def test_dfa_grid_too_small_fails_at_ingest(self, data_dir, tmp_path, n_min, window, message):
        """A static DFA that cannot fit, a window length that makes every
        window a gap, or a window longer than the series fails before any
        file is staged."""
        out = tmp_path / "out"
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        config = replace(config, dfa=replace(config.dfa, n_min=n_min), rolling_window=window)
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        flows = config.resolve(config.flows_csv)
        want = message.format(flows=flows, window="config key 'rolling.window'")
        assert str(info.value) == f"stage 'ingest': {want}"
        assert not list((out / "quarantine").iterdir())

    @pytest.mark.parametrize(
        "group, edit, series",
        [("retail", lambda buy, sell: ("0.0", sell), "retail_BUY"),
         ("foreign", lambda buy, sell: (buy, buy), "foreign_NET")],
        ids=["zero-buy", "zero-net"],
    )
    def test_constant_series_fails_at_ingest_naming_it(self, data_dir, tmp_path, group, edit, series):
        """A constant series has nothing for the static DFA to fit."""
        header, *rows = (data_dir / "flows_synth.csv").read_text().splitlines()
        for i, row in enumerate(rows):
            date, who, buy, sell = row.split(",")
            if who == group:
                rows[i] = ",".join((date, who, *edit(buy, sell)))
        flows = tmp_path / "flows.csv"
        flows.write_text("\n".join([header, *rows, ""]))
        out = tmp_path / "out"
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, flows_csv=str(flows)))
        assert str(info.value) == f"stage 'ingest': {flows}: series {series} is 0.0 on every day"
        assert not list((out / "quarantine").iterdir())

    def test_missing_out_dir(self, data_dir):
        config = load_config(data_dir / "run_config.json")
        with pytest.raises(PipelineError, match="output directory"):
            run_pipeline(config)

    def test_bad_flows_path_names_ingest(self, tmp_path):
        config = RunConfig(flows_csv=str(tmp_path / "nope.csv"), out_dir=str(tmp_path / "o"))
        with pytest.raises((PipelineError, OSError)):
            run_pipeline(config)


def no_children_left():
    """True when the test process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def out_files(out):
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in files}


class TestSurrogateWorker:
    """The surrogate stage runs in a forked worker beside the other stages;
    outputs and errors are those of a serial run, and no child outlives it."""

    def test_run_leaves_no_child(self, bundled_run):
        assert no_children_left()

    def test_output_equals_the_inline_run(self, bundled_run, tmp_path, monkeypatch):
        config, report, out = bundled_run
        monkeypatch.delattr(os, "fork")
        inline = run_pipeline(replace(config, out_dir=str(tmp_path / "inline")))
        assert inline.canonical_json() == report.canonical_json()
        assert out_files(tmp_path / "inline") == out_files(out)

    def test_only_the_run_process_writes_artifacts(self, bundled_run, tmp_path, monkeypatch):
        # a worker that outlives a killed run then cannot write into the
        # next run's .staging/
        config, _, previous = bundled_run
        out, log = tmp_path / "out", tmp_path / "writers"
        real_open = builtins.open

        def noting_open(file, mode="r", *args, **kwargs):
            if "w" in mode and str(file).startswith(str(out)):
                with real_open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {os.path.basename(file)}\n")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", noting_open)
        run_pipeline(replace(config, out_dir=str(out)))
        writers = [line.split() for line in log.read_text().splitlines()]
        assert {pid for pid, _ in writers} == {str(os.getpid())}
        assert {name for _, name in writers} == {p.name for p in out.iterdir()}
        assert out_files(out) == out_files(previous)

    def test_failed_fork_runs_the_worker_inline(self, bundled_run, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        config, report, out = bundled_run
        monkeypatch.setattr(os, "fork", no_fork)
        inline = run_pipeline(replace(config, out_dir=str(tmp_path / "inline")))
        assert inline.canonical_json() == report.canonical_json()
        assert out_files(tmp_path / "inline") == out_files(out)
        assert no_children_left()

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    @pytest.mark.parametrize(
        "failing, stage",
        [({"rolling"}, "surrogates"), ({"tails"}, "tails"), ({"regression"}, "surrogates")],
    )
    def test_earliest_failed_stage_is_named(
        self, data_dir, tmp_path, monkeypatch, failing, stage, fork
    ):
        def broken(*args, **kwargs):
            raise ValueError("broken on purpose")

        names = {"tails": "tail_report", "rolling": "rolling_hurst", "regression": "regression_table"}
        for name in failing:
            monkeypatch.setattr(pipeline, names[name], broken)
        if not fork:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / "out"
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        with pytest.raises(PipelineError) as info:
            run_pipeline(replace(config, seed=-1))  # the surrogate stage fails too
        assert info.value.stage == stage
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert no_children_left()

    def in_worker(self, monkeypatch, fault):
        """Patch `_stage_surrogates`, which both processes call, to run
        `fault()` in the worker; this process computes its bands as usual."""
        stage, parent = pipeline._stage_surrogates, os.getpid()

        def patched(run):
            if os.getpid() != parent:
                fault()
            return stage(run)

        monkeypatch.setattr(pipeline, "_stage_surrogates", patched)
        monkeypatch.setitem(pipeline._STAGES, "surrogates", patched)

    def test_killed_worker_fails_the_stage(self, data_dir, tmp_path, monkeypatch):
        self.in_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match=f"signal {int(signal.SIGKILL)}") as info:
            run_pipeline(load_config(data_dir / "run_config.json", out_dir=str(out)))
        assert info.value.stage == "surrogates"
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert no_children_left()

    @pytest.mark.parametrize("exc", [SystemExit(3), KeyboardInterrupt()], ids=["exit", "interrupt"])
    def test_exit_or_interrupt_in_worker_fails_the_stage(self, data_dir, tmp_path, monkeypatch, exc):
        def interrupted():
            raise exc

        self.in_worker(monkeypatch, interrupted)
        out = tmp_path / "out"
        test_process = os.getpid()
        try:
            with pytest.raises(PipelineError, match=f"{type(exc).__name__}: ") as info:
                run_pipeline(load_config(data_dir / "run_config.json", out_dir=str(out)))
        finally:
            if os.getpid() != test_process:  # a worker that came back here: note it and end it
                (tmp_path / "worker_escaped").touch()
                os._exit(0)
        assert not (tmp_path / "worker_escaped").exists()
        assert info.value.stage == "surrogates"
        assert type(info.value.__cause__) is type(exc)
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert no_children_left()

    def test_interrupt_in_a_parent_stage_stops_the_worker_and_quarantines(self, data_dir, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "tail_report", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(load_config(data_dir / "run_config.json", out_dir=str(out)))
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert no_children_left()

    def patch_bands(self, monkeypatch, config, in_parent, in_worker):
        """Patch `surrogate_band` to call `in_parent(index)` or
        `in_worker(index)` with the band's index in band order (series,
        then kind) before it computes the band."""
        band, parent = pipeline.surrogate_band, os.getpid()
        labels = [
            f"surrogate/{kind}/{key}" for key in pipeline.SERIES_KEYS for kind in config.surrogate_kinds
        ]
        index = {stage_seed(config.seed, label): i for i, label in enumerate(labels)}

        def patched(values, spec, dfa):
            (in_parent if os.getpid() == parent else in_worker)(index[spec.seed])
            return band(values, spec, dfa)

        monkeypatch.setattr(pipeline, "surrogate_band", patched)

    def test_each_band_is_computed_once(self, bundled_run, tmp_path, monkeypatch):
        config, _, previous = bundled_run
        out, log = tmp_path / "out", tmp_path / "bands"

        def note(index):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {index}\n")

        def slow_note(index):  # a slow worker leaves bands for this process
            time.sleep(0.2)
            note(index)

        self.patch_bands(monkeypatch, config, note, slow_note)
        run_pipeline(replace(config, out_dir=str(out)))
        taken = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(index) for _, index in taken) == list(range(18))
        assert len({pid for pid, _ in taken}) == 2 and str(os.getpid()) in {pid for pid, _ in taken}
        assert out_files(out) == out_files(previous)
        assert no_children_left()

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_first_failed_band_in_band_order_is_named(self, data_dir, tmp_path, monkeypatch, fork):
        # band 1 fails only after band 2 has failed; forked, the two fail in
        # different processes, band 2 first
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        tried, log = tmp_path / "band_2_tried", tmp_path / "failed"

        def fail(index):
            if index == 1 and fork:
                t0 = time.monotonic()
                while not tried.exists() and time.monotonic() - t0 < 30:
                    time.sleep(0.01)
            if index in (1, 2):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {index}\n")
                tried.touch()
                raise ValueError(f"band {index}")

        self.patch_bands(monkeypatch, config, fail, fail)
        if not fork:
            monkeypatch.delattr(os, "fork")
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert str(info.value) == "stage 'surrogates': ValueError: band 1"
        failed = [line.split() for line in log.read_text().splitlines()]
        if fork:
            assert sorted(index for _, index in failed) == ["1", "2"]
            assert len({pid for pid, _ in failed}) == 2
        else:
            assert failed == [[str(os.getpid()), "1"]]
        assert [p.name for p in Path(config.out_dir).iterdir()] == ["quarantine"]
        assert no_children_left()

    def test_interrupt_in_a_parent_band_stops_the_worker_and_quarantines(
        self, data_dir, tmp_path, monkeypatch
    ):
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))

        def interrupt(index):
            raise KeyboardInterrupt

        self.patch_bands(monkeypatch, config, interrupt, lambda index: time.sleep(60 * (index == 0)))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert time.monotonic() - t0 < 30  # the sleeping worker was killed, not waited for
        assert [p.name for p in Path(config.out_dir).iterdir()] == ["quarantine"]
        assert no_children_left()

    @pytest.mark.parametrize("stage", ["ingest", "tails", "static_dfa"])
    def test_failure_before_the_surrogate_stage_stops_the_worker(
        self, data_dir, tmp_path, monkeypatch, stage
    ):
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        if stage == "ingest":  # a bad prices file, which ingest rejects before the fork
            prices = tmp_path / "prices.csv"
            prices.write_text("date,close\n2020-01-02,abc\n")
            config = replace(config, prices_csv=str(prices))
        else:
            def broken(*args, **kwargs):
                raise ValueError("broken on purpose")

            name = {"tails": "tail_report", "static_dfa": "static_dfa_table"}[stage]
            monkeypatch.setattr(pipeline, name, broken)
        # the worker takes band 0 first, this process being busy with its lane
        self.patch_bands(
            monkeypatch, config, lambda index: None, lambda index: time.sleep(30 * (index == 0))
        )
        t0 = time.monotonic()
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert time.monotonic() - t0 < 10  # the sleeping worker was killed, not waited for
        assert info.value.stage == stage
        assert no_children_left()

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_bad_prices_file_forks_and_computes_nothing(self, data_dir, tmp_path, monkeypatch, fork):
        # ingest reads the prices before the fork; a failed fork would
        # compute every band inline first
        prices = tmp_path / "prices.csv"
        prices.write_text("date,close\n2020-01-02,abc\n")
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        config = replace(config, prices_csv=str(prices))
        real_fork, forks, bands = os.fork, [], []

        def counted_fork():
            forks.append(os.getpid())
            if not fork:
                raise OSError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(pipeline.os, "fork", counted_fork)
        self.patch_bands(monkeypatch, config, bands.append, bands.append)
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert str(info.value) == f"stage 'ingest': {prices}: line 2: bad close 'abc'"
        assert (forks, bands) == ([], [])
        assert not list((tmp_path / "out" / "quarantine").iterdir())
        assert no_children_left()


class TestIngestWorker:
    """A large flows file is parsed in two processes; a failure of the
    ingest worker fails the ingest stage, and no child outlives the run."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SPLIT_MIN_BYTES", 1)
        flows = tmp_path / "flows.csv"
        lines = ["date,firm_id,group,side,amount"] + [
            f"2020-01-{day:02d},F{k},{group},{side},{day + k}.5"
            for day in range(1, 29)
            for group in ("retail", "institutional", "foreign")
            for side in ("BUY", "SELL")
            for k in range(5)
        ]
        flows.write_text("\n".join(lines) + "\n")
        return RunConfig(flows_csv=str(flows), out_dir=str(tmp_path / "out"))

    def patch_halves(self, monkeypatch, in_parent, in_worker):
        """Run `in_parent` or `in_worker` before each process reads its half."""
        read_cells, parent = pipeline._read_cells, os.getpid()

        def half(*args):
            (in_parent if os.getpid() == parent else in_worker)()
            return read_cells(*args)

        monkeypatch.setattr(pipeline, "_read_cells", half)

    def test_killed_ingest_worker_fails_the_stage(self, config, monkeypatch):
        self.patch_halves(monkeypatch, lambda: None, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(PipelineError, match=f"signal {int(signal.SIGKILL)}") as info:
            run_pipeline(config)
        assert info.value.stage == "ingest"
        out = Path(config.out_dir)
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert not list((out / "quarantine").iterdir())
        assert no_children_left()

    def test_interrupt_in_the_parent_stops_the_ingest_worker(self, config, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        self.patch_halves(monkeypatch, interrupt, lambda: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert time.monotonic() - t0 < 30  # the sleeping worker was killed, not waited for
        assert [p.name for p in Path(config.out_dir).iterdir()] == ["quarantine"]
        assert no_children_left()


    def test_bad_first_half_stops_the_ingest_worker(self, config, monkeypatch):
        flows = Path(config.flows_csv)
        lines = flows.read_text().splitlines()
        lines[2] = lines[2].rpartition(",")[0] + ",abc"  # line 3, in the first half
        flows.write_text("\n".join(lines) + "\n")
        self.patch_halves(monkeypatch, lambda: None, lambda: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert time.monotonic() - t0 < 30  # the sleeping worker was killed, not waited for
        assert str(info.value) == f"stage 'ingest': {flows}: line 3: bad amount 'abc'"
        assert no_children_left()


def lazy_numpy_after_run(data_dir, out, fork=True):
    """The numpy.ma and numpy.polynomial modules loaded by a fresh process
    after one bundled run."""
    src = Path(pipeline.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        + ("" if fork else "import os\ndel os.fork\n")
        + "from flowmem.pipeline import load_config, run_pipeline\n"
        "run_pipeline(load_config(sys.argv[1], out_dir=sys.argv[2]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'ma'], "
        "['numpy', 'polynomial'])))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, str(data_dir / "run_config.json"), str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert (out / "report.json").exists()
    return done.stdout.strip()


def test_benchmark_tracer_instruments_a_run(data_dir, tmp_path):
    """perfbench/tracing.py wraps flowmem functions by module and name and
    reads their results; a run under it still succeeds and records spans."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.instrument()
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        report = run_pipeline(config)
    finally:
        tracer.restore()
    assert len(report.series) == 9 and (tmp_path / "out" / "report.json").exists()
    aligned = [span for span in tracer.spans if span["name"] == "stats.align"]
    assert len(aligned) == 9 and all(span["counts"]["pairs"] > 0 for span in aligned)
    assert {"dfa.static", "tails.report", "rolling.hurst"} <= {s["name"] for s in tracer.spans}
    # the counts the tracer reads off `RollingHurst.entries` and `AlignedPairs.dates`
    rolled = [span["counts"] for span in tracer.spans if span["name"] == "rolling.hurst"]
    for count in ("windows", "gaps"):
        in_report = sum(entry["rolling"][f"n_{count}"] for entry in report.series.values())
        assert sum(counts[count] for counts in rolled) == in_report
    assert report.regression["lag_k"] == 0
    rows = report.regression["rows"]
    assert [span["counts"]["pairs"] for span in aligned] == [row["n"] for row in rows]


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs a small workload through the benchmark's
    workers and shows that its output check can fail; tier-1 runs it so a
    change to the program that breaks the check shows here."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_library_use_block_runs(data_dir, tmp_path, monkeypatch):
    """README's Library use example runs as written, beside a flows.csv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copy(data_dir / "flows_synth.csv", tmp_path / "flows.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["retail_net"].ndim == 1 and namespace["retail_net"].size > 0


def test_readme_names_the_stages_in_their_order():
    """README's order of the stages, the one that picks the earliest failed
    stage, is `_STAGES`'s."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    order = re.search(r"in the order ((?:`\w+`,\s+)+`\w+`)", readme).group(1)
    assert re.findall(r"`(\w+)`", order) == list(pipeline._STAGES)


def test_run_loads_no_numpy_ma(data_dir, tmp_path):
    """np.unique and np.quantile import numpy.ma on first use; a run does
    without both, and builds its DFA basis without numpy.polynomial."""
    assert lazy_numpy_after_run(data_dir, tmp_path / "out") == "[]"


def test_inline_run_loads_no_numpy_ma(data_dir, tmp_path):
    """Without os.fork the surrogate stage runs in the same process, so its
    code is checked here too."""
    assert lazy_numpy_after_run(data_dir, tmp_path / "out", fork=False) == "[]"


class TestConfig:
    def test_round_trip_is_byte_identical(self, data_dir):
        path = data_dir / "run_config.json"
        config = load_config(path)
        assert config.canonical_json() == path.read_text()
        reparsed = config_from_json_dict(
            json.loads(config.canonical_json()), base_dir=config.base_dir
        )
        assert reparsed.canonical_json() == config.canonical_json()

    def test_hash_ignores_runtime_fields(self, data_dir):
        config = load_config(data_dir / "run_config.json")
        moved = replace(config, out_dir="/elsewhere", base_dir="/tmp")
        assert moved.sha256() == config.sha256()

    def test_env_var_overrides_out_dir(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env_out"))
        config = load_config(data_dir / "run_config.json")
        assert config.out_dir == str(tmp_path / "env_out")

    def test_explicit_out_beats_env(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env_out"))
        config = load_config(data_dir / "run_config.json", out_dir="chosen")
        assert config.out_dir == "chosen"

    def test_seed_override(self, data_dir):
        config = load_config(data_dir / "run_config.json", seed=7)
        assert config.seed == 7

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"dfa": {"detrend_ordr": 2}}, "dfa.detrend_ordr"),
            ({"dfa": {"n_min": "5"}}, "dfa.n_min"),
            ({"seed": "abc"}, "seed"),
            ({"rolling": {"window": "wide"}}, "rolling.window"),
            ({"tails": {"tail_fraction": None}}, "tails.tail_fraction"),
            ({"surogates": {"count": 3}}, "surogates"),
            ({"rolling": {"windw": 100}}, "rolling.windw"),
            ({"rolling": 250}, "rolling"),
            ({"regimes": [{"label": "a", "start_date": "2015-01-01", "end": "2016-01-01"}]},
             "regimes[0].end"),
            ({"tails": {"net_side": "bogus"}}, "tails.net_side"),
            ({"surrogates": {"kinds": ["bootstrap"]}}, "surrogates.kinds"),
            ({"regression": {"fill_policy": "nope"}}, "regression.fill_policy"),
            ({"dfa": {"detrend_order": -1}}, "dfa"),
            ({"regimes": [{"label": "x", "start_date": "2021-01-01", "end_date": "2020-01-01"}]},
             "regimes[0]"),
            ({"regression": {"robust_se": "false"}}, "regression.robust_se"),
            ({"dfa": {"include_order1": "no"}}, "dfa.include_order1"),
            ({"seed": 1.9}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": -1}, "seed"),
            ({"rolling": {"window": 250.7}}, "rolling.window"),
            ({"rolling": {"window": 1}}, "rolling.window"),
            ({"dfa": {"n_min": 5.5}}, "dfa.n_min"),
            ({"rolling": {"step": 0}}, "rolling.step"),
            ({"surrogates": {"count": 0}}, "surrogates.count"),
            ({"regression": {"lag_k": -1}}, "regression.lag_k"),
            ({"tails": {"tail_fraction": 2.0}}, "tails.tail_fraction"),
            ({"flows_csv": 5}, "flows_csv"),
            ({"regimes": [{"label": "x", "start_date": 2015, "end_date": "2016-01-01"}]},
             "regimes[0].start_date"),
            ({"regimes": [{"label": "x", "start_date": "2020-3-1", "end_date": "2020-04-01"}]},
             "regimes[0].start_date"),
            ({"regimes": [{"start_date": "2020-03-01", "end_date": "2020-04-01"}]},
             "regimes[0].label"),
            ({"out_dir": 5}, "out_dir"),
            ({"surrogates": {"kinds": ["shuffle", "shuffle"]}}, "surrogates.kinds"),
            ({"regimes": [{"label": "x", "start_date": "2020-02-30", "end_date": "2020-04-01"}]},
             "regimes[0].start_date"),
            ({"regimes": [{"label": "x", "start_date": "2020-03-01", "end_date": "20200401"}]},
             "regimes[0].end_date"),
            ({"dfa": {"include_order1": True, "detrend_order": 0, "n_min": 2}},
             "dfa.include_order1"),
        ],
    )
    def test_bad_key_or_value_is_config_error_naming_key(self, data_dir, patch, key):
        data = json.loads((data_dir / "run_config.json").read_text())
        data.update(patch)
        with pytest.raises(PipelineError, match=re.escape(f"'{key}'")) as info:
            config_from_json_dict(data)
        assert info.value.stage == "config"

    @pytest.mark.parametrize(
        "patch",
        [{"rolling": {"step": 0}}, {"surrogates": {"count": 0}},
         {"regression": {"lag_k": -1}}, {"tails": {"tail_fraction": 2.0}},
         {"dfa": {"include_order1": True, "detrend_order": 0, "n_min": 2}}],
    )
    def test_bad_range_fails_before_out_dir_exists(self, data_dir, tmp_path, patch):
        data = json.loads((data_dir / "run_config.json").read_text())
        data.update(patch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PipelineError, match="stage 'config'"):
            run_pipeline(load_config(path, out_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_seed_override_is_checked(self, data_dir):
        with pytest.raises(PipelineError, match="'seed'"):
            load_config(data_dir / "run_config.json", seed=-1)

    def test_malformed_json_is_config_error_naming_file(self, tmp_path):
        path = tmp_path / "config.json"
        for text, cause in (('{"flows_csv": "f.csv",\n}', r".*line 2"),
                            ('{"flows_csv": "caf\xe9.csv"}', "not UTF-8 text$")):
            path.write_bytes(text.encode("latin-1"))  # "\xe9": the byte 0xE9
            with pytest.raises(PipelineError, match=rf"config\.json: {cause}") as info:
                load_config(path)
            assert info.value.stage == "config"

    def test_defaults_hash_is_pinned(self):
        # the defaults live on the RunConfig and DfaConfig fields alone
        config = config_from_json_dict({"flows_csv": "f.csv"})
        assert config.sha256() == (
            "ef4cdcfce1127217ceb6e65b9006bb4ce8a0426a7191e24d28b379516cc85f34"
        )
        assert config == RunConfig(flows_csv="f.csv")

    def test_readme_quick_start_config_is_valid(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S)
        config = config_from_json_dict(json.loads(block.group(1)))
        assert config.surrogate_count == 50 and len(config.regimes) == 1

    def test_out_dir_key_is_accepted(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        data = json.loads((data_dir / "run_config.json").read_text())
        data["out_dir"] = "results"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert load_config(path).out_dir == "results"


class TestStageSeeds:
    def test_frozen_derivations(self):
        # pin the derivation so golden files survive refactors
        assert stage_seed(2024, "surrogate/shuffle/retail_BUY") == 5103281928517956416
        assert stage_seed(2024, "surrogate/phase_randomize/retail_BUY") == 17986444853903467399
        assert stage_seed(0, "surrogate/shuffle/retail_BUY") == 14496863849830876127

    def test_labels_and_seeds_independent(self):
        seen = {stage_seed(1, f"label/{i}") for i in range(50)}
        assert len(seen) == 50
        assert stage_seed(1, "x") != stage_seed(2, "x")


class TestAssembleReport:
    def test_rebuild_matches_pipeline_report(self, bundled_run):
        _, _, out = bundled_run
        rebuilt = assemble_report(str(out))
        assert rebuilt.canonical_json() == (out / "report.json").read_text()

    def test_missing_artifact_is_named(self, bundled_run, tmp_path):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        (broken / "surrogate_shuffle_foreign_NET.json").unlink()
        with pytest.raises(PipelineError, match="surrogate_shuffle_foreign_NET.json"):
            assemble_report(str(broken))

    def test_malformed_artifact_names_path(self, bundled_run, tmp_path):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken2"
        shutil.copytree(out, broken)
        (broken / "dfa_fit_retail_BUY.json").write_text("{ not json")
        with pytest.raises(PipelineError, match="dfa_fit_retail_BUY.json"):
            assemble_report(str(broken))


class TestConstructedOrdering:
    def test_cumulated_retail_outranks_plain_foreign(self):
        # retail as a random-walk-like flow (slope ~ 1.35) must outrank a
        # stationary foreign flow (~0.55) in the static table
        n = 2048
        calendar = tuple(f"d{i:05d}" for i in range(n))
        series = {}
        for group, values, sell_seed in (
            ("retail", cumsum(fgn(0.35, n, seed=11)), 21),
            ("institutional", fgn(0.7, n, seed=12), 22),
            ("foreign", fgn(0.55, n, seed=13), 23),
        ):
            buy = values - values.min()
            sell_raw = fgn(0.5, n, seed=sell_seed)
            sell = sell_raw - sell_raw.min()
            series[(group, "BUY")] = buy
            series[(group, "SELL")] = sell
            series[(group, "NET")] = buy - sell
        panel = FlowPanel(calendar=calendar, series=series)

        from flowmem.dfa import DfaConfig

        table = static_dfa_table(panel.series, DfaConfig())
        h = {g: table[(g, "BUY")]["fit"].hurst for g in GROUPS}
        assert h["retail"] > h["institutional"] > h["foreign"]
        assert h["retail"] > 1.0

    def test_static_table_raises_the_first_failing_series_error(self):
        from flowmem.dfa import DfaConfig
        from flowmem.errors import DfaError

        x = fgn(0.7, 500, seed=1)
        series = {"whole": x, "constant": [3.3] * 500, "non_finite": [math.nan, *x[1:]]}
        with pytest.raises(DfaError, match=re.escape("insufficient scales for fit: 0 < 4")):
            static_dfa_table(series, DfaConfig(), include_order1=True)

    def test_order1_cross_check_present_when_requested(self, bundled_run):
        _, report, _ = bundled_run
        static = report.series["retail_BUY"]["static_dfa"]
        assert "fit_order1" in static
        assert static["fit_order1"]["detrend_order"] == 1
        assert abs(static["fit"]["hurst"] - static["fit_order1"]["hurst"]) < 0.25


class TestReportContent:
    def test_all_nine_series_covered(self, bundled_run):
        _, report, _ = bundled_run
        assert len(report.series) == 9
        for key, payload in report.series.items():
            assert {"tails", "static_dfa", "surrogates", "rolling"} <= set(payload)
            assert set(payload["surrogates"]) == {"shuffle", "phase_randomize"}

    def test_regime_summaries(self, bundled_run):
        _, report, _ = bundled_run
        for key, summaries in report.regimes.items():
            labels = [s["label"] for s in summaries]
            assert labels == ["mid", "late", "never"]
            assert summaries[-1]["n_obs"] == 0
            assert summaries[0]["n_obs"] > 0

    def test_regression_table_has_nine_rows(self, bundled_run):
        _, report, _ = bundled_run
        rows = report.regression["rows"]
        assert len(rows) == 9
        for row in rows:
            assert row["n"] > 200
            assert "t_beta_robust" in row

    def test_regression_takes_the_rolling_stage_values(self, bundled_run, tmp_path, monkeypatch):
        """The regression stage parses no fig4 file the run just wrote."""
        config, _, previous = bundled_run

        def unused(*args):
            raise AssertionError("the run read its fig4 files back")

        monkeypatch.setattr(pipeline, "read_rolling_dir", unused)
        out = tmp_path / "out"
        run_pipeline(replace(config, out_dir=str(out)))
        name = "table1_regression.csv"
        assert (out / name).read_bytes() == (previous / name).read_bytes()

    def test_provenance_pins_config_and_rng(self, bundled_run):
        config, report, _ = bundled_run
        prov = report.provenance
        assert prov["config_sha256"] == config.sha256()
        assert prov["rng"] == "numpy.random.PCG64"
        assert len(prov["stage_seeds"]) == 18  # 9 series x 2 surrogate kinds
