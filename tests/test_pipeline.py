import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from flowmem import pipeline
from flowmem.errors import PipelineError
from flowmem.flows import FlowPanel, FlowType, Group, aggregate_daily, read_flows_csv
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
        listed = set(report.to_json_dict()["artifacts"])
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
        assert sorted(p.name for p in out.iterdir()) == report.to_json_dict()["artifacts"]
        assert not list(out.glob("regimes_*"))

    def test_failed_rerun_leaves_only_quarantine(self, bundled_run, tmp_path):
        config, _, previous = bundled_run
        out = tmp_path / "out"
        shutil.copytree(previous, out)
        (out / "tails_retail_BUY.json").write_text("{}\n")  # marks the older copy
        with pytest.raises(PipelineError, match="rolling"):
            run_pipeline(replace(config, out_dir=str(out), rolling_window=5000))
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
        assert names == sorted([*report.to_json_dict()["artifacts"], "notes.txt"])
        assert (out / "notes.txt").read_text() == "not a flowmem file\n"

    def test_failure_merges_into_existing_quarantine(self, bundled_run, tmp_path):
        config, _, _ = bundled_run
        out = tmp_path / "out"
        (out / "quarantine").mkdir(parents=True)
        (out / "quarantine" / "earlier.txt").write_text("kept\n")
        with pytest.raises(PipelineError, match="rolling"):
            run_pipeline(replace(config, out_dir=str(out), rolling_window=5000))
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        quarantined = {p.name for p in (out / "quarantine").iterdir()}
        assert "earlier.txt" in quarantined and "fig2_ccdf_retail_BUY.csv" in quarantined
        assert ".staging" not in quarantined


class TestStageErrors:
    def test_bad_window_names_rolling_stage_and_quarantines(self, data_dir, tmp_path):
        config = load_config(data_dir / "run_config.json", out_dir=str(tmp_path / "out"))
        config = replace(config, rolling_window=5000)
        with pytest.raises(PipelineError, match="rolling"):
            run_pipeline(config)
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
        with pytest.raises(PipelineError, match="rolling"):
            run_pipeline(replace(config, rolling_window=5000))
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

    def test_worker_writes_into_a_directory_of_its_own(self, bundled_run, tmp_path, monkeypatch):
        # a worker that outlives a killed run can then write only into what
        # the next run cleared, never into that run's .staging/
        config, _, previous = bundled_run
        stage = pipeline._stage_surrogates

        def noted(run):
            (tmp_path / "worker_staging").write_text(run.staging)
            stage(run)

        monkeypatch.setattr(pipeline, "_stage_surrogates", noted)
        out = tmp_path / "out"
        run_pipeline(replace(config, out_dir=str(out)))
        own = Path((tmp_path / "worker_staging").read_text())
        assert own.parent == out / ".staging" and own.name.startswith(".surrogates-")
        assert not (out / ".staging").exists()
        assert out_files(out) == out_files(previous)

    def test_failed_fork_fails_the_stage(self, data_dir, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match="Resource temporarily unavailable") as info:
            run_pipeline(load_config(data_dir / "run_config.json", out_dir=str(out)))
        assert info.value.stage == "surrogates"
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert not [p for p in (out / "quarantine").iterdir() if p.is_dir()]

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

    def test_killed_worker_fails_the_stage(self, data_dir, tmp_path, monkeypatch):
        def killed(run):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pipeline, "_stage_surrogates", killed)
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match=f"signal {int(signal.SIGKILL)}") as info:
            run_pipeline(load_config(data_dir / "run_config.json", out_dir=str(out)))
        assert info.value.stage == "surrogates"
        assert [p.name for p in out.iterdir()] == ["quarantine"]
        assert no_children_left()

    @pytest.mark.parametrize("exc", [SystemExit(3), KeyboardInterrupt()], ids=["exit", "interrupt"])
    def test_exit_or_interrupt_in_worker_fails_the_stage(self, data_dir, tmp_path, monkeypatch, exc):
        def interrupted(run):
            raise exc

        monkeypatch.setattr(pipeline, "_stage_surrogates", interrupted)
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


def test_run_loads_no_numpy_ma(data_dir, tmp_path):
    """np.unique imports numpy.ma on first use; the stages a run keeps in
    its own process do without it (np.quantile in the forked surrogate
    worker still calls np.unique)."""
    src = Path(pipeline.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from flowmem.pipeline import load_config, run_pipeline\n"
        "run_pipeline(load_config(sys.argv[1], out_dir=sys.argv[2]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, str(data_dir / "run_config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "out" / "report.json").exists()


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
         {"regression": {"lag_k": -1}}, {"tails": {"tail_fraction": 2.0}}],
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
        path.write_text('{"flows_csv": "f.csv",\n}')
        with pytest.raises(PipelineError, match=r"config\.json: .*line 2") as info:
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
            (Group.RETAIL, cumsum(fgn(0.35, n, seed=11)), 21),
            (Group.INSTITUTIONAL, fgn(0.7, n, seed=12), 22),
            (Group.FOREIGN, fgn(0.55, n, seed=13), 23),
        ):
            buy = values - values.min()
            sell_raw = fgn(0.5, n, seed=sell_seed)
            sell = sell_raw - sell_raw.min()
            series[(group, FlowType.BUY)] = buy
            series[(group, FlowType.SELL)] = sell
            series[(group, FlowType.NET)] = buy - sell
        panel = FlowPanel(calendar=calendar, series=series)

        from flowmem.dfa import DfaConfig

        table = static_dfa_table(panel, DfaConfig())
        h = {g: table[(g, FlowType.BUY)]["fit"].hurst for g in Group}
        assert h[Group.RETAIL] > h[Group.INSTITUTIONAL] > h[Group.FOREIGN]
        assert h[Group.RETAIL] > 1.0

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

    def test_provenance_pins_config_and_rng(self, bundled_run):
        config, report, _ = bundled_run
        prov = report.provenance
        assert prov["config_sha256"] == config.sha256()
        assert prov["rng"] == "numpy.random.PCG64"
        assert len(prov["stage_seeds"]) == 18  # 9 series x 2 surrogate kinds
