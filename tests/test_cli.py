import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import flowmem
from flowmem.cli import main
from flowmem.errors import PipelineError
from flowmem.pipeline import config_from_json_dict, load_config, read_panel, run_pipeline
from flowmem.stats import FILL_POLICIES, read_prices_csv
from flowmem.surrogate import SURROGATE_KINDS
from flowmem.tails import TAIL_SIDES


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args])
    if result.exception and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


class TestIngestCheck:
    def test_summary(self, runner, data_dir):
        result = invoke(runner, "ingest-check", data_dir / "flows_synth.csv")
        assert result.exit_code == 0
        assert "records: 3600" in result.output
        assert "trading days: 600" in result.output
        assert "retail" in result.output

    def test_bad_token_fails_with_line_number(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,firm_id,group,side,amount\n2020-01-02,f,whale,BUY,1\n")
        result = invoke(runner, "ingest-check", bad)
        assert result.exit_code != 0
        assert "line 2" in result.output
        assert "whale" in result.output

    def test_record_count_for_wide_and_long_files(self, runner, data_dir, tmp_path):
        wide = data_dir / "flows_synth.csv"
        long = tmp_path / "long.csv"
        lines = ["date,firm_id,group,side,amount"]
        for row in wide.read_text().splitlines()[1:]:
            date, group, buy, sell = row.split(",")
            lines += [f"{date},,{group},BUY,{buy}", f"{date},F1,{group},SELL,{sell}"]
        long.write_text("\n".join(lines) + "\n")
        wide_out = invoke(runner, "ingest-check", wide).output
        long_out = invoke(runner, "ingest-check", long).output
        assert wide_out.splitlines()[0] == "records: 3600"
        assert long_out == wide_out  # same records, same days, same totals

    def test_impossible_date_fails_with_line_number(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,group,buy,sell\n2020-01-02,retail,1,2\n2020-13-45,retail,3,4\n")
        result = invoke(runner, "ingest-check", bad)
        assert result.exit_code == 1
        assert "line 3: bad date '2020-13-45'" in result.output
        assert "trading days" not in result.output

    def test_non_utf8_file_fails_naming_the_file(self, runner, data_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,group,buy,sell\n2020-01-02,retail,1,2\n2020-01-03,retail,\xe9,4\n")
        result = invoke(runner, "ingest-check", bad)
        assert result.exit_code == 1
        assert result.output == f"Error: {bad}: not UTF-8 text\n"
        config = json.loads((data_dir / "run_config.json").read_text())
        config["flows_csv"], config["prices_csv"] = str(bad), None
        (tmp_path / "run.json").write_text(json.dumps(config))
        result = invoke(runner, "run", "--config", tmp_path / "run.json", "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.output == f"Error: stage 'ingest': {bad}: not UTF-8 text\n"


def test_cli_import_leaves_out_scipy_stats(data_dir, tmp_path):
    """scipy.stats costs about a second to import and scipy.special a tenth;
    neither start-up nor a run whose stars are clear-cut needs scipy."""
    src = Path(flowmem.__file__).resolve().parents[1]
    code = (
        "import sys, flowmem.cli\n"
        "from flowmem.pipeline import load_config, run_pipeline\n"
        "def scipy_loaded(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "print('scipy.stats' in sys.modules)\n"
        "print(scipy_loaded())\n"
        "run_pipeline(load_config(sys.argv[1], out_dir=sys.argv[2]))\n"
        "print(scipy_loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, str(data_dir / "run_config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    after_import_stats, after_import, after_run = done.stdout.split()
    assert after_import_stats == "False"
    assert after_import == "False"
    assert after_run == "False"
    assert (tmp_path / "out" / "table1_regression.csv").exists()  # the run reached the stars


class TestSynthAndDfa:
    def test_series_then_dfa_recovers_exponent(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        result = invoke(
            runner, "synth", "series", "--kind", "fgn", "--hurst", "0.7",
            "-n", 4096, "--seed", 3, "--out", series,
        )
        assert result.exit_code == 0
        assert (tmp_path / "series.csv.meta.json").exists()

        result = invoke(runner, "dfa", "--series", series)
        assert result.exit_code == 0
        hurst = float(re.search(r"hurst=([0-9.]+)", result.output).group(1))
        assert abs(hurst - 0.7) < 0.06

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("2020-01-01,1.0\n2020-01-02,abc\n", "line 3: bad value 'abc'"),
            ("2020-01-01,1.0\n2020-01-02,inf\n", "line 3: value must be finite"),
            ("2020-01-02,1.0\n2020-01-01,2.0\n", "dates must be strictly increasing"),
            ("2020-01-01,1.0\n2020-01-03,2.0\n2020-01-02,3.0\n",
             "line 4: dates must be strictly increasing: 2020-01-02 is not after 2020-01-03 of line 3"),
            ("2020-01-01,1.0\n2020-01-03,2.0\n2020-01-03,3.0\n",
             "line 4: dates must be strictly increasing: 2020-01-03 is not after 2020-01-03 of line 3"),
            ("2020-01-01,1.0\n2020-01-02,\xe9\n", "not UTF-8 text"),
            pytest.param(  # 20 days: the one-scale grid [5] leaves no fit
                "".join(f"2020-01-{d:02d},{d % 7}\n" for d in range(1, 21)),
                "Error: length 20 leaves 1 DFA scales; a fit needs 4", id="one-scale-grid",
            ),
            pytest.param(  # a constant series: DFA(2) would leave F at the floor at every scale
                "".join(f"2020-{m:02d}-{d:02d},3.7\n" for m in (1, 2) for d in range(1, 21)),
                "s.csv: column value is 3.7 on every day", id="constant",
            ),
        ],
    )
    def test_bad_series_file_fails_cleanly(self, runner, tmp_path, rows, message):
        series = tmp_path / "s.csv"
        series.write_bytes(("date,value\n" + rows).encode("latin-1"))  # "\xe9": the byte 0xE9
        result = invoke(runner, "dfa", "--series", series)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and message in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "command, outputs",
        [
            ("dfa", ["--out-curve", "c.csv", "--out-fit", "f.json"]),
            ("roll", ["--out", "r.csv"]),
            ("surrogate", ["--kind", "shuffle", "--seed", 1, "--out", "b.json",
                           "--out-values", "v.csv"]),
            ("tails", ["--out-ccdf", "c.csv", "--out-fit", "f.json"]),
        ],
    )
    def test_constant_series_fails_every_stage_command(self, runner, tmp_path, command, outputs):
        """The stage commands reject a series `run` rejects at ingest, by
        the same rule, and write nothing."""
        series = tmp_path / "const.csv"
        series.write_text("date,value\n" + "".join(f"2015-{1 + i // 28:02d}-{1 + i % 28:02d},2.5\n"
                                                   for i in range(300)))
        out = tmp_path / "out"
        out.mkdir()
        args = [out / name if str(name).endswith((".csv", ".json")) else name for name in outputs]
        result = invoke(runner, command, "--series", series, *args)
        assert result.exit_code == 1
        assert result.output == f"Error: {series}: column value is 2.5 on every day\n"
        assert not list(out.iterdir())

    def test_constant_flows_series_names_file_and_series(self, runner, data_dir, tmp_path):
        lines = (data_dir / "flows_synth.csv").read_text().splitlines(keepends=True)
        flows = tmp_path / "flows.csv"
        flows.write_text("".join(
            re.sub(r"^([^,]*,retail),[^,]*,", r"\1,0.0,", line) for line in lines
        ))
        out = tmp_path / "r.csv"
        result = invoke(runner, "roll", "--flows", flows, "--group", "retail", "--flow", "BUY",
                        "--out", out)
        assert result.exit_code == 1
        assert result.output == f"Error: {flows}: series retail_BUY is 0.0 on every day\n"
        assert not out.exists()

    def test_roll_window_with_too_few_scales_fails(self, runner, data_dir, tmp_path):
        """A 24-day window leaves 2 DFA scales, so every window would be a gap."""
        out = tmp_path / "r.csv"
        result = invoke(
            runner, "roll", "--flows", data_dir / "flows_synth.csv",
            "--group", "retail", "--flow", "NET", "--window", 24, "--out", out,
        )
        assert result.exit_code == 1
        assert result.output == "Error: length 24 leaves 2 DFA scales; a fit needs 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["2020-13-45", "2020-02-30"])
    def test_series_file_with_impossible_date_names_line(self, runner, tmp_path, bad):
        series = tmp_path / "s.csv"
        series.write_text(f"date,value\n2020-01-01,1.0\n{bad},2.0\n")
        result = invoke(runner, "dfa", "--series", series)
        assert result.exit_code == 1
        assert f"Error: {series}: line 3: bad date '{bad}'" in result.output

    @pytest.mark.parametrize("length", [0, -1])
    def test_synth_prices_length_below_one_is_a_usage_error(self, runner, tmp_path, length):
        out = tmp_path / "prices.csv"
        result = invoke(runner, "synth", "prices", "-n", length, "--seed", 1, "--out", out)
        assert result.exit_code == 2
        assert "'--length': " in result.output and "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, length",
        [
            (("synth", "series", "--kind", "iid_gaussian"), 0),
            (("synth", "series", "--kind", "pareto", "--alpha", 2), -1),
            (("synth", "series", "--kind", "fgn", "--hurst", 0.7), 1),
            (("synth", "series", "--kind", "fbm_increments_cumsum", "--hurst", 0.7), 1),
            (("synth", "flows", "--group", "retail=iid_gaussian"), 0),
            (("synth", "flows", "--group", "retail=iid_gaussian", "--group", "foreign=fgn:0.6"), 1),
        ],
        ids=["series-iid", "series-pareto", "series-fgn", "series-fbm", "flows-iid", "flows-fgn"],
    )
    def test_synth_length_below_the_kind_minimum_is_a_usage_error(self, runner, tmp_path, command,
                                                                  length):
        out = tmp_path / "out.csv"
        result = invoke(runner, *command, "-n", length, "--seed", 1, "--out", out)
        assert result.exit_code == 2
        assert "'--length': " in result.output and "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            ("synth", "series", "--kind", "fgn", "--hurst", 0.7, "-n", 100),
            ("synth", "flows", "--group", "retail=fgn:0.8", "-n", 100),
            ("synth", "prices", "-n", 100),
            ("surrogate", "--flows", Path(__file__).parent / "data" / "flows_synth.csv",
             "--group", "retail", "--flow", "NET", "--kind", "shuffle"),
        ],
        ids=["synth-series", "synth-flows", "synth-prices", "surrogate"],
    )
    def test_negative_seed_is_a_usage_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = invoke(runner, *command, "--seed", -1, "--out", out)
        assert result.exit_code == 2
        assert "'--seed': " in result.output and "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["retail=fgn:1.2.3", "retail=fgn:.", "foreign=pareto:2..5"])
    def test_malformed_group_param_is_a_usage_error(self, runner, tmp_path, spec):
        out = tmp_path / "flows.csv"
        result = invoke(runner, "synth", "flows", "--group", spec, "-n", 100, "--seed", 1, "--out", out)
        assert result.exit_code == 2
        assert f"bad group spec {spec!r}" in result.output and "Traceback" not in result.output
        assert not out.exists()

    def test_group_given_twice_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "flows.csv"
        result = invoke(
            runner, "synth", "flows", "--group", "retail=fgn:0.8", "--group", "retail=fgn:0.6",
            "-n", 100, "--seed", 1, "--out", out,
        )
        assert result.exit_code == 2
        assert "'retail=fgn:0.6': group 'retail' is given twice" in result.output
        assert not out.exists() and not (tmp_path / "flows.csv.meta.json").exists()

    def test_synth_and_surrogate_files_read_back(self, runner, tmp_path):
        n, count = 100, 3
        flows, prices, values = (tmp_path / name for name in ("flows.csv", "prices.csv", "values.csv"))

        def write():
            commands = [
                ("synth", "flows", "--group", "retail=fgn:0.8", "--group", "institutional=iid_gaussian",
                 "--group", "foreign=pareto:2.5", "-n", n, "--seed", 4, "--out", flows),
                ("synth", "prices", "-n", n, "--seed", 5, "--out", prices),
                ("surrogate", "--flows", flows, "--group", "retail", "--flow", "NET", "--kind", "shuffle",
                 "--count", count, "--seed", 2, "--out", tmp_path / "band.json", "--out-values", values),
            ]
            for args in commands:
                assert invoke(runner, *args).exit_code == 0
            return [path.read_bytes() for path in (flows, prices, values)]

        first = write()
        panel, records = read_panel(flows)
        assert (len(panel.calendar), records) == (n, 6 * n)
        assert all(panel.series[key].any() for key in panel.series)  # all 3 groups
        calendar, closes = read_prices_csv(prices)
        assert calendar == panel.calendar and closes.size == n
        assert len(values.read_text().splitlines()) == count + 1
        assert write() == first

    def test_flows_spec_validation(self, runner, tmp_path):
        result = invoke(
            runner, "synth", "flows", "--group", "retail=fgn",
            "-n", 100, "--seed", 1, "--out", tmp_path / "x.csv",
        )
        assert result.exit_code != 0
        assert "hurst" in result.output

    def test_requires_exactly_one_input(self, runner, data_dir, tmp_path):
        result = invoke(runner, "dfa")
        assert result.exit_code != 0
        result = invoke(
            runner, "dfa", "--flows", data_dir / "flows_synth.csv"
        )
        assert result.exit_code != 0  # missing --group/--flow


class TestStageByteIdentity:
    def test_dfa_outputs_match_pipeline_artifacts(self, runner, data_dir, bundled_run, tmp_path):
        _, _, out = bundled_run
        result = invoke(
            runner, "dfa", "--flows", data_dir / "flows_synth.csv",
            "--group", "retail", "--flow", "BUY", "--include-order1",
            "--out-curve", tmp_path / "curve.csv", "--out-fit", tmp_path / "fit.json",
        )
        assert result.exit_code == 0
        assert (tmp_path / "curve.csv").read_bytes() == (out / "fig3_dfa_retail_BUY.csv").read_bytes()
        assert (tmp_path / "fit.json").read_bytes() == (out / "dfa_fit_retail_BUY.json").read_bytes()

    def test_roll_output_matches_pipeline_artifact(self, runner, data_dir, bundled_run, tmp_path):
        _, _, out = bundled_run
        result = invoke(
            runner, "roll", "--flows", data_dir / "flows_synth.csv",
            "--group", "foreign", "--flow", "NET", "--out", tmp_path / "roll.csv",
        )
        assert result.exit_code == 0
        assert (tmp_path / "roll.csv").read_bytes() == (out / "fig4_rolling_foreign_NET.csv").read_bytes()

    def test_surrogate_with_derived_seed_matches(self, runner, data_dir, bundled_run, tmp_path):
        _, report, out = bundled_run
        seed = report.provenance["stage_seeds"]["surrogate/shuffle/institutional_SELL"]
        result = invoke(
            runner, "surrogate", "--flows", data_dir / "flows_synth.csv",
            "--group", "institutional", "--flow", "SELL",
            "--kind", "shuffle", "--count", 10, "--seed", seed,
            "--out", tmp_path / "band.json",
        )
        assert result.exit_code == 0
        assert (tmp_path / "band.json").read_bytes() == (
            out / "surrogate_shuffle_institutional_SELL.json"
        ).read_bytes()

    def test_tails_outputs_match_pipeline_artifacts(self, runner, data_dir, bundled_run, tmp_path):
        _, _, out = bundled_run
        result = invoke(
            runner, "tails", "--flows", data_dir / "flows_synth.csv",
            "--group", "retail", "--flow", "NET", "--side", "absolute",
            "--out-ccdf", tmp_path / "ccdf.csv", "--out-fit", tmp_path / "fit.json",
        )
        assert result.exit_code == 0
        assert (tmp_path / "ccdf.csv").read_bytes() == (out / "fig2_ccdf_retail_NET.csv").read_bytes()
        assert (tmp_path / "fit.json").read_bytes() == (out / "tails_retail_NET.json").read_bytes()

    def test_regress_matches_pipeline_table(self, runner, data_dir, bundled_run, gap_run, tmp_path):
        """The table `flowmem regress` reads from fig4 files is the one the
        run made from its rolling exponents in memory, with or without gaps."""
        for (_, report, out), gaps in ((bundled_run, [0] * 9), (gap_run, [0] * 6 + [11] * 3)):
            assert [entry["rolling"]["n_gaps"] for entry in report.series.values()] == gaps
            result = invoke(
                runner, "regress", "--roll-dir", out,
                "--prices", data_dir / "prices_synth.csv", "--out", tmp_path / "table.csv",
            )
            assert result.exit_code == 0
            assert (tmp_path / "table.csv").read_bytes() == (out / "table1_regression.csv").read_bytes()

    def test_regress_defaults_to_the_run_config(self, runner, data_dir, tmp_path):
        out = tmp_path / "run"
        config = load_config(data_dir / "run_config.json", out_dir=str(out))
        run_pipeline(replace(config, rolling_step=25, lag_k=1, robust_se=False))
        args = ("regress", "--prices", data_dir / "prices_synth.csv", "--out", tmp_path / "table.csv")
        result = invoke(runner, *args, "--roll-dir", out)
        assert result.exit_code == 0
        assert (tmp_path / "table.csv").read_bytes() == (out / "table1_regression.csv").read_bytes()

        result = invoke(runner, *args, "--roll-dir", out, "--step", 5)
        assert result.exit_code == 2
        assert "'--step'" in result.output and "rolling step 25" in result.output

        bare = tmp_path / "bare"  # fig4 files alone: the options and their defaults rule
        bare.mkdir()
        for path in out.glob("fig4_rolling_*.csv"):
            (bare / path.name).write_bytes(path.read_bytes())
        result = invoke(runner, *args, "--roll-dir", bare, "--step", 25, "--lag", 1, "--no-robust")
        assert result.exit_code == 0
        assert (tmp_path / "table.csv").read_bytes() == (out / "table1_regression.csv").read_bytes()
        invoke(runner, *args, "--roll-dir", bare)
        assert (tmp_path / "table.csv").read_bytes() != (out / "table1_regression.csv").read_bytes()


class TestReportCommand:
    def test_reassembles_identical_report(self, runner, bundled_run, tmp_path):
        _, _, out = bundled_run
        result = invoke(runner, "report", "--dir", out, "--out", tmp_path / "report.json")
        assert result.exit_code == 0
        assert (tmp_path / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_missing_artifact_error(self, runner, bundled_run, tmp_path):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        (broken / "fig4_rolling_retail_NET.csv").unlink()
        result = invoke(runner, "report", "--dir", broken)
        assert result.exit_code != 0
        assert "fig4_rolling_retail_NET.csv" in result.output

    def test_non_utf8_artifact_error(self, runner, bundled_run, tmp_path):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        (broken / "tails_retail_BUY.json").write_bytes(b'{"side": "upp\xe9r"}')  # the byte 0xE9
        result = invoke(runner, "report", "--dir", broken)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert f"{broken / 'tails_retail_BUY.json'}: not UTF-8 text" in result.output

    @pytest.mark.parametrize("command, name, text", [
        ("regress", "fig4_rolling_retail_NET.csv", "end_date,H,stderr,r2\n2015-03-01,abc,0.1,0.9\n"),
        ("regress", "fig4_rolling_retail_NET.csv", "end_date,H,stderr,r2\n2015-03-01,0.5,0.1\n"),
        ("report", "fig4_rolling_retail_NET.csv", ""),
        ("report", "table1_regression.csv", "group,flow\n"),
    ], ids=["bad-float", "three-fields", "empty-fig4", "table-header"])
    def test_malformed_csv_artifact_fails_cleanly(self, runner, data_dir, bundled_run, tmp_path,
                                                  command, name, text):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        (broken / name).write_text(text)
        args = ("report", "--dir", broken) if command == "report" else (
            "regress", "--roll-dir", broken, "--prices", data_dir / "prices_synth.csv",
            "--out", tmp_path / "table.csv")
        result = invoke(runner, *args)
        assert result.exit_code == 1
        cause = "empty file\n" if text == "" else "line "
        assert result.output.startswith(f"Error: {broken / name}: {cause}")
        assert result.output.count("\n") == 1 and "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["regress", "report"])
    @pytest.mark.parametrize("fault", ["swapped", "repeated"])
    def test_fig4_out_of_date_order_names_both_lines(self, runner, data_dir, bundled_run, tmp_path,
                                                     command, fault):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        fig4 = broken / "fig4_rolling_retail_NET.csv"
        lines = fig4.read_text().splitlines(keepends=True)
        # lines[10] and lines[11] are the file's lines 11 and 12
        lines[10:12] = [lines[11], lines[10]] if fault == "swapped" else [lines[10], lines[10]]
        fig4.write_text("".join(lines))
        on_11, on_12 = (line.split(",")[0] for line in lines[10:12])
        args = ("report", "--dir", broken) if command == "report" else (
            "regress", "--roll-dir", broken, "--prices", data_dir / "prices_synth.csv",
            "--out", tmp_path / "table.csv")
        result = invoke(runner, *args)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {fig4}: line 12: dates must be strictly increasing: {on_12} is not after "
            f"{on_11} of line 11\n"
        )
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("command", ["regress", "report"])
    @pytest.mark.parametrize("date", ["banana", "2015-13-45"])
    def test_fig4_bad_end_date_names_file_and_line(self, runner, data_dir, bundled_run, tmp_path,
                                                   command, date):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        fig4 = broken / "fig4_rolling_retail_NET.csv"
        lines = fig4.read_text().splitlines(keepends=True)
        lines[-1] = date + lines[-1][lines[-1].index(","):]  # the last window's end date
        fig4.write_text("".join(lines))
        args = ("report", "--dir", broken) if command == "report" else (
            "regress", "--roll-dir", broken, "--prices", data_dir / "prices_synth.csv",
            "--out", tmp_path / "table.csv")
        result = invoke(runner, *args)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {fig4}: line {len(lines)}: bad date {date!r}, expected a YYYY-MM-DD date\n"
        )
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("command, prefix", [
        ("report", "Error: stage 'report': "),
        ("regress", "Error: "),  # regress runs no stage, so it names none
    ])
    def test_malformed_config_json_names_the_file(self, runner, data_dir, bundled_run, tmp_path,
                                                  command, prefix):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        (broken / "config.json").write_text("{ bad")
        args = ("report", "--dir", broken) if command == "report" else (
            "regress", "--roll-dir", broken, "--prices", data_dir / "prices_synth.csv",
            "--out", tmp_path / "table.csv")
        result = invoke(runner, *args)
        assert result.exit_code == 1
        expected = f"{prefix}malformed artifact {broken / 'config.json'}: Expecting property name"
        assert result.output.startswith(expected)
        assert result.output.count("\n") == 1 and "Traceback" not in result.output


    @pytest.mark.parametrize("command, prefix", [
        ("report", "Error: stage 'report': "),
        ("regress", "Error: "),  # regress runs no stage, so it names none
    ])
    def test_bad_config_value_names_the_file(self, runner, data_dir, bundled_run, tmp_path,
                                             command, prefix):
        import shutil

        _, _, out = bundled_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        config = json.loads((broken / "config.json").read_text())
        (broken / "config.json").write_text(json.dumps({**config, "flows_csv": 5}))
        args = ("report", "--dir", broken) if command == "report" else (
            "regress", "--roll-dir", broken, "--prices", data_dir / "prices_synth.csv",
            "--out", tmp_path / "table.csv")
        result = invoke(runner, *args)
        assert result.exit_code == 1
        expected = f"{prefix}{broken / 'config.json'}: config key 'flows_csv': invalid value 5\n"
        assert result.output == expected
        assert not (tmp_path / "table.csv").exists()


class TestRunCommand:
    def test_run_writes_report_and_prints_summary(self, runner, data_dir, tmp_path):
        result = invoke(
            runner, "run", "--config", data_dir / "run_config.json",
            "--out", tmp_path / "out", "--seed", 99,
        )
        assert result.exit_code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert result.output.count("hurst=") == 9
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert prov["seed"] == 99

    def test_bad_config_fails_cleanly_naming_key(self, runner, data_dir, tmp_path):
        config = json.loads((data_dir / "run_config.json").read_text())
        config["seed"] = "abc"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        result = invoke(runner, "run", "--config", bad, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert "stage 'config'" in result.output and "'seed'" in result.output
        assert not (tmp_path / "out").exists()

    def test_no_ignored_options(self, runner):
        assert "--threads" not in invoke(runner, "run", "--help").output
        assert "--window" not in invoke(runner, "regress", "--help").output

    def test_regress_step_below_one_is_a_usage_error(self, runner, data_dir, bundled_run, tmp_path):
        _, _, out = bundled_run
        for step in (0, -3):
            result = invoke(
                runner, "regress", "--roll-dir", out, "--prices", data_dir / "prices_synth.csv",
                "--step", step, "--out", tmp_path / "table.csv",
            )
            assert result.exit_code == 2
            assert "--step" in result.output and "no overlapping" not in result.output
        assert not (tmp_path / "table.csv").exists()

    def test_run_error_names_stage(self, runner, data_dir, tmp_path):
        config = json.loads((data_dir / "run_config.json").read_text())
        config["rolling"]["window"] = 10_000
        config["flows_csv"] = str(data_dir / "flows_synth.csv")
        config["prices_csv"] = str(data_dir / "prices_synth.csv")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        result = invoke(runner, "run", "--config", bad, "--out", tmp_path / "out")
        assert result.exit_code != 0
        assert "rolling" in result.output


# One row per bad value of an option (or argument) and per output path that
# cannot be written: the command line, then what its one `Error:` line must
# name. Both are templates over {flows}, {prices}, {run} (a finished run),
# {empty} (an empty directory), {series} (a date,value file), {file} (a
# regular file), {missing} (a path that does not exist), {out} (a writable
# path, which a failed command must not create, nor its sidecar), {written}
# (a writable path that the command writes before it fails) and
# {unwritable} (a path in a directory that does not exist).
SERIES = "--flows {flows} --group retail --flow NET"
SYNTH = "-n 10 --seed 1 --out {out}"
REGRESS = "regress --roll-dir {run} --prices {prices}"
BOUNDARY_CASES = {
    "ingest-check-missing": ("ingest-check {missing}", "'FLOWS_CSV'"),
    "ingest-check-series-file": ("ingest-check {series}", "{series}: line 1"),
    "series-kind": (f"synth series --kind nope {SYNTH}", "'--kind'"),
    "series-no-hurst": (f"synth series --kind fgn {SYNTH}", "requires hurst"),
    "series-hurst": (f"synth series --kind fgn --hurst 1.5 {SYNTH}", "hurst must be in (0, 1)"),
    "series-alpha": (f"synth series --kind pareto --alpha -1 {SYNTH}", "alpha must be positive"),
    "series-hurst-for-no-param-kind": (f"synth series --kind iid_gaussian --hurst 0.7 {SYNTH}",
                                       "kind 'iid_gaussian' takes no hurst"),
    "series-alpha-for-hurst-kind": (f"synth series --kind fgn --hurst 0.7 --alpha 2 {SYNTH}",
                                    "kind 'fgn' takes no alpha"),
    "series-length": ("synth series --kind iid_gaussian -n 0 --seed 1 --out {out}", "'--length'"),
    "series-length-fgn": ("synth series --kind fgn --hurst 0.7 -n 1 --seed 1 --out {out}",
                          "'--length': fgn needs n >= 2, got 1"),
    "series-seed": ("synth series --kind iid_gaussian -n 5 --seed -1 --out {out}", "'--seed'"),
    "series-start-date": (f"synth series --kind iid_gaussian --start-date 2020-13-01 {SYNTH}",
                          "'--start-date'"),
    "series-start-date-late": (f"synth series --kind iid_gaussian --start-date 9999-12-30 {SYNTH}",
                               "'--start-date'"),
    "series-out": ("synth series --kind iid_gaussian -n 5 --seed 1 --out {unwritable}",
                   "{unwritable}: "),
    "flows-param-for-no-param-kind": (f"synth flows --group retail=iid_gaussian:0.5 {SYNTH}",
                                      "'retail=iid_gaussian:0.5': iid_gaussian takes no parameter"),
    "flows-malformed-group": (f"synth flows --group retail=fgn:1.2.3 {SYNTH}", "'retail=fgn:1.2.3'"),
    "flows-unknown-kind": (f"synth flows --group retail=nope {SYNTH}", "'nope'"),
    "flows-length": ("synth flows --group retail=iid_gaussian -n 0 --seed 1 --out {out}",
                     "'--length'"),
    "flows-length-fgn": ("synth flows --group retail=fgn:0.7 -n 1 --seed 1 --out {out}",
                         "'--length': fgn needs n >= 2, got 1"),
    "flows-seed": ("synth flows --group retail=iid_gaussian -n 5 --seed -1 --out {out}", "'--seed'"),
    "flows-start-date": (f"synth flows --group retail=iid_gaussian --start-date x {SYNTH}",
                         "'--start-date'"),
    "flows-out": ("synth flows --group retail=iid_gaussian -n 5 --seed 1 --out {unwritable}",
                  "{unwritable}: "),
    "prices-length": ("synth prices -n 0 --seed 1 --out {out}", "'--length'"),
    "prices-seed": ("synth prices -n 5 --seed -1 --out {out}", "'--seed'"),
    "prices-daily-vol": (f"synth prices --daily-vol nan {SYNTH}", "'--daily-vol'"),
    "prices-start-date": (f"synth prices --start-date 2020-02-30 {SYNTH}", "'--start-date'"),
    "prices-out": ("synth prices -n 5 --seed 1 --out {unwritable}", "{unwritable}: "),
    "dfa-series-missing": ("dfa --series {missing}", "'--series'"),
    "dfa-flows-missing": ("dfa --flows {missing} --group retail --flow NET", "'--flows'"),
    "dfa-flows-without-group": ("dfa --flows {flows}", "--group"),
    "dfa-group": ("dfa --flows {flows} --group nope --flow NET", "'--group'"),
    "dfa-flow": ("dfa --flows {flows} --group retail --flow nope", "'--flow'"),
    "dfa-order": (f"dfa {SERIES} --order -1", "detrend_order"),
    "dfa-n-min": (f"dfa {SERIES} --n-min 1", "n_min"),
    "dfa-n-max-fraction": (f"dfa {SERIES} --n-max-fraction 2", "n_max_fraction"),
    "dfa-n-scales": (f"dfa {SERIES} --n-scales 2", "at least 4 scales"),
    "dfa-min-blocks": (f"dfa {SERIES} --min-blocks 0", "min_blocks"),
    "dfa-out-curve": (f"dfa {SERIES} --out-curve {{unwritable}}", "{unwritable}: "),
    "dfa-out-fit": (f"dfa {SERIES} --out-fit {{unwritable}}", "{unwritable}: "),
    "roll-window": (f"roll {SERIES} --window 1 --out {{out}}", "'--window'"),
    "roll-window-longer-than-series": (f"roll {SERIES} --window 700 --out {{out}}", "window 700"),
    "roll-step": (f"roll {SERIES} --step 0 --out {{out}}", "'--step'"),
    "roll-out": (f"roll {SERIES} --out {{unwritable}}", "{unwritable}: "),
    "surrogate-kind": (f"surrogate {SERIES} --kind nope --seed 1 --out {{out}}", "'--kind'"),
    "surrogate-count": (f"surrogate {SERIES} --kind shuffle --count 0 --seed 1 --out {{out}}",
                        "'--count'"),
    "surrogate-seed": (f"surrogate {SERIES} --kind shuffle --seed -1 --out {{out}}", "'--seed'"),
    "surrogate-out": (f"surrogate {SERIES} --kind shuffle --count 2 --seed 1 --out {{unwritable}}",
                      "{unwritable}: "),
    "surrogate-out-values": (
        f"surrogate {SERIES} --kind shuffle --count 2 --seed 1 --out {{written}} "
        "--out-values {unwritable}", "{unwritable}: "),
    "tails-side": (f"tails {SERIES} --side nope", "'--side'"),
    "tails-tail-fraction-above-1": (f"tails {SERIES} --tail-fraction 2", "'--tail-fraction'"),
    "tails-tail-fraction-0": (f"tails {SERIES} --tail-fraction 0", "'--tail-fraction'"),
    "tails-out-ccdf": (f"tails {SERIES} --out-ccdf {{unwritable}}", "{unwritable}: "),
    "tails-out-fit": (f"tails {SERIES} --out-fit {{unwritable}}", "{unwritable}: "),
    "regress-roll-dir-missing": ("regress --roll-dir {missing} --prices {prices} --out {out}",
                                 "'--roll-dir'"),
    "regress-roll-dir-empty": ("regress --roll-dir {empty} --prices {prices} --out {out}", "{empty}"),
    "regress-prices": ("regress --roll-dir {run} --prices {missing} --out {out}", "'--prices'"),
    "regress-step": (f"{REGRESS} --step 0 --out {{out}}", "'--step'"),
    "regress-step-not-the-runs": (f"{REGRESS} --step 7 --out {{out}}", "'--step'"),
    "regress-fill": (f"{REGRESS} --fill nope --out {{out}}", "'--fill'"),
    "regress-lag": (f"{REGRESS} --lag -1 --out {{out}}", "'--lag'"),
    "regress-lag-longer-than-data": (f"{REGRESS} --lag 100000 --out {{out}}", "lag 100000"),
    "regress-out": (f"{REGRESS} --out {{unwritable}}", "{unwritable}: "),
    "report-dir-missing": ("report --dir {missing}", "'--dir'"),
    "report-dir-without-run": ("report --dir {empty}", "config.json"),
    "report-out": ("report --dir {run} --out {unwritable}", "{unwritable}: "),
    "run-config": ("run --config {missing}", "'--config'"),
    "run-seed": ("run --config {config} --seed -1 --out {out}", "'--seed'"),
    "run-out-under-a-file": ("run --config {config} --out {file}/sub", "{file}/sub: "),
}


@pytest.mark.parametrize("command, names", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
def test_bad_option_or_output_path_is_one_error_line(runner, data_dir, bundled_run, tmp_path,
                                                     command, names):
    (tmp_path / "empty").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "series.csv").write_text("date,value\n2020-01-02,1.5\n2020-01-03,0.5\n")
    paths = {
        "flows": data_dir / "flows_synth.csv",
        "prices": data_dir / "prices_synth.csv",
        "config": data_dir / "run_config.json",
        "run": bundled_run[2],
        "missing": tmp_path / "missing",
        "unwritable": tmp_path / "missing" / "out.txt",
        **{name: tmp_path / name for name in ("empty", "file", "out", "written")},
        "series": tmp_path / "series.csv",
    }
    result = runner.invoke(main, [token.format(**paths) for token in command.split()])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code in (1, 2) and "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert names.format(**paths) in errors[0]
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("out")]


def test_run_whose_out_dir_cannot_be_made_leaves_nothing(runner, data_dir, tmp_path):
    (tmp_path / "file").write_text("not a directory\n")
    result = runner.invoke(
        main, ["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "file" / "sub")]
    )
    assert result.exit_code == 1
    assert result.output == f"Error: {tmp_path / 'file' / 'sub'}: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "not a directory\n"


# Each stage option that sets a config key: the command line (templates as in
# BOUNDARY_CASES, plus {value} and {fig4}, a directory of a run's fig4 files
# without its config.json), the option, the key, the values its rule allows
# at the boundary (each value of a choice) and the first value it rejects.
RANGE_CASES = {
    "roll-window": (f"roll {SERIES} --window {{value}} --out {{out}}", "--window",
                    "rolling.window", [2], 1),
    "roll-step": (f"roll {SERIES} --step {{value}} --out {{out}}", "--step", "rolling.step", [1], 0),
    "regress-step": ("regress --roll-dir {fig4} --prices {prices} --step {value} --out {out}",
                     "--step", "rolling.step", [1], 0),
    "surrogate-count": (f"surrogate {SERIES} --kind shuffle --count {{value}} --seed 1 --out {{out}}",
                        "--count", "surrogates.count", [1], 0),
    "surrogate-kind": (f"surrogate {SERIES} --kind {{value}} --count 1 --seed 1 --out {{out}}",
                       "--kind", "surrogates.kinds", list(SURROGATE_KINDS), "nope"),
    "surrogate-seed": (f"surrogate {SERIES} --kind shuffle --count 1 --seed {{value}} --out {{out}}",
                       "--seed", "seed", [0], -1),
    "regress-lag": (f"{REGRESS} --lag {{value}} --out {{out}}", "--lag", "regression.lag_k", [0], -1),
    "regress-fill": (f"{REGRESS} --fill {{value}} --out {{out}}", "--fill", "regression.fill_policy",
                     list(FILL_POLICIES), "nope"),
    "tails-tail-fraction-high": (f"tails {SERIES} --tail-fraction {{value}}", "--tail-fraction",
                                 "tails.tail_fraction", [1.0], math.nextafter(1.0, 2.0)),
    "tails-tail-fraction-low": (f"tails {SERIES} --tail-fraction {{value}}", "--tail-fraction",
                                "tails.tail_fraction", [5e-324], 0.0),
    "tails-side": (f"tails {SERIES} --side {{value}}", "--side", "tails.net_side",
                   list(TAIL_SIDES), "nope"),
    "run-seed": ("run --config {config} --seed {value} --out {out}", "--seed", "seed", [0], -1),
}


@pytest.mark.parametrize("command, option, key, allowed, rejected", RANGE_CASES.values(),
                         ids=RANGE_CASES)
def test_cli_ranges_match_the_config_rules(runner, data_dir, bundled_run, tmp_path,
                                           command, option, key, allowed, rejected):
    (tmp_path / "fig4").mkdir()
    for path in bundled_run[2].glob("fig4_rolling_*.csv"):
        (tmp_path / "fig4" / path.name).write_bytes(path.read_bytes())
    paths = {
        "flows": data_dir / "flows_synth.csv",
        "prices": data_dir / "prices_synth.csv",
        "config": data_dir / "run_config.json",
        "run": bundled_run[2],
        "fig4": tmp_path / "fig4",
        "out": tmp_path / "out",
    }
    base = json.loads((data_dir / "run_config.json").read_text())

    def config_with(value):
        data = json.loads(json.dumps(base))
        block, _, name = key.rpartition(".")
        (data[block] if block else data)[name] = [value] if key == "surrogates.kinds" else value
        return config_from_json_dict(data, base_dir=str(data_dir))

    def cli_with(value):
        args = [token.format(value=value, **paths) for token in command.split()]
        return runner.invoke(main, args)

    for value in allowed:
        config_with(value)
        result = cli_with(value)
        assert result.exit_code != 2, result.output
    with pytest.raises(PipelineError, match=re.escape(f"config key {key!r}: invalid value")):
        config_with(rejected)
    result = cli_with(rejected)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and f"'{option}'" in errors[0], result.output


def _commands(group, path=()):
    """Every command path under a click group, the group's own included."""
    yield path
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _commands(command, path + (name,))
        else:
            yield path + (name,)


@pytest.mark.parametrize("path", list(_commands(main)), ids=lambda path: " ".join(path) or "main")
def test_help_lists_every_option(runner, path):
    command = main
    for name in path:
        command = command.commands[name]
    result = runner.invoke(main, [*path, "--help"])
    assert result.exit_code == 0 and result.exception is None, result.output
    for param in command.params:
        if isinstance(param, click.Option):
            for opt in param.opts + param.secondary_opts:
                assert opt in result.output


@pytest.mark.parametrize("option, value, text", [
    ("--order", -1, "detrend_order must be >= 0, got -1"),
    ("--n-min", 1, "n_min=1 leaves order-2 block fits underdetermined"),
    ("--n-max-fraction", 2, "n_max_fraction must be in (0, 1], got 2.0"),
    ("--n-scales", 2, "need at least 4 scales, got 2"),
    ("--min-blocks", 0, "min_blocks must be >= 2, got 0"),
], ids=["order", "n-min", "n-max-fraction", "n-scales", "min-blocks"])
def test_rejected_dfa_config_is_a_usage_error(runner, data_dir, option, value, text):
    result = invoke(runner, "dfa", "--flows", data_dir / "flows_synth.csv", "--group", "retail",
                    "--flow", "NET", option, value)
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [f"Error: {text}"]
