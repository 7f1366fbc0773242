import json
import re

import pytest
from click.testing import CliRunner

from flowmem.cli import main


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

    def test_regress_matches_pipeline_table(self, runner, data_dir, bundled_run, tmp_path):
        _, _, out = bundled_run
        result = invoke(
            runner, "regress", "--roll-dir", out,
            "--prices", data_dir / "prices_synth.csv", "--out", tmp_path / "table.csv",
        )
        assert result.exit_code == 0
        assert (tmp_path / "table.csv").read_bytes() == (out / "table1_regression.csv").read_bytes()


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
