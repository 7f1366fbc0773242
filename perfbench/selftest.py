"""Shows that the benchmark's output check can fail.

    python3 perfbench/selftest.py

Runs a small wide-schema workload twice through the benchmark workers,
checks that both runs pass, then breaks the outputs in the ways the check
is meant to catch and asserts that each one raises the failed share.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)
from check import judge  # noqa: E402
from workloads import HURST, Workload, generate  # noqa: E402

SMALL = Workload("selftest", days=1000, surrogates=4, step=50)


def fail_frac(runs, hurst=HURST) -> float:
    verdicts = judge(runs, SMALL, hurst)
    return sum(1 for v in verdicts if v) / len(verdicts)


class CheckCanFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        inputs = generate(SMALL, 5, cls.work / "inputs")
        cls.good = run.run_repeats(inputs["config"], cls.work, 0, 5, None,
                                   run.Deadline(run.DEADLINE_S))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def setUp(self):
        # each test breaks its own copy of the two output directories
        self.runs = []
        for k, good in enumerate(self.good):
            out_dir = self.work / f"case{self._testMethodName}{k}"
            shutil.copytree(good["out_dir"], out_dir)
            self.runs.append(dict(good, out_dir=str(out_dir)))

    def edit_json(self, name, edit, runs=None):
        for r in runs or self.runs:
            path = Path(r["out_dir"]) / name
            data = json.loads(path.read_text(encoding="utf-8"))
            edit(data)
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    def test_correct_runs_pass(self):
        self.assertEqual(len(self.runs), 2)
        self.assertEqual(judge(self.runs, SMALL), [[], []])

    def test_perturbed_artifact_fails(self):
        path = Path(self.runs[1]["out_dir"]) / "fig4_rolling_retail_BUY.csv"
        path.write_bytes(path.read_bytes().replace(b"0.", b"0.0", 1))
        self.assertEqual(fail_frac(self.runs), 1.0)

    def test_report_mismatch_fails(self):
        self.runs[0]["report_identical"] = False
        self.assertEqual(fail_frac(self.runs), 0.5)

    def test_raised_run_fails(self):
        self.runs[1] = dict(self.runs[1], error="Traceback\nPipelineError: boom\n")
        self.assertEqual(fail_frac(self.runs), 0.5)

    def test_wrong_h_in_artifact_fails(self):
        def shift(data):
            data["fit"]["hurst"] += 0.3

        self.edit_json("dfa_fit_foreign_NET.json", shift)
        self.assertEqual(fail_frac(self.runs), 1.0)

    def test_wrong_generating_h_fails(self):
        wrong = {group: h - 0.3 for group, h in HURST.items()}
        self.assertEqual(fail_frac(self.runs, wrong), 1.0)

    def test_shuffle_band_off_null_fails(self):
        def shift(data):
            data["mean"] = 0.75

        self.edit_json("surrogate_shuffle_retail_SELL.json", shift)
        self.assertEqual(fail_frac(self.runs), 1.0)

    def test_wrong_counts_fail(self):
        def drop(data):
            data["count"] -= 1
            data["hurst_values"].pop()

        self.edit_json("surrogate_phase_randomize_institutional_BUY.json", drop)
        self.assertEqual(fail_frac(self.runs), 1.0)


if __name__ == "__main__":
    unittest.main()
