import time
from pathlib import Path

import pytest

SESSION_T0 = time.perf_counter()

# one "criterion NN PASS/FAIL" line per acceptance criterion, echoed in the
# terminal summary so they are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_collection_modifyitems(config, items):
    # acceptance runs last: the per-module suites gate it, and its wall-clock
    # check then covers nearly the whole session
    items.sort(key=lambda item: item.module.__name__ == "test_acceptance")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory, data_dir):
    """One pipeline run of the bundled synthetic dataset, shared read-only."""
    from flowmem.pipeline import load_config, run_pipeline

    out = tmp_path_factory.mktemp("bundled_run")
    config = load_config(data_dir / "run_config.json", out_dir=str(out))
    report = run_pipeline(config)
    return config, report, out


@pytest.fixture(scope="session")
def gap_run(tmp_path_factory, data_dir):
    """The bundled run with foreign BUY and SELL flat at 0.0 on days 150-449,
    which leaves 11 gap windows in each foreign series; shared read-only."""
    from dataclasses import replace

    from flowmem.pipeline import load_config, run_pipeline

    root = tmp_path_factory.mktemp("gap_run")
    lines = (data_dir / "flows_synth.csv").read_text().splitlines(keepends=True)
    flat = set(sorted({line.split(",")[0] for line in lines[1:]})[150:450])
    for i, line in enumerate(lines):
        date, group, _, _ = line.split(",")
        if group == "foreign" and date in flat:
            lines[i] = f"{date},foreign,0.0,0.0\n"
    flows = root / "flows.csv"
    flows.write_text("".join(lines))
    out = root / "out"
    config = load_config(data_dir / "run_config.json", out_dir=str(out))
    config = replace(config, flows_csv=str(flows))
    report = run_pipeline(config)
    return config, report, out
