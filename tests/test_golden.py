"""Golden gate: the figure CSVs and the table1 stdout must match the reference
outputs of the benchmark (``perfbench/reference/``), checked by the
benchmark's own comparison (values within 1e-12 relative, every other cell,
the file set and the stdout exact).  The reference files are only read.

``golden/table1_minima.json`` holds what the table1 stdout cannot show: each
row's label, verdict and ``repr`` of its minimum over the standard grid, as
``table1_report()`` gave them before the figures pipeline came to share
states and moment tables."""

import importlib.util
import json
from pathlib import Path

from twomode.cli import main
from twomode.sweep import reproduce_figures, table1_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
WORKLOADS = _load("workloads").WORKLOADS


def test_figures_match_reference(tmp_path):
    reproduce_figures(tmp_path)
    check.check_outputs(WORKLOADS["figures"], tmp_path, stdout="")


def test_table1_stdout_matches_reference(tmp_path, capsys):
    assert main(["table1"]) == 0
    check.check_outputs(WORKLOADS["table1"], tmp_path, capsys.readouterr().out)


def test_table1_minima_match_golden():
    golden = json.loads((GOLDEN / "table1_minima.json").read_text())
    rows = table1_report()
    assert [row.label for row in rows] == [ref["label"] for ref in golden]
    for row, ref in zip(rows, golden):
        assert row.present is ref["present"], row.label
        expected = float(ref["minimum"])
        # the relative deviation of the benchmark's check: |d| / max(1, |ref|)
        assert abs(row.minimum - expected) <= 1e-12 * max(1.0, abs(expected)), row.label
