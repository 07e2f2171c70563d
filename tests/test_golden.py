"""Golden gate: the figure CSVs and the table1 stdout must match the reference
outputs of the benchmark (``perfbench/reference/``), checked by the
benchmark's own comparison (values within 1e-12 relative, every other cell,
the file set and the stdout exact).  The reference files are only read."""

import importlib.util
from pathlib import Path

from twomode.cli import main
from twomode.sweep import reproduce_figures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
