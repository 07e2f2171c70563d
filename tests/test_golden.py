"""Golden gate: the figure CSVs and the table1 stdout must match the reference
outputs of the benchmark (``perfbench/reference/``), checked by the
benchmark's own comparison (values within 1e-12 relative, every other cell,
the file set and the stdout exact).  The reference files are only read.

``golden/table1_minima.json`` holds what the table1 stdout cannot show: each
row's label, verdict and ``repr`` of its minimum over the standard grid, as
``table1_report()`` gave them before the figures pipeline came to share
states and moment tables.

``golden/sweep_standard.csv.gz`` is the standard-grid sweep (ngbs at M=20,
the six standard q values, the 99-point p grid, every witness, both engines;
15,444 rows) as ``twomode sweep`` wrote it before the oracle answered
number-changing moments of fixed-total states from the selection rule.  It
is the only gate on the ``epr``, ``su11`` and ``cs`` witnesses and on
``--engine both`` through the CSV writer.

The benchmark's comparison reads ``-0.0`` and ``0.0`` as equal, but their
bytes differ, and the sign of a zero decides what ``min()`` keeps in
``table1``.  So the figure CSVs and the sweep must also match the reference
as text in every value cell that reads zero on either side."""

import csv
import gzip
import importlib.util
import json
from pathlib import Path

import pytest

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


def _is_zero(cell: str) -> bool:
    try:
        return float(cell) == 0.0
    except ValueError:
        return False


def assert_zero_cells_match(actual: str, reference: str, label: str) -> None:
    """Every value cell that reads zero on either side matches as text."""
    got = list(csv.reader(actual.splitlines()))
    want = list(csv.reader(reference.splitlines()))
    header = want[0]
    columns = [i for i, name in enumerate(header) if name in check.VALUE_COLUMNS]
    for line, (row, ref) in enumerate(zip(got, want), start=1):
        for i in columns:
            if _is_zero(row[i]) or _is_zero(ref[i]):
                assert row[i] == ref[i], f"{label}:{line}: {header[i]}={row[i]} vs {ref[i]}"


def test_figures_match_reference(tmp_path):
    reproduce_figures(tmp_path)
    workload = WORKLOADS["figures"]
    check.check_outputs(workload, tmp_path, stdout="")
    for name in workload.csv_files:
        assert_zero_cells_match((tmp_path / name).read_text(),
                                check.read_reference("figures", name), name)


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


STANDARD_SWEEP = [
    "sweep", "--state", "ngbs", "--M", "20", "--q=-0.01,-0.005,0,0.005,0.01,0.1",
    "--p", "0.01:0.99:99", "--witness", "hoa:2,2", "--witness", "hoa:5,1",
    "--witness", "hoa:9,1", "--witness", "quadx", "--witness", "quady",
    "--witness", "sum", "--witness", "sv", "--witness", "epr", "--witness", "su11",
    "--witness", "cs", "--engine", "both",
]


def test_standard_sweep_matches_golden(tmp_path):
    assert main([*STANDARD_SWEEP, "--out", str(tmp_path)]) == 0
    with gzip.open(GOLDEN / "sweep_standard.csv.gz", "rt", newline="") as handle:
        reference = handle.read()
    actual = (tmp_path / "sweep.csv").read_text()
    check.compare_csv_text(actual, reference, "sweep_standard")
    assert_zero_cells_match(actual, reference, "sweep_standard")


def test_zero_cells_must_match_in_sign():
    reference = "value,status\n0.0,ok\n-0.0,ok\n1.5,ok\n"
    assert_zero_cells_match(reference, reference, "same")
    for flipped in ("value,status\n-0.0,ok\n-0.0,ok\n1.5,ok\n",
                    "value,status\n0.0,ok\n0.0,ok\n1.5,ok\n"):
        # the benchmark's comparison lets the flip through; this gate does not
        assert check.compare_csv_text(flipped, reference, "flipped") == 0.0
        with pytest.raises(AssertionError):
            assert_zero_cells_match(flipped, reference, "flipped")
