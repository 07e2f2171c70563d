"""Compare a workload's outputs with the reference outputs of the seed commit.

Usage: python3 perfbench/check.py WORKLOAD OUT_DIR STDOUT_FILE
prints the largest value deviation, or exits 1 naming the first mismatch.

Value cells are compared numerically: the deviation of a value is
``|actual - reference| / max(1, |reference|)`` and must not exceed 1e-12.
The floor of 1 follows the program's own strict-zero guard
(``value < -1e-12 * max(1, scale)``): a witness that sits at zero carries
only rounding residue, which has no relative precision.  Every other cell,
the header and the row count must match exactly.
"""

import csv
import gzip
import math
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-12

# columns holding computed values; all others are compared as text
VALUE_COLUMNS = {"value", "literal", "oracle", "abs_discrepancy"}


class Mismatch(Exception):
    """An output differs from its reference."""


def reference_path(workload: str, filename: str) -> Path:
    return REFERENCE_DIR / workload / (filename + ".gz")


def read_reference(workload: str, filename: str) -> str:
    with gzip.open(reference_path(workload, filename), "rt", newline="") as handle:
        return handle.read()


def _deviation(actual: str, reference: str) -> float:
    if actual == reference:
        return 0.0
    try:
        a, r = float(actual), float(reference)
    except ValueError:
        return math.inf
    if not (math.isfinite(a) and math.isfinite(r)):
        return math.inf
    return abs(a - r) / max(1.0, abs(r))


def compare_csv_text(actual: str, reference: str, label: str) -> float:
    """Return the largest value deviation; raise Mismatch on any other difference."""
    got = list(csv.reader(actual.splitlines()))
    want = list(csv.reader(reference.splitlines()))
    if not want or got[:1] != want[:1]:
        raise Mismatch(f"{label}: header {got[:1]} != {want[:1]}")
    if len(got) != len(want):
        raise Mismatch(f"{label}: {len(got) - 1} rows, reference has {len(want) - 1}")
    header = want[0]
    value_idx = {i for i, name in enumerate(header) if name in VALUE_COLUMNS}
    worst = 0.0
    for line, (row, ref) in enumerate(zip(got, want), start=1):
        if len(row) != len(ref):
            raise Mismatch(f"{label}:{line}: {len(row)} cells, reference has {len(ref)}")
        for i, (cell, ref_cell) in enumerate(zip(row, ref)):
            if i in value_idx:
                dev = _deviation(cell, ref_cell)
                if dev > TOLERANCE:
                    raise Mismatch(f"{label}:{line}: {header[i]}={cell} vs "
                                   f"{ref_cell} (deviation {dev:.3g})")
                worst = max(worst, dev)
            elif cell != ref_cell:
                raise Mismatch(f"{label}:{line}: {header[i]}={cell!r} vs {ref_cell!r}")
    return worst


def check_outputs(workload, out_dir: Path, stdout: str) -> float:
    """Check every output of one run; return the largest value deviation."""
    expected = set(workload.csv_files) | set(workload.other_files)
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        raise Mismatch(f"{workload.name}: files {sorted(found ^ expected)} "
                       f"missing or unexpected")
    for name in workload.other_files:
        if (out_dir / name).stat().st_size == 0:
            raise Mismatch(f"{workload.name}: {name} is empty")
    worst = 0.0
    for name in workload.csv_files:
        worst = max(worst, compare_csv_text(
            (out_dir / name).read_text(), read_reference(workload.name, name),
            f"{workload.name}/{name}"))
    if workload.check_stdout and stdout != read_reference(workload.name, "stdout.txt"):
        raise Mismatch(f"{workload.name}: stdout differs from the reference")
    return worst


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    name, out_dir, stdout_file = argv
    try:
        dev = check_outputs(WORKLOADS[name], Path(out_dir), Path(stdout_file).read_text())
    except Mismatch as exc:
        print(exc, file=sys.stderr)
        return 1
    print(repr(dev))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
