"""The two benchmark workloads: the command each runs and what it must produce.

Every workload is one ``twomode`` command, run closed loop (one process,
one command at a time).  The seed permutes the order of the values given
on the command line; the program sorts them, so the work and the outputs
are the same for every seed and are checked against one reference.
``figures`` takes no inputs apart from its output directory.  Why each
workload is in the benchmark is recorded in BENCHMARK.json.
"""

import random
from dataclasses import dataclass

STANDARD_Q = ("-0.01", "-0.005", "0", "0.005", "0.01", "0.1")
STANDARD_M = ("10", "20")

FIGURE_PANELS = (
    "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b",
    "fig4a", "fig4b", "fig5a", "fig5b",
)

# Span names as recorded by the tracer (see trace_child.py).
NGBS = "states.ngbs"
LITERAL = "moments.literal"
ORACLE = "fock.oracle"
COMPARE = "moments.compare"
EVALUATE = "witnesses.evaluate"
CSV = "sweep.csv"
RENDER = "svgplot.render"


@dataclass(frozen=True)
class Workload:
    name: str
    # fixed output size, the numerator of rows_per_s
    rows: int
    # CSV files the command writes, compared with reference/<name>/
    csv_files: tuple[str, ...]
    # other files it must write (not compared)
    other_files: tuple[str, ...]
    # compare stdout with reference/<name>/stdout.txt
    check_stdout: bool
    # spans that must record calls in a traced run
    required_spans: tuple[str, ...]

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """The twomode command line for this workload and seed."""
        rng = random.Random(f"{self.name}:{seed}")

        def shuffled(values):
            values = list(values)
            rng.shuffle(values)
            return values

        if self.name == "figures":
            return ["figures", "--out", out_dir]
        if self.name == "table1":
            return ["table1", "--q", ",".join(shuffled(STANDARD_Q)),
                    "--M", ",".join(shuffled(STANDARD_M))]
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="figures",
            rows=24929,
            csv_files=tuple(f"{p}.csv" for p in FIGURE_PANELS) + ("discrepancy_report.csv",),
            other_files=tuple(f"{p}.svg" for p in FIGURE_PANELS),
            check_stdout=False,
            required_spans=(NGBS, EVALUATE, LITERAL, ORACLE, COMPARE, CSV, RENDER),
        ),
        Workload(
            name="table1",
            rows=8316,
            csv_files=(),
            other_files=(),
            check_stdout=True,
            required_spans=(NGBS, EVALUATE, LITERAL),
        ),
    )
}
