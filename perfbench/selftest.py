"""Self-test of the tracer and the output check at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every wrapped layer function is found and records calls, that
moment spans nest under the witness evaluation that caused them, that the
layer self times add up to the traced wall time, that a missing layer
function or a silent required span fails the traced run, and that the
output check rejects a value moved by 1e-9 relative.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import check
import trace_child
from workloads import CSV, EVALUATE, LITERAL, NGBS, ORACLE, RENDER

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
TINY_SWEEP = ["sweep", "--state", "ngbs", "--M", "4", "--q", "0,0.01", "--p", "0.2:0.8:3",
              "--engine", "both", "--witness", "quadx", "--witness", "su11"]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_tracer(work: Path) -> None:
    tracer = trace_child.Tracer()
    tracer.install()
    import twomode.cli

    start = time.perf_counter()
    code = twomode.cli.main([*TINY_SWEEP, "--out", str(work / "sweep")])
    wall = time.perf_counter() - start
    expect(code == 0, f"tiny sweep exited {code}")
    s = tracer.summary(wall)
    calls = s["calls"]
    # 2 q x 3 p states; 2 witnesses x 2 engines per state
    expect(calls.get(NGBS) == 6, f"ngbs calls {calls.get(NGBS)} != 6")
    expect(calls.get(EVALUATE) == 24, f"evaluate calls {calls.get(EVALUATE)} != 24")
    expect(calls.get(CSV) == 1 and s["sweep.csv.rows"] == 24, "one CSV with 24 rows")
    expect(calls.get(LITERAL, 0) > 0 and calls.get(ORACLE, 0) > 0, "both engines called")
    expect(RENDER not in calls, "no SVG rendered by a csv sweep")
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    parents = {names.get(parent) for _, parent, name, _, _ in tracer.spans
               if name in (LITERAL, ORACLE)}
    expect(parents == {EVALUATE}, f"moment spans nest under {parents}")
    total = sum(s["self_s"].values()) + s["sweep.self_s"]
    expect(abs(total - wall) <= 1e-9 * wall, f"self times add up to {total}, wall {wall}")
    expect(0.0 < s["moments.distinct_ratio"] <= 1.0, "moments.distinct_ratio in (0, 1]")
    expect(s["witnesses.moments_per_eval"] > 1.0, "several moments per evaluation")
    expect(s["states.ngbs.distinct_ratio"] == 1.0, "each tiny-sweep state built once")


def check_missing_layer() -> None:
    layers = dict(trace_child.LAYER_FUNCTIONS)
    trace_child.LAYER_FUNCTIONS[("twomode.sweep", "no_such_layer")] = "states.renamed"
    try:
        trace_child.Tracer().install()
    except trace_child.LayerMissing:
        return
    finally:
        trace_child.LAYER_FUNCTIONS.clear()
        trace_child.LAYER_FUNCTIONS.update(layers)
    raise SystemExit("selftest: a missing layer function was not reported")


def check_silent_span(work: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(Path(trace_child.__file__)), "--require", RENDER,
         "--json", str(work / "trace.json"), "--", *TINY_SWEEP, "--out", str(work / "silent")],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)))
    expect(proc.returncode == 3, f"silent required span gave exit {proc.returncode}")
    expect(not (work / "trace.json").exists(), "no summary written by a failed trace")


def check_output_check() -> None:
    reference = check.read_reference("figures", "fig2a.csv")
    expect(check.compare_csv_text(reference, reference, "same") == 0.0, "identical text")
    lines = reference.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    col = header.index("value")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.rstrip("\n").split(",")
        if cells[col] and abs(float(cells[col])) > 1.0:
            break
    moved = list(cells)
    moved[col] = repr(float(cells[col]) * (1 + 1e-9))
    perturbed = "".join(lines[:i] + [",".join(moved) + "\n"] + lines[i + 1:])
    try:
        check.compare_csv_text(perturbed, reference, "perturbed")
    except check.Mismatch:
        pass
    else:
        raise SystemExit("selftest: a value moved by 1e-9 relative passed the check")
    relabelled = reference.replace(",ok\n", ",degenerate\n", 1)
    try:
        check.compare_csv_text(relabelled, reference, "relabelled")
    except check.Mismatch:
        return
    raise SystemExit("selftest: a changed status cell passed the check")


def main() -> int:
    sys.path.insert(0, SRC)
    work = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_output_check()
        check_missing_layer()
        check_silent_span(work)
        check_tracer(work)
    finally:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps({"selftest": "ok"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
