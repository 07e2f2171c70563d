"""The benchmark's tracer must still find its seams in the program.

``perfbench/trace_child.py`` wraps the layer functions at the names their
callers look up and fails a traced run whose required span records no call;
``perfbench/selftest.py`` checks the tracer on a tiny sweep (moment spans
nested under the evaluation that caused them, self times adding up to the
wall time).  Both run here as subprocesses, so that a change that breaks a
seam fails this suite and not only a traced benchmark run.  The files under
``perfbench/`` are only run, never changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from twomode.states import NGBSParams
from twomode.sweep import STANDARD_P_GRID

from conftest import is_valid

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_perfbench_selftest_passes():
    proc = _run(PERFBENCH / "selftest.py")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"selftest": "ok"}


def test_traced_table1_records_its_required_spans(tmp_path):
    workloads = _workloads()
    required = workloads.WORKLOADS["table1"].required_spans
    out = tmp_path / "trace.json"
    proc = _run(PERFBENCH / "trace_child.py", "--require", ",".join(required),
                "--json", out, "--", "table1", "--M", "10", "--q", "-0.01,0")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    valid = sum(is_valid(NGBSParams(10, float(p), q))
                for q in (-0.01, 0.0) for p in np.linspace(*STANDARD_P_GRID))
    # each point built once (the invalid ones raise inside ngbs), 13
    # witnesses for each valid one, and one literal batch per (q, spec):
    # 2 q x 26 specs
    assert valid == 180
    assert summary["calls"] == {workloads.NGBS: 2 * 99, workloads.EVALUATE: 13 * valid,
                                workloads.LITERAL: 52}
    # the guard metric reads the results of the per-state evaluate calls on
    # the q = 0 slice; it reads 0 if table1 gets its results some other way
    assert summary["witnesses.guard_use_q0"] > 0.0
