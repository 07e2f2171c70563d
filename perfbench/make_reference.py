"""Write reference/ from the program in this checkout.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

The committed references were written by the seed commit of the benchmark.
Rewriting them declares the current outputs correct, so do it only in a
change whose purpose is to change those outputs.
"""

import gzip
import os
import shutil
import subprocess
import sys
from pathlib import Path

from check import REFERENCE_DIR, reference_path
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def write_gz(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the archive bytes deterministic
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(data)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    work = ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
    try:
        for workload in WORKLOADS.values():
            out = work / workload.name
            proc = subprocess.run(
                [sys.executable, "-m", "twomode", *workload.argv(0, str(out))],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True)
            for name in workload.csv_files:
                write_gz(reference_path(workload.name, name), (out / name).read_bytes())
            if workload.check_stdout:
                write_gz(reference_path(workload.name, "stdout.txt"), proc.stdout.encode())
            print(f"{workload.name}: {len(workload.csv_files)} csv, stdout={workload.check_stdout}")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
