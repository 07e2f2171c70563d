"""Benchmark of the twomode command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of figures, table1, or ``all`` for both in turn.  With ``--trace 0`` each timed repetition runs
``python -m twomode ...`` in a fresh interpreter with the inherited
environment (only PYTHONPATH gains ``src``), right before or after the same
command run by the frozen seed program in seed_program/, until S seconds
are used; the end-to-end metrics are medians over the repetitions.  With
``--trace 1`` the self-test runs first, then one traced run
(trace_child.py) gives the per-layer metrics, and untraced repetitions fill
the rest of the S seconds to measure the tracing overhead, the wall and CPU
time and the row rate.  Every run's outputs are checked against
reference/.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
repetitions with a nonzero exit or an output mismatch.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import COMPARE, CSV, EVALUATE, LITERAL, NGBS, ORACLE, RENDER, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# a frozen copy of the program at the commit that defined the benchmark
SEED_SRC = BENCH_DIR / "seed_program"
WORK = ROOT / ".perfbench_out"

# fresh interpreters timed for setup_s before each pair, so that they sample
# the host's speed over the whole run rather than at its start
SETUP_PER_PAIR = 2
# every child is killed once the whole run has taken this long
RUN_LIMIT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

PROBE = """\
import json, os, platform, numpy, twomode, twomode.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"twomode": twomode.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas, "nproc": os.cpu_count()}))
"""


def own_peak_kb() -> int:
    """This process's own memory high-water mark, which its children inherit."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise SystemExit("perfbench: no VmHWM in /proc/self/status")


class RunTimeout(Exception):
    """The whole benchmark run reached RUN_LIMIT_S."""


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    minflt: int
    stdout: str
    stderr: str


class Bench:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = self._env_with(SRC)
        self.seed_env = self._env_with(SEED_SRC)
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self._seq = 0

    @staticmethod
    def _env_with(src: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        return env

    def new_dir(self, name: str) -> Path:
        self._seq += 1
        path = WORK / f"{name}-{os.getpid()}-{self._seq}"
        path.mkdir(parents=True)
        return path

    def spawn(self, cmd: list[str], work: Path, label: str = "run", env=None) -> Proc:
        """Run one child process; measure its wall time and its own rusage."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunTimeout(f"the run reached {RUN_LIMIT_S:.0f} s")
        out_path, err_path = work / f"{label}.out", work / f"{label}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env or self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss, minflt=usage.ru_minflt,
            stdout=out_path.read_text(), stderr=err_path.read_text(),
        )

    def probe(self) -> dict:
        """Check that the program and the seed program import from this checkout;
        report versions."""
        for src, env in ((SEED_SRC, self.seed_env), (SRC, self.env)):
            work = self.new_dir("probe")
            try:
                proc = self.spawn([sys.executable, "-c", PROBE], work, env=env)
            finally:
                shutil.rmtree(work)
            if proc.code != 0:
                raise SystemExit(f"perfbench: cannot import twomode from {src}:\n{proc.stderr}")
            info = json.loads(proc.stdout)
            if not Path(info["twomode"]).resolve().is_relative_to(src):
                raise SystemExit(f"perfbench: twomode imports from {info['twomode']}, not {src}")
        info["thread_env"] = {k: os.environ[k] for k in THREAD_ENV if k in os.environ}
        return info

    def setup_times(self, count: int) -> list[float]:
        """Interpreter start plus ``import twomode.cli``, each in a fresh process."""
        times = []
        work = self.new_dir("setup")
        try:
            for _ in range(count):
                proc = self.spawn([sys.executable, "-c", "import twomode.cli"], work)
                if proc.code != 0:
                    raise SystemExit(f"perfbench: import failed:\n{proc.stderr}")
                times.append(proc.wall)
        finally:
            shutil.rmtree(work)
        return times

    def attempt(self, workload, seed: int, cmd_prefix: list[str]) -> tuple[Proc, Path, bool]:
        """One checked run; returns the process, its work dir and whether it passed."""
        work = self.new_dir(workload.name)
        proc = self.spawn([*cmd_prefix, *workload.argv(seed, str(work / "out"))], work)
        return proc, work, self.passed(workload, proc, work)

    def passed(self, workload, proc: Proc, work: Path) -> bool:
        """Count one attempt; check its exit code and its outputs in ``work``."""
        self.attempted += 1
        ok = proc.code == 0
        if not ok:
            print(f"# {workload.name}: exit {proc.code}: {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
        else:
            # Checked in another process: every child inherits this process's
            # memory high-water mark as its own ru_maxrss, so this one stays small.
            check = self.spawn([sys.executable, str(BENCH_DIR / "check.py"), workload.name,
                                str(work / "out"), str(work / "run.out")], work, "check")
            if check.code == 0:
                self.max_dev = max(self.max_dev, float(check.stdout))
            else:
                print(f"# output check failed: {check.stderr.strip()[-500:]}", file=sys.stderr)
                ok = False
        self.failed += not ok
        return ok

    def timed_reps(self, workload, seed: int, seconds: float) -> list[Proc]:
        """Untraced repetitions while another one fits in ``seconds`` (at least one)."""
        reps = []
        start = time.perf_counter()
        while True:
            proc, work, ok = self.attempt(workload, seed, [sys.executable, "-m", "twomode"])
            shutil.rmtree(work)
            if not ok:
                return reps
            reps.append(proc)
            if time.perf_counter() - start + statistics.median(p.wall for p in reps) > seconds:
                return reps

    def seed_program_run(self, workload, seed: int) -> Proc:
        """One run of the seed program on the same command; it must succeed."""
        work = self.new_dir(f"{workload.name}-seed")
        try:
            proc = self.spawn([sys.executable, "-m", "twomode",
                               *workload.argv(seed, str(work / "out"))], work, env=self.seed_env)
        finally:
            shutil.rmtree(work)
        if proc.code != 0:
            raise SystemExit(f"perfbench: the seed program exited {proc.code}:\n"
                             f"{proc.stderr.strip()[-500:]}")
        return proc

    def timed_pairs(self, workload, seed: int, seconds: float,
                    setup: list[float]) -> list[tuple[Proc, Proc]]:
        """(program, seed program) runs back to back, in the order AB BA AB ..., while
        another pair fits in ``seconds`` (at least one).  The host's speed drifts over
        minutes, so only a run's ratio to its neighbour repeats from run to run.
        Set-up times are appended to ``setup`` before each pair."""
        pairs = []
        start = time.perf_counter()
        while True:
            setup += self.setup_times(SETUP_PER_PAIR)
            seed_first = len(pairs) % 2
            if seed_first:
                ref = self.seed_program_run(workload, seed)
            work = self.new_dir(workload.name)
            proc = self.spawn([sys.executable, "-m", "twomode",
                               *workload.argv(seed, str(work / "out"))], work)
            if not seed_first:
                ref = self.seed_program_run(workload, seed)
            # checked after the pair, so that nothing runs between its two halves
            ok = self.passed(workload, proc, work)
            shutil.rmtree(work)
            if not ok:
                return pairs
            pairs.append((proc, ref))
            pair_s = statistics.median(p.wall + r.wall for p, r in pairs)
            if time.perf_counter() - start + pair_s > seconds:
                return pairs


def end_to_end(bench: Bench, workload, seed: int, seconds: float) -> dict:
    setup = []
    pairs = bench.timed_pairs(workload, seed, seconds, setup)
    if not pairs:
        return {}
    reps = [proc for proc, _ in pairs]
    floor = own_peak_kb()
    if min(p.maxrss_kb for p in reps) <= floor:
        raise SystemExit(f"perfbench: a child's peak RSS is not above this process's "
                         f"own {floor} kB, which it inherits, so it is not the program's")
    print(f"# {workload.name}: {len(pairs)} pairs, median wall "
          f"{statistics.median(p.wall for p in reps):.4f} s (program) "
          f"{statistics.median(r.wall for _, r in pairs):.4f} s (seed program); "
          f"setup {len(setup)} starts; wall_rel by pair "
          f"{' '.join(f'{p.wall / r.wall:.3f}' for p, r in pairs)}")
    return {
        "wall_rel": statistics.median(p.wall / r.wall for p, r in pairs),
        "peak_rss_mb": statistics.median(p.maxrss_kb * 1024 / 1e6 for p in reps),
        "minor_faults": statistics.median(p.minflt for p in reps),
        "setup_s": statistics.median(setup),
    }


def per_layer(bench: Bench, workload, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    work = bench.new_dir("selftest")
    try:
        selftest = bench.spawn([sys.executable, str(BENCH_DIR / "selftest.py")], work)
    finally:
        shutil.rmtree(work)
    bench.attempted += 1
    if selftest.code != 0:
        bench.failed += 1
        print(f"# self-test failed:\n{selftest.stdout}{selftest.stderr}", file=sys.stderr)
        return {}

    summary_file = WORK / f"trace-{os.getpid()}.json"
    bench.max_dev = 0.0
    traced, work, ok = bench.attempt(
        workload, seed,
        [sys.executable, str(BENCH_DIR / "trace_child.py"),
         "--require", ",".join(workload.required_spans), "--json", str(summary_file), "--"])
    shutil.rmtree(work)
    if not ok:
        return {}
    s = json.loads(summary_file.read_text())
    summary_file.unlink()
    untraced = bench.timed_reps(workload, seed, seconds - (time.perf_counter() - start))
    if not untraced:
        return {}
    wall = statistics.median(p.wall for p in untraced)
    calls, busy, self_s = s["calls"], s["busy_s"], s["self_s"]
    layer_self = sum(self_s.values()) + s["sweep.self_s"]
    if abs(layer_self - s["trace.wall_s"]) > 1e-6 * s["trace.wall_s"]:
        print(f"# layer self times add up to {layer_self}, traced wall is "
              f"{s['trace.wall_s']}", file=sys.stderr)
        bench.failed += 1
        return {}
    return {
        "fock.oracle.calls": calls.get(ORACLE, 0),
        "fock.oracle.busy_s": busy.get(ORACLE, 0.0),
        "moments.literal.calls": calls.get(LITERAL, 0),
        "moments.literal.busy_s": busy.get(LITERAL, 0.0),
        "moments.compare.calls": calls.get(COMPARE, 0),
        "moments.compare.self_s": self_s.get(COMPARE, 0.0),
        "moments.distinct_ratio": s["moments.distinct_ratio"],
        "witnesses.moments_per_eval": s["witnesses.moments_per_eval"],
        "witnesses.evaluate.calls": calls.get(EVALUATE, 0),
        "witnesses.evaluate.self_s": self_s.get(EVALUATE, 0.0),
        "states.ngbs.calls": calls.get(NGBS, 0),
        "states.ngbs.busy_s": busy.get(NGBS, 0.0),
        "states.ngbs.failed": s["failed"].get(NGBS, 0),
        "states.ngbs.distinct_ratio": s["states.ngbs.distinct_ratio"],
        "sweep.csv.rows": s["sweep.csv.rows"],
        "sweep.csv.bytes": s["sweep.csv.bytes"],
        "sweep.csv.busy_s": busy.get(CSV, 0.0),
        "svgplot.render.calls": calls.get(RENDER, 0),
        "svgplot.render.bytes": s["svgplot.render.bytes"],
        "svgplot.render.busy_s": busy.get(RENDER, 0.0),
        "sweep.self_s": s["sweep.self_s"],
        "trace.wall_s": s["trace.wall_s"],
        "trace.overhead_s": traced.wall - wall,
        "wall_s": wall,
        "rows_per_s": workload.rows / wall,
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "witnesses.guard_use_q0": s["witnesses.guard_use_q0"],
        "check.max_rel_dev": bench.max_dev,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "twomode" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'twomode'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("perfbench: workloads differ from BENCHMARK.json", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measure = per_layer if args.trace else end_to_end
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    def on_alarm(signum, frame):
        raise RunTimeout(f"the run reached {RUN_LIMIT_S:.0f} s")

    signal.signal(signal.SIGALRM, on_alarm)
    bench = Bench()
    WORK.mkdir(exist_ok=True)
    try:
        info = bench.probe()
        print("# env " + json.dumps(info, sort_keys=True))
        metrics = {}
        for name in names:
            print("# argv twomode " + " ".join(WORKLOADS[name].argv(args.seed, "DIR")))
            values = measure(bench, WORKLOADS[name], args.seed, args.seconds)
            if values and values.keys() != units.keys():
                raise SystemExit(f"perfbench: metrics {sorted(values.keys() ^ units.keys())} "
                                 f"differ from BENCHMARK.json")
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in units.items():
                value = values.get(metric, 0)
                metrics[prefix + metric] = {"value": value, "unit": unit}
                print(f"{prefix + metric} {value!r} {unit}")
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"# attempted {bench.attempted}, failed {bench.failed}, "
          f"failed_share {bench.failed / max(bench.attempted, 1):.4g}")
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
