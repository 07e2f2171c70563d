"""Run one twomode command with spans around the calls into each layer.

Usage: python3 trace_child.py --require SPAN,... --json FILE -- <twomode argv>

The tracer rebinds module attributes at the names the callers look up, so
the program's files stay untouched, then calls ``twomode.cli.main(argv)``
and writes the per-layer figures to FILE as JSON.  It exits with code 3
when a wrapped attribute is missing or a required span records no call:
a layer function that was renamed or moved must fail the run loudly, not
read as a layer that takes no time.
"""

import argparse
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import COMPARE, CSV, EVALUATE, LITERAL, NGBS, ORACLE, RENDER

# (module, attribute) -> span name.  Each is the name its callers look up.
LAYER_FUNCTIONS = {
    ("twomode.sweep", "ngbs"): NGBS,
    ("twomode.sweep", "evaluate"): EVALUATE,
    ("twomode.sweep", "compare_engines"): COMPARE,
    ("twomode.sweep", "write_rows_csv"): CSV,
    ("twomode.sweep", "render_line_chart"): RENDER,
    ("twomode.moments", "literal_moment"): LITERAL,
    ("twomode.moments", "moment_oracle"): ORACLE,
}
MOMENT_SPANS = (LITERAL, ORACLE)
# the strict-zero guard of twomode.witnesses: value < -1e-12 * max(1, scale)
STRICT_ZERO = 1e-12
GUARDED_KINDS = ("su11", "cs")


class LayerMissing(Exception):
    """A layer function the tracer must wrap is not where it is looked up."""


class Tracer:
    """Keeps every span in memory, plus the counts taken at the boundaries."""

    def __init__(self):
        # (span id, parent id or -1, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._open: list[int] = []
        self._next_id = 0
        self.failed = Counter()
        self.ngbs_params: set = set()
        self.moment_keys: set = set()
        self.csv_rows = 0
        self.csv_bytes = 0
        self.svg_bytes = 0
        self.guard_use_q0 = 0.0
        # id(state) -> (state, content key, q); the state is held so its id
        # is not reused while the run lasts
        self._states: dict[int, tuple[object, bytes, float | None]] = {}

    def _remember(self, state, q=None) -> tuple:
        entry = self._states.get(id(state))
        if entry is None:
            entry = (state, str(state.total).encode() + state.amplitudes.tobytes(), q)
            self._states[id(state)] = entry
        return entry

    def _observe(self, name, args, result):
        if name == NGBS:
            self._remember(result, args[0].q)
        elif name in MOMENT_SPANS:
            self.moment_keys.add((self._remember(args[0])[1], args[1], name))
        elif name == EVALUATE:
            entry = self._states.get(id(args[0]))
            if (entry is not None and entry[2] == 0.0 and result.status == "ok"
                    and result.witness.kind in GUARDED_KINDS):
                use = abs(result.value) / (STRICT_ZERO * max(1.0, result.scale))
                self.guard_use_q0 = max(self.guard_use_q0, use)
        elif name == CSV:
            self.csv_rows += len(args[0])
            self.csv_bytes += Path(args[1]).stat().st_size
        elif name == RENDER:
            self.svg_bytes += len(result.encode())

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(span_id)
            if name == NGBS:
                # counted before the call, so that failed builds count too
                params = args[0]
                self.ngbs_params.add((params.total, params.p, params.q))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                # inside the span, so that the parent's self time holds none
                # of the tracer's bookkeeping
                self._observe(name, args, result)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end))
            return result

        return traced

    def install(self) -> None:
        for (module_name, attr), span in LAYER_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LayerMissing(f"{module_name}.{attr} is missing; "
                                   f"the {span} span cannot be recorded")
            setattr(module, attr, self.wrap(span, fn))

    def summary(self, wall: float) -> dict:
        """Per-layer figures; self times plus sweep.self_s add up to ``wall``."""
        calls = Counter()
        busy = defaultdict(float)
        self_time = defaultdict(float)
        names = {span[0]: span[2] for span in self.spans}
        top_level = 0.0
        for span_id, parent, name, start, end in self.spans:
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            self_time[name] += duration
            if parent < 0:
                top_level += duration
            else:
                self_time[names[parent]] -= duration
        moment_calls = sum(calls[n] for n in MOMENT_SPANS)
        moments_in_eval = sum(
            1 for _, parent, name, _, _ in self.spans
            if name in MOMENT_SPANS and parent >= 0 and names[parent] == EVALUATE)
        return {
            "calls": dict(calls),
            "busy_s": dict(busy),
            "self_s": dict(self_time),
            "failed": dict(self.failed),
            "sweep.self_s": wall - top_level,
            "trace.wall_s": wall,
            "states.ngbs.distinct_ratio": len(self.ngbs_params) / max(calls[NGBS], 1),
            "moments.distinct_ratio": len(self.moment_keys) / max(moment_calls, 1),
            "witnesses.moments_per_eval": moments_in_eval / max(calls[EVALUATE], 1),
            "witnesses.guard_use_q0": self.guard_use_q0,
            "sweep.csv.rows": self.csv_rows,
            "sweep.csv.bytes": self.csv_bytes,
            "svgplot.render.bytes": self.svg_bytes,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", default="", help="comma-separated span names")
    parser.add_argument("--json", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    try:
        tracer.install()
    except LayerMissing as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    import twomode.cli

    start = time.perf_counter()
    code = twomode.cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        return code
    summary = tracer.summary(wall)
    silent = [s for s in args.require.split(",") if s and not summary["calls"].get(s)]
    if silent:
        print(f"trace: required spans recorded no call: {silent}", file=sys.stderr)
        return 3
    args.json.write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
