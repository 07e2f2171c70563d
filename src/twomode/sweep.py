"""Parameter sweeps, reference figure reproduction and the summary table.

A sweep evaluates a witness selection over a (q, p) grid for one state
family and emits one row per (grid point, witness, engine) combination,
including error rows for invalid parameter points, in a deterministic
order.  CSV is the machine-readable source of truth; SVG charts are an
optional convenience view.

CSV schema (one header line, then one line per row):

    state,M,p,q,witness,l,m,theta,form,engine,value,nonclassical,status

Floats are written with Python's shortest round-trip representation so that
parsing the file recovers every field exactly; empty cells encode None (a
field that does not apply to the row, or a value suppressed by a non-ok
status).
"""

import functools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fock import FixedTotalState, MomentSpec
from . import moments
from .moments import Engine, compare_engines
from .states import (
    InvalidParams,
    NGBSParams,
    NormalizationAnomaly,
    binomial_state,
    coherent_product,
    ngbs,
)
from .svgplot import render_line_chart
from .witnesses import DEFAULT_THETAS, Witness, evaluate, reduce_columns

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "SweepConfig",
    "SweepRow",
    "Table1Row",
    "compute_rows",
    "format_table1",
    "load_config",
    "parse_engines",
    "parse_list",
    "parse_p_grid",
    "parse_witness_field",
    "reproduce_figures",
    "run_sweep",
    "table1_report",
    "write_rows_csv",
]

CSV_HEADER = (
    "state", "M", "p", "q", "witness", "l", "m", "theta", "form",
    "engine", "value", "nonclassical", "status",
)

STATE_FAMILIES = ("ngbs", "binomial", "fock", "coherent")
# the families whose states hold M photons in total, which the literal
# engine requires
FIXED_TOTAL_FAMILIES = ("ngbs", "binomial", "fock")

STANDARD_M = (10, 20)
STANDARD_Q = (-0.01, -0.005, 0.0, 0.005, 0.01, 0.1)
STANDARD_P_GRID = (0.01, 0.99, 99)
HOA_ORDER_SET = ((2, 2), (5, 1), (9, 1))

# the most memory one q slice of a sweep, table1 or compare may ask for
# (see _check_budget)
MAX_SLICE_BYTES = 1 << 24


class ConfigError(Exception):
    """Sweep configuration is structurally invalid."""


def _coherent_cutoff(total: int, p: float) -> int:
    """Per-mode cutoff of the ``coherent`` family's state at (M, p)."""
    mean1, mean2 = p * total, (1.0 - p) * total
    return int(math.ceil(10.0 * max(mean1, mean2, 1.0) + 10.0))


def _check_budget(family: str, total: int, p_grid: tuple, engines) -> None:
    """Raise :class:`ConfigError` when one q slice of the ``p_grid =
    (start, end, steps)`` grid at M = ``total`` would need more than
    ``MAX_SLICE_BYTES`` of complex amplitudes; nothing is allocated here.

    A slice counts its batch, 16 * steps * (M + 1) bytes (``coherent``
    stacks none, but the term bounds its p grid all the same); when the
    oracle runs, the two images it reduces, each a grid of 16 * side^2
    bytes; and for the ``coherent`` family, the state's own grid of that
    size.  The side is M + 1 for the fixed-total families and the coherent
    cutoff + 1, taken at the p of the grid farthest from 0.5 (clamped to
    [0, 1], where a state is built), for ``coherent``.
    """
    start, end, steps = p_grid
    side = max(total + 1, 0)  # a negative M builds no state
    needed = 16 * steps * side
    grids = 2 if Engine.ORACLE in engines else 0
    # within the batch's budget M is small enough for the float cutoff
    if family == "coherent" and needed <= MAX_SLICE_BYTES:
        side = max(_coherent_cutoff(total, min(max(p, 0.0), 1.0)) for p in (start, end)) + 1
        grids += 1
    needed += grids * 16 * side * side
    if needed > MAX_SLICE_BYTES:
        where, per = (f"p grid of {steps} steps", " per q slice") if steps > 1 else (
            f"p={start!r}", "")
        raise ConfigError(
            f"{where} at M={total} needs {needed} bytes{per} for the {family} family "
            f"under {'+'.join(e.value for e in engines)}, over the budget of "
            f"{MAX_SLICE_BYTES} bytes"
        )


@dataclass(frozen=True)
class SweepConfig:
    state_family: str
    total: int
    q_list: tuple[float, ...]
    p_grid: tuple[float, float, int]
    witnesses: tuple[Witness, ...]
    engines: tuple[Engine, ...]
    output_path: Path
    output_format: str = "csv"

    def __post_init__(self):
        # an invalid config cannot be built, so no consumer checks it again
        self.validate()

    @classmethod
    def from_fields(cls, values) -> "SweepConfig":
        """Build a config from field text keyed in lower case.

        Keys: state, m, q (comma-separated), p (start:end:steps), witnesses
        (';'- or space-separated tokens), engine (literal|oracle|both,
        default literal), out, format (csv|svg+csv, default csv).  The
        values of state, engine and format are read in any case.  A key
        that is absent or None is missing; any other key is an error.
        """
        required = {"state", "m", "q", "p", "witnesses", "out"}
        unknown = set(values) - required - {"engine", "format"}
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}")
        values = {key: value for key, value in values.items() if value is not None}
        missing = required - set(values)
        if missing:
            raise ConfigError(f"missing fields: {sorted(missing)}")
        try:
            return cls(
                state_family=values["state"].lower(),
                total=int(values["m"]),
                q_list=parse_list(values["q"]),
                p_grid=parse_p_grid(values["p"]),
                witnesses=parse_witness_field(values["witnesses"]),
                engines=parse_engines(values.get("engine", "literal")),
                output_path=Path(values["out"]),
                output_format=values.get("format", "csv").lower(),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        if self.state_family not in STATE_FAMILIES:
            raise ConfigError(f"unknown state family {self.state_family!r}")
        if self.total < 0:
            raise ConfigError(f"M must be non-negative, got {self.total}")
        if not self.q_list:
            raise ConfigError("q list must not be empty")
        start, end, steps = self.p_grid
        if steps < 2:
            raise ConfigError(f"p grid needs steps >= 2, got {steps}")
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ConfigError(f"p grid needs a finite start and end, got {start!r}..{end!r}")
        if not start < end:
            raise ConfigError(f"p grid needs start < end, got {start!r}..{end!r}")
        if not self.witnesses:
            raise ConfigError("witness list must not be empty")
        # a repeat would write its rows twice: one row per (q, p, witness,
        # engine).  q values compare as _q_order orders them, so 0.0 and -0.0
        # are two, and witnesses by Witness equality, so sum:0.0 and sum:-0.0
        for what, keys, shown in (("q", map(_q_order, self.q_list), self.q_list),
                                  ("witness", self.witnesses, map(Witness.label, self.witnesses))):
            seen = set()
            for key, item in zip(keys, shown):
                if key in seen:
                    raise ConfigError(f"repeated {what}: {item!r}")
                seen.add(key)
        if not self.engines:
            raise ConfigError("engine list must not be empty")
        if self.state_family not in FIXED_TOTAL_FAMILIES and Engine.LITERAL in self.engines:
            raise ConfigError(
                "the literal engine requires a fixed-total state family; "
                "use engine=oracle with the coherent family"
            )
        _check_budget(self.state_family, self.total, self.p_grid, self.engines)
        if self.output_format not in ("csv", "svg+csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def p_values(self) -> tuple[float, ...]:
        """The p grid as Python floats, ``np.linspace(start, end, steps)``:
        the p values of the rows, and of a slice's key in the run's cache
        (see :func:`_grid_slice`)."""
        return tuple(np.linspace(*self.p_grid).tolist())


class SweepRow(NamedTuple):
    state_family: str
    total: int
    p: float
    q: float
    witness_kind: str
    l: int | None
    m: int | None
    theta: float | None
    form: str | None
    engine: str
    value: float | None
    nonclassical: bool | None
    status: str

    def witness_label(self) -> str:
        return Witness(self.witness_kind, l=self.l, m=self.m, theta=self.theta,
                       form=self.form).label()


def parse_engines(text: str) -> tuple[Engine, ...]:
    """Parse ``literal``, ``oracle`` or ``both`` into the engines to run."""
    key = text.strip().lower()
    if key == "both":
        return (Engine.LITERAL, Engine.ORACLE)
    return (Engine.parse(key),)


def parse_witness_field(text: str) -> tuple[Witness, ...]:
    """Parse witness tokens separated by ';' or whitespace.

    Each token may expand: a bare ``sum`` yields the default theta set.
    """
    tokens = [t for t in text.replace(";", " ").split() if t]
    out: list[Witness] = []
    for token in tokens:
        out.extend(Witness.parse(token))
    return tuple(out)


def parse_p_grid(text: str) -> tuple[float, float, int]:
    """Parse a p grid written ``start:end:steps``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"p grid must look like start:end:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse p grid {text!r}") from exc


def parse_list(text: str, convert=float, what: str = "q list") -> tuple:
    """Parse a comma-separated list such as ``-0.01,0,0.01``.

    Blank items are skipped, so an empty text gives an empty tuple; callers
    decide whether that is allowed.  ``convert`` turns each item into a
    number (``float`` for q values, ``int`` for M values).
    """
    try:
        return tuple(convert(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc


def load_config(path: Path) -> SweepConfig:
    """Read a sweep configuration from a flat key=value file.

    Keys as in :meth:`SweepConfig.from_fields`, in any case (``M = 20``),
    each at most once: ``M`` and ``m`` are one key.  Lines starting with '#'
    are comments.
    """
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ConfigError(f"repeated field: {key!r}")
        values[key] = val.strip()
    return SweepConfig.from_fields(values)


def _build_state(family: str, total: int, p: float, q: float):
    if family == "ngbs":
        return ngbs(NGBSParams(total, p, q))
    if family == "binomial":
        return binomial_state(total, p)
    if family == "fock":
        if not 0.0 <= p <= 1.0:
            raise InvalidParams(f"p must lie in [0, 1], got {p!r}")
        # the Fock pair |n1, M - n1>; floor-half-up keeps n1 monotone in p
        amps = np.zeros(total + 1)
        amps[int(math.floor(p * total + 0.5))] = 1.0
        return FixedTotalState(total, amps)
    if family == "coherent":
        if not 0.0 <= p <= 1.0:
            raise InvalidParams(f"p must lie in [0, 1], got {p!r}")
        return coherent_product(math.sqrt(p * total), math.sqrt((1.0 - p) * total),
                                _coherent_cutoff(total, p))
    raise ConfigError(f"unknown state family {family!r}")


# on Python 3.11 a member lookup on an Enum class, Engine.ORACLE, runs through
# EnumType's __getattr__ hook (about 90 ns), so a slice's fetch reads this
_ORACLE = Engine.ORACLE


class _LiteralSlice:
    """The fixed-total states of one grid slice, their moment columns under
    both engines and their witness results, each computed once for the
    slice: the moment table of each of its states under every engine.  Its
    ``result(state, witness, engine)`` answers
    :func:`~twomode.witnesses.evaluate` for ``state``; the results of a
    (witness, engine) come from one
    :func:`~twomode.witnesses.reduce_columns` over that engine's columns,
    and a missing column from one ``moments.cached_expectation`` call on a
    :class:`MomentBatch` of the states, which calls
    ``moments.literal_moment`` or ``moments.moment_oracle`` (looked up at
    call time, so that a wrapper sees them).  Results are released once each
    state has read its own.  ``rows`` maps each state (by identity: a
    :class:`FixedTotalState` does not compare by value) to its batch row.
    ``columns`` maps each engine to its columns by spec, each a
    ``complex128`` array of shape ``(P,)`` whose row i holds the float and
    sign of zero that state i gives alone: the ``tables`` that
    :func:`~twomode.moments.compare_engines` takes with the batch.
    """

    def __init__(self, states):
        self.rows = {state: row for row, state in enumerate(states)}
        self.columns = {Engine.LITERAL: {}, Engine.ORACLE: {}}
        # per engine, witness -> [results, rows yet to read them], picked by
        # identity (see _ORACLE): no fetch hashes an Engine, whose enum
        # __hash__ runs in Python
        self._literal_results, self._oracle_results = {}, {}

    @functools.cached_property
    def batch(self) -> moments.MomentBatch:
        return moments.MomentBatch.stack(list(self.rows))

    def result(self, state, witness: Witness, engine: Engine):
        pending = self._oracle_results if engine is _ORACLE else self._literal_results
        entry = pending.get(witness)
        if entry is None:
            columns = self.columns[engine]
            results = reduce_columns(witness, [
                moments.cached_expectation(columns, self.batch, spec, engine)
                for spec in witness.specs], engine)
            entry = pending[witness] = [results, len(results)]
        entry[1] -= 1
        if not entry[1]:
            del pending[witness]
        return entry[0][self.rows[state]]


def _point_state(family: str, total: int, p: float, q: float):
    """The state at one grid point, or the :class:`InvalidParams` or
    :class:`NormalizationAnomaly` its build raised, with the traceback
    cleared so that a kept failure holds no frame alive."""
    try:
        return _build_state(family, total, p, q)
    except (InvalidParams, NormalizationAnomaly) as exc:
        return exc.with_traceback(None)


def _grid_slice(cache: dict, family: str, total: int, q: float, p_values: tuple):
    """The states of one (family, M, q) slice of a p grid and their moment
    tables: one ``(p, state, table)`` per p, where ``state`` is the
    exception of a point that failed to build (see :func:`_point_state`),
    and ``table`` is the moment table of ``state``, to pass with it to
    :func:`~twomode.witnesses.evaluate` under any engine the slice runs.

    For the fixed-total families the points are built once per cache, which
    maps ``(family, M, q, p_values)`` to their list: each state's table is
    the slice's one :class:`_LiteralSlice`, which answers for each of its
    states (None for a failed point).  A caller that passes one cache to
    several sweeps builds each distinct state once and computes each of its
    moments once per engine: ``reproduce_figures`` does, for its panels and
    its report.
    :func:`compute_rows` and :func:`table1_report` pass none, and get a new
    cache per q slice from :func:`_evaluations`; each point of the whole p
    grid is built, and so validated, once, with the invalid ones kept as
    their failures.
    (``ngbs`` gives the same state for q = 0.0 and -0.0, which share a key.)
    Other families give a generator that builds each state when its point
    is reached, with a plain dict as its table, and cache nothing: a
    ``coherent`` slice holds one state grid at a time, which is what
    :func:`_check_budget` counts.  One dict serves because only the oracle
    runs on ``coherent`` states: :meth:`SweepConfig.validate` rejects the
    literal engine for them.
    """
    if family not in FIXED_TOTAL_FAMILIES:
        return ((p, _point_state(family, total, p, q), {}) for p in p_values)
    key = (family, total, q, p_values)
    points = cache.get(key)
    if points is None:
        states = [_point_state(family, total, p, q) for p in p_values]
        literal = _LiteralSlice([s for s in states if isinstance(s, FixedTotalState)])
        points = cache[key] = [
            (p, state, literal if isinstance(state, FixedTotalState) else None)
            for p, state in zip(p_values, states)
        ]
    return points


def _q_order(q: float) -> tuple:
    """A total order on q values: ascending, -0.0 before 0.0, NaN last."""
    return (True, 0.0, 0.0) if math.isnan(q) else (False, q, math.copysign(1.0, q))


def compute_rows(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the sweep grid; one row per (q, p, witness, engine).

    Rows come out ordered lexicographically by (q, p, witness label,
    engine).  Parameter points that fail state-family validation yield
    status ``invalid_params`` rows rather than aborting the sweep.  Each
    state keeps one moment table, so every distinct moment is computed once
    per engine for all the witnesses of a grid point; for the fixed-total
    families each engine computes it once for all the states of a q slice,
    in one batch, and reduces each witness once per slice.  One q slice is
    held at a time.  The slices go in ascending q, -0.0 before 0.0 and NaN
    last, so the rows do not depend on the order of ``config.q_list``.
    """
    return _compute_rows(config)


def _evaluations(config: SweepConfig, cache: dict | None = None):
    """One ``(q, p, witness, engine, outcome)`` per row of
    :func:`compute_rows`, in its row order, with states and moment tables
    from ``cache`` (see :func:`_grid_slice`), or from a new one per q slice.
    ``outcome`` is the point's :class:`~twomode.witnesses.WitnessResult`, or
    the failure its build stored (see :func:`_point_state`)."""
    pairs = [(witness, engine) for witness in sorted(config.witnesses, key=Witness.label)
             for engine in sorted(config.engines, key=lambda e: e.value)]
    p_values = config.p_values()
    for q in sorted(config.q_list, key=_q_order):
        for p, state, table in _grid_slice(
                {} if cache is None else cache, config.state_family, config.total, q, p_values):
            if isinstance(state, Exception):
                for witness, engine in pairs:
                    yield q, p, witness, engine, state
            else:
                for witness, engine in pairs:
                    yield q, p, witness, engine, evaluate(state, witness, engine, table)
            # an uncached (coherent) state goes before the next one is
            # built: its slice holds one state grid at a time; and without a
            # shared cache no point of this slice outlives it
            del state, table


def _compute_rows(config: SweepConfig, cache: dict | None = None) -> list[SweepRow]:
    """:func:`compute_rows` with states and moment tables from ``cache``
    (see :func:`_grid_slice`), or from a new one per q slice."""
    rows: list[SweepRow] = []
    for q, p, witness, engine, outcome in _evaluations(config, cache):
        status = "invalid_params" if isinstance(outcome, Exception) else outcome.status
        value, nonclassical = (
            (outcome.value, outcome.nonclassical) if status == "ok" else (None, None))
        rows.append(SweepRow(
            config.state_family, config.total, p, q, witness.kind,
            witness.l, witness.m, witness.theta, witness.form,
            engine.value, value, nonclassical, status,
        ))
    return rows


def write_rows_csv(rows, path: Path) -> None:
    """Write ``rows`` as a sweep CSV: the header, then one line per row.

    Each line is one f-string, and the ``state,M,p,q,`` head is formatted
    once per grid point (a run of rows holding the same four objects).  A
    cell of the type :class:`SweepRow` declares for it is written as
    ``csv.writer`` writes its text: None as an empty cell, a bool or
    ``np.bool_`` as ``true``/``false``, a float or ``np.floating`` as the
    ``repr`` of its Python float, anything else through ``str``.  No cell
    needs quoting: the strings come from fixed vocabularies, and no float's
    ``repr`` holds a comma.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        handle.writelines(_csv_lines(rows))


def _csv_lines(rows):
    point = ()
    for row in rows:
        if not (point and all(map(operator.is_, row[:4], point))):
            point = row[:4]
            family, total, p, q = point
            head = f"{family},{total},{float(p)!r},{float(q)!r},"
        _, _, _, _, kind, l, m, theta, form, engine, value, nonclassical, status = row
        yield (f"{head}{kind},{'' if l is None else l},{'' if m is None else m},"
               f"{'' if theta is None else repr(float(theta))},{'' if form is None else form},"
               f"{engine},{'' if value is None else repr(float(value))},"
               f"{'' if nonclassical is None else 'true' if nonclassical else 'false'},"
               f"{status}\n")


def _labelled(rows):
    """``(witness label, row)`` per row, each label computed once per
    distinct witness; the key holds the ``repr`` of theta, which keeps
    ``sum:0.0`` and ``sum:-0.0`` apart."""
    labels = {}
    for row in rows:
        key = (row.witness_kind, row.l, row.m, repr(row.theta), row.form)
        label = labels.get(key)
        if label is None:
            label = labels[key] = row.witness_label()
        yield label, row


def _chart(rows, title: str) -> str:
    """The SVG chart of ``rows``: one curve over p per (witness label, q,
    engine) of the ok and degenerate rows, drawn by ``render_line_chart``
    (looked up at call time, so that a wrapper sees it).  The ``repr`` of q
    keeps the slices of ``q=0.0`` and ``q=-0.0`` apart, and sorts the second
    first."""
    groups: dict[tuple, list[SweepRow]] = {}
    for label, row in _labelled(rows):
        if row.status == "invalid_params":
            continue
        key = (label, row.q, repr(row.q), row.engine)
        groups.setdefault(key, []).append(row)
    curves = []
    for key in sorted(groups):
        label, q, _, engine = key
        sub = sorted(groups[key], key=lambda r: r.p)
        xs = [r.p for r in sub]
        ys = [r.value if r.value is not None else float("nan") for r in sub]
        curves.append((f"{label} q={q:g} [{engine}]", xs, ys))
    return render_line_chart(curves, title=title, x_label="p", y_label="witness value")


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Run the sweep and write ``sweep.csv`` to the output directory.

    Under the ``svg+csv`` format it also writes one chart per witness label,
    in label order, with one curve per (q, engine): ``sweep_<stem>.svg``
    titled ``sweep: <label>``, where the stem is the label with ``:``,
    ``,`` and ``.`` written as ``_``, ``-`` and ``p`` (``hoa:9,1`` gives
    ``sweep_hoa_9-1.svg``).  Returns the rows.
    """
    rows = compute_rows(config)
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, out_dir / "sweep.csv")
    if config.output_format == "svg+csv":
        by_label: dict[str, list[SweepRow]] = {}
        for label, row in _labelled(rows):
            by_label.setdefault(label, []).append(row)
        for label in sorted(by_label):
            stem = label.replace(":", "_").replace(",", "-").replace(".", "p")
            (out_dir / f"sweep_{stem}.svg").write_text(_chart(by_label[label], f"sweep: {label}"))
    return rows


# --- reference figure reproduction -------------------------------------------

def _panel_config(name, total, q_list, witnesses, engine):
    return name, SweepConfig(
        state_family="ngbs",
        total=total,
        q_list=tuple(q_list),
        p_grid=STANDARD_P_GRID,
        witnesses=tuple(witnesses),
        engines=(engine,),
        output_path=Path(),
        output_format="csv",
    )


def figure_panels():
    """The named sweep presets behind ``reproduce_figures``.

    Antibunching panels (fig2*) are engine-agnostic and use the oracle;
    squeezing and inseparability panels (fig3*..fig5*) use the literal
    engine, whose number-changing single-mode moments they need to show
    any structure at all.  The fig4 q value and the antibunching order set
    {(2,2), (5,1), (9,1)} are documented artifact choices.  No config's
    output path is read: ``reproduce_figures`` writes to its own directory.
    """
    hoa_set = [Witness("hoa", l=l, m=m) for l, m in HOA_ORDER_SET]
    quad = [Witness("quadx"), Witness("quady")]
    thetas = [Witness("sum", theta=t) for t in DEFAULT_THETAS]
    sv_w = [Witness("sv")]
    return [
        _panel_config("fig2a", 10, [-0.01], hoa_set, Engine.ORACLE),
        _panel_config("fig2b", 10, [-0.005], hoa_set, Engine.ORACLE),
        _panel_config("fig2c", 20, [-0.01], hoa_set, Engine.ORACLE),
        _panel_config("fig2d", 20, [-0.005], hoa_set, Engine.ORACLE),
        _panel_config("fig3a", 10, [0.01, 0.0, -0.01], quad, Engine.LITERAL),
        _panel_config("fig3b", 20, [0.01, 0.0, -0.01], quad, Engine.LITERAL),
        _panel_config("fig4a", 10, [-0.01], thetas, Engine.LITERAL),
        _panel_config("fig4b", 20, [-0.01], thetas, Engine.LITERAL),
        _panel_config("fig5a", 10, [0.01, -0.01, 0.0, 0.1], sv_w, Engine.LITERAL),
        _panel_config("fig5b", 20, [-0.005, 0.0, 0.1], sv_w, Engine.LITERAL),
    ]


_DIAGNOSTIC_SPECS = (
    (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2),
)


def _panel_moment_orders(panel_name: str, config: SweepConfig):
    """Single-mode (daggers, lowers) pairs the report compares for a panel:
    for an antibunching panel (fig2*), the diagonal orders of each mode in
    its witnesses' moments, up to M; for the others, the diagnostic set."""
    if panel_name.startswith("fig2"):
        orders = {order for witness in config.witnesses for spec in witness.specs
                  for order in (spec.j, spec.r)}
        return tuple((k, k) for k in sorted(orders) if k <= config.total)
    return _DIAGNOSTIC_SPECS


def _panel_slices(name: str, config: SweepConfig):
    """One ``(tails key, grid key, orders)`` per q slice of a panel, sorted
    by q (see :func:`_q_order`).

    The grid key is the slice's key in the run's cache (see
    :func:`_grid_slice`), which the panel's rows and its report lines both
    read.  The tails key names the slice's report tails, everything after
    ``figure,`` (see :func:`_slice_tails`), which are the same for each
    distinct (M, q, moment orders, p grid).
    """
    orders = _panel_moment_orders(name, config)
    p_values = config.p_values()
    # repr: the tails tell -0.0 from 0.0, which the grid key does not
    return [((config.total, repr(q), repr(config.p_grid), orders),
             (config.state_family, config.total, q, p_values), orders)
            for q in sorted(config.q_list, key=_q_order)]


def _slice_tails(cache: dict, grid: tuple, orders) -> str:
    """The report's lines for the ``grid = ("ngbs", M, q, p_values)`` slice
    from ``cache``, without their ``figure,`` cells, joined by newlines.
    ``p`` and ``q`` are the ``repr`` of their Python floats, as are the
    three values, and the flag is ``true``/``false``: the cells
    ``csv.writer`` writes for them, none quoted."""
    _, total, q, _ = grid
    mode_specs = (
        (1, [MomentSpec(d, low, 0, 0) for d, low in orders]),
        (2, [MomentSpec(0, 0, d, low) for d, low in orders]),
    )
    points = []  # (line head, batch row) per valid point
    for p, state, table in _grid_slice(cache, *grid):
        if isinstance(state, InvalidParams):
            continue
        if isinstance(state, Exception):
            raise state
        grid_slice = table
        points.append((f"ngbs,{total},{p!r},{q!r},", table.rows[state]))
    if not points:
        return ""
    cells = []  # (mode and orders, literal, oracle, gap, flag) per moment
    for mode, specs in mode_specs:
        reports = compare_engines(grid_slice.batch, specs, grid_slice.columns)
        for (daggers, lowers), report in zip(orders, reports):
            cells.append((
                f"{mode},{daggers},{lowers},",
                _real_floats(report.literal_value),
                _real_floats(report.oracle_value),
                _real_floats(report.abs_discrepancy),
                ",true" if report.degenerate else ",false",
            ))
    return "\n".join(
        f"{head}{middle}{literal_values[row]!r},{oracle_values[row]!r},{gaps[row]!r}{flag}"
        for head, row in points
        for middle, literal_values, oracle_values, gaps, flag in cells)


def _real_floats(values) -> list[float]:
    """The real parts of a column as Python floats, each exactly."""
    return np.asarray(values).real.tolist()


DISCREPANCY_HEADER = (
    "figure", "state", "M", "p", "q", "mode", "daggers", "lowers",
    "literal", "oracle", "abs_discrepancy", "degenerate",
)


def reproduce_figures(out_dir: Path) -> dict[str, int]:
    """Write one CSV + SVG pair per reference figure panel plus the
    engine-discrepancy report; byte-deterministic across runs.  Returns
    the number of rows of each panel's CSV, by panel name.  A panel's chart,
    ``<name>.svg`` titled with its name, is drawn as a sweep's charts are,
    with one curve over p per (witness label, q, engine).

    The panels are written one at a time: a panel's rows are released once
    its CSV and SVG are written, and then its lines of the report, which
    is ordered by panel, are appended.  One forward pass over the panels
    first records, for each tails key and grid key (see
    :func:`_panel_slices`), the index of the last panel that reads it.  A
    slice's report tails are kept while a later panel writes them again,
    and a grid slice leaves the cache after the report lines of the last
    panel that reads it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one state and one moment table for each distinct grid point, shared by
    # the panels and the report lines that read its slice
    cache: dict = {}
    panels = [(name, config, _panel_slices(name, config))
              for name, config in figure_panels()]
    # each tails key and grid key -> the index of the last panel reading it;
    # the two never collide: a tails key starts with M, a grid key with the family
    last = {key: index for index, (_, _, slices) in enumerate(panels)
            for tails, grid, _ in slices for key in (tails, grid)}
    kept = {}  # tails key -> the tails a later panel writes again
    counts: dict[str, int] = {}
    with open(out_dir / "discrepancy_report.csv", "w", newline="") as report:
        report.write(",".join(DISCREPANCY_HEADER) + "\n")
        for index, (name, config, slices) in enumerate(panels):
            rows = _compute_rows(config, cache)
            counts[name] = len(rows)
            write_rows_csv(rows, out_dir / f"{name}.csv")
            (out_dir / f"{name}.svg").write_text(_chart(rows, name))
            del rows  # released before the panel's report lines
            head = name + ","
            for key, grid, orders in slices:
                tails = kept.pop(key, None)
                if tails is None:
                    tails = _slice_tails(cache, grid, orders)
                if last[key] > index:
                    kept[key] = tails
                if tails:
                    report.writelines(head + tail + "\n" for tail in tails.split("\n"))
            for _, grid, _ in slices:
                # q = 0.0 and -0.0 share a grid key, so it may go already
                if last[grid] == index:
                    cache.pop(grid, None)
    return counts


# --- summary classification table --------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    label: str
    witnesses: tuple[Witness, ...]
    present: bool
    minimum: float
    note: str = ""
    # Why the row's verdict is not the paper's verdict for the criterion of
    # the same name; empty when the row evaluates the paper's criterion.
    caveat: str = ""


# (label, witnesses, note, caveat): the fixed fields of each Table1Row
_TABLE_ROWS = (
    ("Higher-order two-mode antibunching",
     tuple(Witness("hoa", l=l, m=m) for l, m in HOA_ORDER_SET), "", ""),
    ("Quadrature squeezing", (Witness("quadx"), Witness("quady")), "", ""),
    ("Sum squeezing",
     tuple(Witness("sum", theta=t) for t in DEFAULT_THETAS), "", ""),
    ("Shchukin-Vogel criterion", (Witness("sv"),), "", ""),
    ("EPR (Mancini) criterion", (Witness("epr", form="literal"),), "", ""),
    ("SU(1,1) uncertainty criterion", (Witness("su11"),), "", ""),
    ("Cauchy-Schwarz inequality", (Witness("cs"),), "literature-standard form",
     "this is the intensity Cauchy-Schwarz inequality, a nonclassicality "
     "test that separable states also violate; it is not the paper's "
     "Cauchy-Schwarz based entanglement criterion, which the paper reports "
     "as never satisfied and which is not implemented"),
)


def table1_report(
    m_values=STANDARD_M,
    q_values=STANDARD_Q,
    p_grid=STANDARD_P_GRID,
    engine: Engine = Engine.LITERAL,
) -> list[Table1Row]:
    """Classify each criterion as present/absent over the standard grid.

    A criterion is "present" when any valid grid point is flagged
    nonclassical by any of its witness variants.  Single-mode moments go
    through the requested engine (literal by default); the purely
    number-conserving witnesses are engine-independent.  Each M is one
    ngbs sweep of every row's witnesses, run through the walk of
    :func:`compute_rows`, and each row's values reach its running minimum
    in its order (M as given, then ascending q, p and witness label), as
    ``min()`` takes them, which decides between 0.0 and -0.0.  Raises
    :class:`ConfigError` before any work when an M's sweep is invalid
    (:meth:`SweepConfig.validate`: a negative M, an empty q list or a
    repeated q, an M over the slice budget), when an M is repeated, and
    when no grid point is valid (for example an empty M list), since every
    row would then read "No" on no evidence.
    """
    rows = {witness: index for index, (_, witnesses, _, _) in enumerate(_TABLE_ROWS)
            for witness in witnesses}
    configs = [
        SweepConfig("ngbs", int(total), tuple(map(float, q_values)), p_grid, tuple(rows),
                    (engine,), Path())
        for total in m_values
    ]
    # a repeated M would run its whole sweep twice, as a repeated q would
    for index, config in enumerate(configs):
        if config.total in [earlier.total for earlier in configs[:index]]:
            raise ConfigError(f"repeated M: {config.total}")
    present = [False] * len(_TABLE_ROWS)
    minimum = [math.inf] * len(_TABLE_ROWS)
    valid = False
    for config in configs:
        for _, _, witness, _, outcome in _evaluations(config):
            if isinstance(outcome, InvalidParams):
                continue
            if isinstance(outcome, Exception):
                raise outcome
            valid = True
            if outcome.status == "ok":
                index = rows[witness]
                # min's rule: a later value replaces the minimum only when smaller
                if outcome.value < minimum[index]:
                    minimum[index] = outcome.value
                if outcome.nonclassical:
                    present[index] = True
    if not valid:
        raise ConfigError(
            f"no valid grid point for M in {tuple(m_values)}, q in {tuple(q_values)}"
        )
    return [
        Table1Row(label, witnesses, present[index], minimum[index], note, caveat)
        for index, (label, witnesses, note, caveat) in enumerate(_TABLE_ROWS)
    ]


def format_table1(rows) -> str:
    width = max(len(r.label) for r in rows) + 2
    lines = [f"{'Nonclassicality criterion':<{width}}Present",
             "-" * (width + 7)]
    for row in rows:
        mark = "Yes" if row.present else "No"
        suffix = f"  ({row.note})" if row.note else ""
        lines.append(f"{row.label:<{width}}{mark}{suffix}")
    return "\n".join(lines)
