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

import csv
import math
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

STANDARD_M = (10, 20)
STANDARD_Q = (-0.01, -0.005, 0.0, 0.005, 0.01, 0.1)
STANDARD_P_GRID = (0.01, 0.99, 99)
HOA_ORDER_SET = ((2, 2), (5, 1), (9, 1))


class ConfigError(Exception):
    """Sweep configuration is structurally invalid."""


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
        if not start < end:
            raise ConfigError(f"p grid needs start < end, got {start!r}..{end!r}")
        if not self.witnesses:
            raise ConfigError("witness list must not be empty")
        if not self.engines:
            raise ConfigError("engine list must not be empty")
        if self.state_family == "coherent" and Engine.LITERAL in self.engines:
            raise ConfigError(
                "the literal engine requires a fixed-total state family; "
                "use engine=oracle with the coherent family"
            )
        if self.output_format not in ("csv", "svg+csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def p_values(self) -> np.ndarray:
        start, end, steps = self.p_grid
        return np.linspace(start, end, steps)


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

    Keys: state, M, q (comma-separated), p (start:end:steps), witnesses
    (';'- or space-separated tokens), engine (literal|oracle|both), out,
    format (csv|svg+csv).  Lines starting with '#' are comments.
    """
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().lower()] = val.strip()

    missing = {"state", "m", "q", "p", "witnesses", "out"} - set(values)
    if missing:
        raise ConfigError(f"config is missing keys: {sorted(missing)}")
    try:
        config = SweepConfig(
            state_family=values["state"].lower(),
            total=int(values["m"]),
            q_list=parse_list(values["q"]),
            p_grid=parse_p_grid(values["p"]),
            witnesses=parse_witness_field(values["witnesses"]),
            engines=parse_engines(values.get("engine", "literal")),
            output_path=Path(values["out"]),
            output_format=values.get("format", "csv"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _delta_state(total: int, n1: int) -> FixedTotalState:
    amps = np.zeros(total + 1)
    amps[n1] = 1.0
    return FixedTotalState(total, amps)


def _build_state(family: str, total: int, p: float, q: float):
    if family == "ngbs":
        return ngbs(NGBSParams(total, p, q))
    if family == "binomial":
        return binomial_state(total, p)
    if family == "fock":
        if not 0.0 <= p <= 1.0:
            raise InvalidParams(f"p must lie in [0, 1], got {p!r}")
        # floor-half-up keeps the photon split monotone in p
        return _delta_state(total, int(math.floor(p * total + 0.5)))
    if family == "coherent":
        if not 0.0 <= p <= 1.0:
            raise InvalidParams(f"p must lie in [0, 1], got {p!r}")
        mean1, mean2 = p * total, (1.0 - p) * total
        cutoff = int(math.ceil(10.0 * max(mean1, mean2, 1.0) + 10.0))
        return coherent_product(math.sqrt(mean1), math.sqrt(mean2), cutoff)
    raise ConfigError(f"unknown state family {family!r}")


class _LiteralSlice:
    """Literal moment columns and witness results of the fixed-total states
    of one grid slice, each computed once for the slice: a column by one
    :func:`twomode.moments.literal_moment` call on a :class:`MomentBatch` of
    the states (looked up at call time, so that a wrapper sees it), results
    by one :func:`~twomode.witnesses.reduce_columns`.  Row i is what state i
    gives alone.
    """

    def __init__(self, states):
        self._states = states
        self._batch = None
        self._columns = {}
        self._results = {}

    def column(self, spec: MomentSpec) -> list:
        column = self._columns.get(spec)
        if column is None:
            if self._batch is None:
                self._batch = moments.MomentBatch.stack(self._states)
            column = self._columns[spec] = moments.literal_moment(self._batch, spec)
        return column

    def results(self, witness: Witness) -> list:
        results = self._results.get(witness)
        if results is None:
            results = self._results[witness] = reduce_columns(
                witness, [self.column(spec) for spec in witness.specs])
        return results


class _SliceRow(NamedTuple):
    """One state's literal moment table, a row of its slice, which computes
    what the ``get`` of :func:`~twomode.moments.compare_engines` or the
    ``result`` of :func:`~twomode.witnesses.evaluate` misses, inside that
    call.  The slice holds no reference to its rows: no reference cycle."""

    literal_slice: _LiteralSlice
    row: int

    def get(self, spec: MomentSpec):
        return self.literal_slice.column(spec)[self.row]

    def result(self, witness: Witness):
        return self.literal_slice.results(witness)[self.row]


def _grid_slice(cache: dict, family: str, total: int, q: float, p_values: tuple):
    """The states of one (family, M, q) slice of a p grid and their moment
    tables, built once per cache.

    ``cache`` maps ``(family, M, q, p_values)`` to one ``(p, state, {engine:
    table})`` per p, with ``state`` None when the point fails state-family
    validation.  The literal tables of a slice's fixed-total states are
    rows of one :class:`_LiteralSlice`; other engines get their tables on
    first use.  A caller that passes one cache to several sweeps builds
    each distinct state once and computes each of its moments once per
    engine.  (``ngbs`` gives the same state for q = 0.0 and -0.0, which
    share a key.)
    """
    key = (family, total, q, p_values)
    points = cache.get(key)
    if points is None:
        states = []
        for p in p_values:
            try:
                states.append(_build_state(family, total, p, q))
            except (InvalidParams, NormalizationAnomaly):
                states.append(None)
        fixed = [state for state in states if isinstance(state, FixedTotalState)]
        literal = _LiteralSlice(fixed)
        rows = (_SliceRow(literal, index) for index in range(len(fixed)))
        points = cache[key] = [
            (p, state, {Engine.LITERAL: next(rows)} if isinstance(state, FixedTotalState) else {})
            for p, state in zip(p_values, states)
        ]
    return points


def compute_rows(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the sweep grid; one row per (q, p, witness, engine).

    Rows come out ordered lexicographically by (q, p, witness label,
    engine).  Parameter points that fail state-family validation yield
    status ``invalid_params`` rows rather than aborting the sweep.  Each
    (state, engine) pair keeps one moment table, so every distinct moment
    is computed once for all the witnesses of a grid point; the literal
    engine computes it once for all the states of a q slice, in one batch.
    """
    return _compute_rows(config, {})


def _compute_rows(config: SweepConfig, cache: dict) -> list[SweepRow]:
    """:func:`compute_rows` with states and moment tables from ``cache``
    (see :func:`_grid_slice`)."""
    config.validate()
    witnesses = sorted(config.witnesses, key=lambda w: w.label())
    engines = sorted(config.engines, key=lambda e: e.value)
    p_values = tuple(float(p) for p in config.p_values())
    rows: list[SweepRow] = []
    for q in sorted(config.q_list):
        for p, state, tables in _grid_slice(
                cache, config.state_family, config.total, q, p_values):
            for witness in witnesses:
                for engine in engines:
                    value = nonclassical = None
                    status = "invalid_params"
                    if state is not None:
                        res = evaluate(state, witness, engine, tables.setdefault(engine, {}))
                        status = res.status
                        if status == "ok":
                            value, nonclassical = res.value, res.nonclassical
                    rows.append(SweepRow(
                        config.state_family, config.total, p, q, witness.kind,
                        witness.l, witness.m, witness.theta, witness.form,
                        engine.value, value, nonclassical, status,
                    ))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows_csv(rows, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.state_family, _cell(row.total), _cell(row.p), _cell(row.q),
                row.witness_kind, _cell(row.l), _cell(row.m), _cell(row.theta),
                _cell(row.form), row.engine, _cell(row.value),
                _cell(row.nonclassical), row.status,
            ])


def _safe_stem(label: str) -> str:
    return label.replace(":", "_").replace(",", "-").replace(".", "p")


def _curves(rows):
    """Group ok/degenerate rows into labelled (xs, ys) curves over p."""
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        if row.status == "invalid_params":
            continue
        key = (row.witness_label(), row.q, row.engine)
        groups.setdefault(key, []).append(row)
    curves = []
    for (label, q, engine) in sorted(groups, key=lambda k: (k[0], k[1], k[2])):
        sub = sorted(groups[(label, q, engine)], key=lambda r: r.p)
        xs = [r.p for r in sub]
        ys = [r.value if r.value is not None else float("nan") for r in sub]
        curves.append((f"{label} q={q:g} [{engine}]", xs, ys))
    return curves


def render_sweep_svgs(rows, out_dir: Path, stem: str) -> list[Path]:
    """One chart per witness label, one curve per (q, engine)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_label: dict[str, list[SweepRow]] = {}
    for row in rows:
        by_label.setdefault(row.witness_label(), []).append(row)
    written = []
    for label in sorted(by_label):
        svg = render_line_chart(
            _curves(by_label[label]),
            title=f"{stem}: {label}",
            x_label="p",
            y_label="witness value",
        )
        path = out_dir / f"{stem}_{_safe_stem(label)}.svg"
        path.write_text(svg)
        written.append(path)
    return written


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Run the sweep and write ``sweep.csv`` (plus charts) to the output dir."""
    config.validate()
    rows = compute_rows(config)
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, out_dir / "sweep.csv")
    if config.output_format == "svg+csv":
        render_sweep_svgs(rows, out_dir, "sweep")
    return rows


# --- reference figure reproduction -------------------------------------------

def _panel_config(name, total, q_list, witnesses, engine, out_dir):
    return name, SweepConfig(
        state_family="ngbs",
        total=total,
        q_list=tuple(q_list),
        p_grid=STANDARD_P_GRID,
        witnesses=tuple(witnesses),
        engines=(engine,),
        output_path=Path(out_dir),
        output_format="csv",
    )


def figure_panels(out_dir: Path):
    """The named sweep presets behind ``reproduce_figures``.

    Antibunching panels (fig2*) are engine-agnostic and use the oracle;
    squeezing and inseparability panels (fig3*..fig5*) use the literal
    engine, whose number-changing single-mode moments they need to show
    any structure at all.  The fig4 q value and the antibunching order set
    {(2,2), (5,1), (9,1)} are documented artifact choices.
    """
    hoa_set = [Witness("hoa", l=l, m=m) for l, m in HOA_ORDER_SET]
    quad = [Witness("quadx"), Witness("quady")]
    thetas = [Witness("sum", theta=t) for t in DEFAULT_THETAS]
    sv_w = [Witness("sv")]
    return [
        _panel_config("fig2a", 10, [-0.01], hoa_set, Engine.ORACLE, out_dir),
        _panel_config("fig2b", 10, [-0.005], hoa_set, Engine.ORACLE, out_dir),
        _panel_config("fig2c", 20, [-0.01], hoa_set, Engine.ORACLE, out_dir),
        _panel_config("fig2d", 20, [-0.005], hoa_set, Engine.ORACLE, out_dir),
        _panel_config("fig3a", 10, [0.01, 0.0, -0.01], quad, Engine.LITERAL, out_dir),
        _panel_config("fig3b", 20, [0.01, 0.0, -0.01], quad, Engine.LITERAL, out_dir),
        _panel_config("fig4a", 10, [-0.01], thetas, Engine.LITERAL, out_dir),
        _panel_config("fig4b", 20, [-0.01], thetas, Engine.LITERAL, out_dir),
        _panel_config("fig5a", 10, [0.01, -0.01, 0.0, 0.1], sv_w, Engine.LITERAL, out_dir),
        _panel_config("fig5b", 20, [-0.005, 0.0, 0.1], sv_w, Engine.LITERAL, out_dir),
    ]


_DIAGNOSTIC_SPECS = (
    (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2),
)


def _panel_moment_orders(panel_name: str, total: int):
    """Single-mode (daggers, lowers) pairs consumed by a panel's witnesses."""
    if panel_name.startswith("fig2"):
        orders = set()
        for l, m in HOA_ORDER_SET:
            orders.update((l, l + 1, m, max(m - 1, 0)))
        return tuple((k, k) for k in sorted(orders) if k <= total)
    return _DIAGNOSTIC_SPECS


def _discrepancy_rows(panels, cache: dict):
    """Yield the discrepancy report's records, ready for ``csv.writer``.

    One record per (panel, valid grid point, mode, moment), with states and
    moment tables from ``cache`` (see :func:`_grid_slice`).  ``p`` and ``q``
    come as their ``repr``, made once per grid point; the other floats are
    Python floats, which the csv module writes as their ``repr``; the flag is
    written ``true``/``false``: the cells :func:`_cell` would give.
    """
    for name, config in panels:
        orders = _panel_moment_orders(name, config.total)
        mode_specs = (
            (1, [MomentSpec(d, low, 0, 0) for d, low in orders]),
            (2, [MomentSpec(0, 0, d, low) for d, low in orders]),
        )
        p_values = tuple(float(p) for p in config.p_values())
        for q in sorted(config.q_list):
            q_cell = repr(q)
            for p, state, tables in _grid_slice(cache, "ngbs", config.total, q, p_values):
                params = NGBSParams(config.total, p, q)
                if not params.is_valid():
                    continue
                p_cell = repr(p)
                if state is None:
                    # a valid point whose state failed to build (a
                    # NormalizationAnomaly) stops the report, as it always has
                    state = ngbs(params)
                for mode, specs in mode_specs:
                    reports = compare_engines(state, specs, tables)
                    for (daggers, lowers), report in zip(orders, reports):
                        yield (
                            name, "ngbs", config.total, p_cell, q_cell, mode, daggers, lowers,
                            float(report.literal_value.real),
                            float(report.oracle_value.real),
                            float(report.abs_discrepancy),
                            "true" if report.degenerate else "false",
                        )


DISCREPANCY_HEADER = (
    "figure", "state", "M", "p", "q", "mode", "daggers", "lowers",
    "literal", "oracle", "abs_discrepancy", "degenerate",
)


def reproduce_figures(out_dir: Path) -> dict[str, list[SweepRow]]:
    """Write one CSV + SVG pair per reference figure panel plus the
    engine-discrepancy report; byte-deterministic across runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    panels = figure_panels(out_dir)
    # one state and one moment table per engine for each distinct grid point,
    # shared by every panel and the discrepancy report
    cache: dict = {}
    results: dict[str, list[SweepRow]] = {}
    for name, config in panels:
        rows = _compute_rows(config, cache)
        results[name] = rows
        write_rows_csv(rows, out_dir / f"{name}.csv")
        chart = render_line_chart(
            _curves(rows),
            title=name,
            x_label="p",
            y_label="witness value",
        )
        (out_dir / f"{name}.svg").write_text(chart)

    with open(out_dir / "discrepancy_report.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DISCREPANCY_HEADER)
        writer.writerows(_discrepancy_rows(panels, cache))
    return results


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


_TABLE_ROWS = (
    ("Higher-order two-mode antibunching",
     tuple(Witness("hoa", l=l, m=m) for l, m in HOA_ORDER_SET), ""),
    ("Quadrature squeezing", (Witness("quadx"), Witness("quady")), ""),
    ("Sum squeezing",
     tuple(Witness("sum", theta=t) for t in DEFAULT_THETAS), ""),
    ("Shchukin-Vogel criterion", (Witness("sv"),), ""),
    ("EPR (Mancini) criterion", (Witness("epr", form="literal"),), ""),
    ("SU(1,1) uncertainty criterion", (Witness("su11"),), ""),
    ("Cauchy-Schwarz inequality", (Witness("cs"),),
     "literature-standard form"),
)

_TABLE_CAVEATS = {
    "Cauchy-Schwarz inequality": (
        "this is the intensity Cauchy-Schwarz inequality, a nonclassicality "
        "test that separable states also violate; it is not the paper's "
        "Cauchy-Schwarz based entanglement criterion, which the paper reports "
        "as never satisfied and which is not implemented"),
}


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
    number-conserving witnesses are engine-independent.  Raises
    :class:`ConfigError` when no grid point is valid (for example an empty
    q or M list), since every row would then read "No" on no evidence.
    """
    p_values = np.linspace(*p_grid).tolist()
    present = [False] * len(_TABLE_ROWS)
    minimum = [math.inf] * len(_TABLE_ROWS)
    valid_points = 0
    # each row's values reach min() in (M, q, p, witness) order, which
    # decides between 0.0 and -0.0
    for total in m_values:
        total = int(total)
        for q in q_values:
            q = float(q)
            valid = tuple(p for p in p_values if NGBSParams(total, p, q).is_valid())
            # one slice at a time: its states and tables go when it is done
            for p, state, tables in _grid_slice({}, "ngbs", total, q, valid):
                valid_points += 1
                if state is None:
                    # a valid point whose state failed to build (a
                    # NormalizationAnomaly) stops the table, as it always has
                    state = ngbs(NGBSParams(total, p, q))
                table = tables.setdefault(engine, {})
                for index, (_, witnesses, _) in enumerate(_TABLE_ROWS):
                    for witness in witnesses:
                        res = evaluate(state, witness, engine, table)
                        if res.status != "ok":
                            continue
                        minimum[index] = min(minimum[index], res.value)
                        if res.nonclassical:
                            present[index] = True
    if not valid_points:
        raise ConfigError(
            f"no valid grid point for M in {tuple(m_values)}, q in {tuple(q_values)}"
        )
    return [
        Table1Row(
            label=label,
            witnesses=witnesses,
            present=present[index],
            minimum=minimum[index],
            note=note,
            caveat=_TABLE_CAVEATS.get(label, ""),
        )
        for index, (label, witnesses, note) in enumerate(_TABLE_ROWS)
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
