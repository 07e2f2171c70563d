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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fock import FixedTotalState, MomentSpec
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
from .witnesses import DEFAULT_THETAS, Witness, evaluate

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "SweepConfig",
    "SweepRow",
    "Table1Row",
    "compute_rows",
    "format_table1",
    "load_config",
    "read_rows_csv",
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


@dataclass(frozen=True)
class SweepRow:
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
        return _witness_from_row(self).label()


def _witness_from_row(row: SweepRow) -> Witness:
    return Witness(row.witness_kind, l=row.l, m=row.m, theta=row.theta, form=row.form)


def _parse_engines(text: str) -> tuple[Engine, ...]:
    key = text.strip().lower()
    if key == "both":
        return (Engine.LITERAL, Engine.ORACLE)
    return (Engine.parse(key),)


def _parse_witness_field(text: str) -> tuple[Witness, ...]:
    # tokens separated by ';' or whitespace; each token may expand (bare
    # "sum" yields the default theta set)
    tokens = [t for t in text.replace(";", " ").split() if t]
    out: list[Witness] = []
    for token in tokens:
        out.extend(Witness.parse(token))
    return tuple(out)


def _parse_p_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"p grid must look like start:end:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse p grid {text!r}") from exc


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
            q_list=tuple(float(tok) for tok in values["q"].split(",") if tok.strip()),
            p_grid=_parse_p_grid(values["p"]),
            witnesses=_parse_witness_field(values["witnesses"]),
            engines=_parse_engines(values.get("engine", "literal")),
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


def compute_rows(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the sweep grid; one row per (q, p, witness, engine).

    Rows come out ordered lexicographically by (q, p, witness label,
    engine).  Parameter points that fail state-family validation yield
    status ``invalid_params`` rows rather than aborting the sweep.  Each
    (state, engine) pair keeps one moment table, so every distinct moment
    is computed once for all the witnesses of a grid point.
    """
    config.validate()
    witnesses = sorted(config.witnesses, key=lambda w: w.label())
    engines = sorted(config.engines, key=lambda e: e.value)
    rows: list[SweepRow] = []
    for q in sorted(config.q_list):
        for p in config.p_values():
            p = float(p)
            try:
                state = _build_state(config.state_family, config.total, p, q)
            except (InvalidParams, NormalizationAnomaly):
                state = None
            tables = {engine: {} for engine in engines}
            for witness in witnesses:
                for engine in engines:
                    base = SweepRow(
                        state_family=config.state_family,
                        total=config.total,
                        p=p,
                        q=q,
                        witness_kind=witness.kind,
                        l=witness.l,
                        m=witness.m,
                        theta=witness.theta,
                        form=witness.form,
                        engine=engine.value,
                        value=None,
                        nonclassical=None,
                        status="invalid_params",
                    )
                    if state is None:
                        rows.append(base)
                        continue
                    res = evaluate(state, witness, engine, tables[engine])
                    if res.status != "ok":
                        rows.append(replace(base, status=res.status))
                    else:
                        rows.append(replace(
                            base,
                            value=res.value,
                            nonclassical=res.nonclassical,
                            status="ok",
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


def read_rows_csv(path: Path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows (exact field round-trip)."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        for rec in reader:
            (family, m_tot, p, q, kind, l, m, theta, form,
             engine, value, nonclassical, status) = rec
            rows.append(SweepRow(
                state_family=family,
                total=int(m_tot),
                p=float(p),
                q=float(q),
                witness_kind=kind,
                l=int(l) if l else None,
                m=int(m) if m else None,
                theta=float(theta) if theta else None,
                form=form or None,
                engine=engine,
                value=float(value) if value else None,
                nonclassical={"true": True, "false": False}.get(nonclassical),
                status=status,
            ))
    return rows


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


def _discrepancy_rows(panels):
    rows = []
    for name, config in panels:
        orders = _panel_moment_orders(name, config.total)
        for q in sorted(config.q_list):
            for p in config.p_values():
                p = float(p)
                params = NGBSParams(config.total, p, q)
                if not params.is_valid():
                    continue
                state = ngbs(params)
                for mode in (1, 2):
                    specs = [
                        MomentSpec(d, low, 0, 0) if mode == 1 else MomentSpec(0, 0, d, low)
                        for d, low in orders
                    ]
                    for report in compare_engines(state, specs):
                        spec = report.spec
                        daggers = spec.j if mode == 1 else spec.r
                        lowers = spec.k if mode == 1 else spec.s
                        rows.append((
                            name, "ngbs", config.total, p, q, mode, daggers, lowers,
                            report.literal_value.real, report.oracle_value.real,
                            report.abs_discrepancy, report.degenerate,
                        ))
    return rows


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
    results: dict[str, list[SweepRow]] = {}
    for name, config in panels:
        rows = compute_rows(config)
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
        for rec in _discrepancy_rows(panels):
            writer.writerow([_cell(v) if not isinstance(v, str) else v for v in rec])
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
    number-conserving witnesses are engine-independent.
    """
    start, end, steps = p_grid
    p_values = np.linspace(start, end, steps)
    present = [False] * len(_TABLE_ROWS)
    minimum = [math.inf] * len(_TABLE_ROWS)
    # one state and one moment table serve every row; each row's values
    # reach min() in (M, q, p, witness) order, which decides between 0.0 and
    # -0.0
    for total in m_values:
        for q in q_values:
            for p in p_values:
                params = NGBSParams(int(total), float(p), float(q))
                if not params.is_valid():
                    continue
                state = ngbs(params)
                table = {}
                for index, (_, witnesses, _) in enumerate(_TABLE_ROWS):
                    for witness in witnesses:
                        res = evaluate(state, witness, engine, table)
                        if res.status != "ok":
                            continue
                        minimum[index] = min(minimum[index], res.value)
                        if res.nonclassical:
                            present[index] = True
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
