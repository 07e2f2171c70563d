import csv
import math
from collections import Counter

import numpy as np
import pytest

from twomode.cli import main
from twomode.fock import MomentSpec
from twomode.moments import Engine, MomentBatch
from twomode.states import NGBSParams
from twomode.svgplot import render_line_chart
from twomode.sweep import (
    CSV_HEADER,
    DISCREPANCY_HEADER,
    STANDARD_M,
    STANDARD_P_GRID,
    STANDARD_Q,
    ConfigError,
    SweepConfig,
    _panel_moment_orders,
    compute_rows,
    figure_panels,
    format_table1,
    load_config,
    reproduce_figures,
    run_sweep,
    table1_report,
    write_rows_csv,
)
from twomode.witnesses import Witness


def small_config(tmp_path, **overrides):
    base = dict(
        state_family="ngbs",
        total=6,
        q_list=(-0.01, 0.01),
        p_grid=(0.1, 0.9, 5),
        witnesses=(Witness("hoa", l=2, m=1), Witness("sv")),
        engines=(Engine.LITERAL, Engine.ORACLE),
        output_path=tmp_path / "out",
        output_format="csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


def read_csv(path):
    """The records of a sweep CSV, as dicts of cell text keyed by its header."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == CSV_HEADER
        return list(reader)


# --- config validation -----------------------------------------------------------

def test_config_rejects_degenerate_grid(tmp_path):
    with pytest.raises(ConfigError):
        small_config(tmp_path, p_grid=(0.5, 0.5, 2)).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, p_grid=(0.1, 0.9, 1)).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"state_family": "squeezed"},
        {"witnesses": ()},
        {"q_list": ()},
        {"engines": ()},
        {"output_format": "pdf"},
        {"total": -2},
    ],
)
def test_config_rejects_bad_fields(tmp_path, overrides):
    with pytest.raises(ConfigError):
        small_config(tmp_path, **overrides).validate()


def test_config_rejects_literal_engine_for_coherent(tmp_path):
    with pytest.raises(ConfigError):
        small_config(
            tmp_path, state_family="coherent", engines=(Engine.LITERAL,)
        ).validate()


def test_load_config_roundtrip(tmp_path):
    text = "\n".join([
        "# demo sweep",
        "state = ngbs",
        "M = 6",
        "q = -0.01,0.01",
        "p = 0.1:0.9:5",
        "witnesses = hoa:2,1 sv",
        "engine = both",
        f"out = {tmp_path / 'out'}",
        "format = csv",
    ])
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    config = load_config(path)
    assert config == small_config(tmp_path)


def test_load_config_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("state = ngbs\n")
    with pytest.raises(ConfigError):
        load_config(path)


# --- row generation ----------------------------------------------------------------

def test_row_count_conservation(tmp_path):
    config = small_config(tmp_path)
    rows = compute_rows(config)
    assert len(rows) == 2 * 5 * 2 * 2  # q x steps x witnesses x engines


def test_row_ordering_lexicographic(tmp_path):
    rows = compute_rows(small_config(tmp_path))
    keys = [(r.q, r.p, r.witness_label(), r.engine) for r in rows]
    assert keys == sorted(keys)


def test_invalid_points_become_error_rows(tmp_path):
    config = small_config(
        tmp_path, total=20, q_list=(-0.01,), p_grid=(0.05, 0.95, 10)
    )
    rows = compute_rows(config)
    assert len(rows) == 10 * 2 * 2
    bad = [r for r in rows if r.status == "invalid_params"]
    ok = [r for r in rows if r.status == "ok"]
    assert bad and ok
    for row in bad:
        assert row.value is None and row.nonclassical is None
    for row in ok:
        assert row.value is not None and math.isfinite(row.value)


def test_degenerate_rows_reported(tmp_path):
    # high antibunching order on a tiny state degenerates the denominator
    config = small_config(
        tmp_path,
        total=1,
        q_list=(0.0,),
        witnesses=(Witness("hoa", l=5, m=5),),
        engines=(Engine.ORACLE,),
    )
    rows = compute_rows(config)
    assert {r.status for r in rows} == {"degenerate"}


def test_binomial_family_ignores_q(tmp_path):
    config = small_config(
        tmp_path,
        state_family="binomial",
        witnesses=(Witness("sv"),),
        engines=(Engine.ORACLE,),
    )
    rows = compute_rows(config)
    by_q = {}
    for row in rows:
        by_q.setdefault(row.q, []).append(row.value)
    vals = list(by_q.values())
    assert vals[0] == vals[1]


def test_fock_family_states(tmp_path):
    config = small_config(
        tmp_path,
        state_family="fock",
        total=4,
        q_list=(0.0,),
        p_grid=(0.0, 1.0, 3),
        witnesses=(Witness("sv"),),
        engines=(Engine.ORACLE,),
    )
    rows = compute_rows(config)
    # p = 0, 0.5, 1 -> |0,4>, |2,2>, |4,0>
    assert [r.value for r in rows] == [
        pytest.approx((0 - 0.5) * (4 - 0.5)),
        pytest.approx((2 - 0.5) * (2 - 0.5)),
        pytest.approx((4 - 0.5) * (0 - 0.5)),
    ]


def test_coherent_family_oracle_rows(tmp_path):
    config = small_config(
        tmp_path,
        state_family="coherent",
        total=2,
        q_list=(0.0,),
        p_grid=(0.25, 0.75, 3),
        witnesses=(Witness("hoa", l=1, m=1),),
        engines=(Engine.ORACLE,),
    )
    rows = compute_rows(config)
    assert all(r.status == "ok" for r in rows)
    # for a coherent product with mean photon numbers (x, y) the order-(1,1)
    # antibunching value is (x - y)^2 / (2 x y): zero only for the balanced split
    for row in rows:
        x, y = row.p * 2, (1 - row.p) * 2
        assert row.value == pytest.approx((x - y) ** 2 / (2 * x * y), abs=1e-8)
        assert not row.nonclassical


# --- CSV + SVG -----------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    rows = compute_rows(small_config(tmp_path))
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    records = read_csv(path)
    assert len(records) == len(rows)
    parse = {"M": int, "p": float, "q": float, "l": int, "m": int, "theta": float,
             "value": float, "nonclassical": {"true": True, "false": False}.__getitem__}
    for row, record in zip(rows, records):
        # SweepRow's fields come in the order of the CSV columns; repr tells
        # the sign of a zero
        for name, want in zip(CSV_HEADER, row):
            cell = record[name]
            got = None if cell == "" else parse.get(name, str)(cell)
            assert (type(got), repr(got)) == (type(want), repr(want)), (name, row)


def test_csv_header_contract(tmp_path):
    rows = compute_rows(small_config(tmp_path))
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    first = path.read_text().splitlines()[0]
    assert first == ",".join(CSV_HEADER)
    assert first == "state,M,p,q,witness,l,m,theta,form,engine,value,nonclassical,status"


def test_sweep_run_deterministic_bytes(tmp_path):
    config_a = small_config(tmp_path, output_path=tmp_path / "a", output_format="svg+csv")
    config_b = small_config(tmp_path, output_path=tmp_path / "b", output_format="svg+csv")
    run_sweep(config_a)
    run_sweep(config_b)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_render_line_chart_filters_nonfinite():
    svg = render_line_chart(
        [("curve", [0.0, 0.5, 1.0], [1.0, float("nan"), 2.0])],
        title="t", x_label="x", y_label="y",
    )
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "nan" not in svg


def test_render_line_chart_deterministic():
    curves = [("a", [0, 1], [0.0, 1.0]), ("b", [0, 1], [1.0, -1.0])]
    one = render_line_chart(curves, "t", "x", "y")
    two = render_line_chart(curves, "t", "x", "y")
    assert one == two


# --- figure panels ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    reproduce_figures(out)
    return out


def test_figures_emit_all_panels(figure_dir):
    names = {p.name for p in figure_dir.iterdir()}
    expected = {f"fig{panel}{suffix}" for panel in ("2a", "2b", "2c", "2d", "3a", "3b",
                                                    "4a", "4b", "5a", "5b")
                for suffix in (".csv", ".svg")}
    expected.add("discrepancy_report.csv")
    assert names == expected


def test_fig2a_covers_the_order_set(figure_dir):
    rows = read_csv(figure_dir / "fig2a.csv")
    assert {(r["l"], r["m"]) for r in rows} == {("2", "2"), ("5", "1"), ("9", "1")}
    assert {r["q"] for r in rows} == {"-0.01"}
    assert {r["M"] for r in rows} == {"10"}
    assert {r["engine"] for r in rows} == {"oracle"}
    assert len({r["p"] for r in rows}) == 99


def test_fig4a_theta_zero_equals_pi(figure_dir):
    rows = read_csv(figure_dir / "fig4a.csv")
    by_theta = {}
    for row in rows:
        if row["status"] == "ok":
            by_theta.setdefault(round(float(row["theta"]), 9), []).append(
                (float(row["p"]), float(row["value"])))
    zero = sorted(by_theta[0.0])
    pi_curve = sorted(by_theta[round(math.pi, 9)])
    assert len(zero) == len(pi_curve) > 0
    for (p0, v0), (p1, v1) in zip(zero, pi_curve):
        assert p0 == p1
        assert abs(v0 - v1) <= 1e-12


def test_discrepancy_report_contents(figure_dir):
    with open(figure_dir / "discrepancy_report.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        records = list(reader)
    assert header == DISCREPANCY_HEADER
    diag_gap = 0.0
    offdiag_gap = 0.0
    for rec in records:
        daggers, lowers = int(rec[6]), int(rec[7])
        rel_gap = float(rec[10]) / max(1.0, abs(float(rec[9])))
        if daggers == lowers:
            diag_gap = max(diag_gap, rel_gap)
        else:
            offdiag_gap = max(offdiag_gap, rel_gap)
    # engines agree on the diagonal and disagree off it (the documented split)
    assert diag_gap <= 1e-9
    assert offdiag_gap > 0.1


# --- summary table -------------------------------------------------------------------

def test_table1_positive_q_has_no_antibunching():
    rows = table1_report(
        m_values=(10,), q_values=(0.005, 0.01, 0.1), p_grid=(0.05, 0.95, 19)
    )
    by_label = {r.label: r for r in rows}
    assert not by_label["Higher-order two-mode antibunching"].present


def test_format_table1_layout():
    rows = table1_report(m_values=(6,), q_values=(0.01,), p_grid=(0.2, 0.8, 7))
    text = format_table1(rows)
    lines = text.splitlines()
    assert lines[0].startswith("Nonclassicality criterion")
    assert len(lines) == 2 + len(rows)
    assert all(line.rstrip().endswith(("Yes", "No", ")")) for line in lines[2:])


# --- moment tables -------------------------------------------------------------------

def test_each_moment_is_computed_once_per_state_and_engine(monkeypatch, tmp_path):
    import twomode.moments as moments

    calls = Counter()
    states = []  # held so that no id is reused while the test counts

    def counting(name):
        compute = getattr(moments, name)

        def counted(state, spec):
            states.append(state)
            calls[(id(state), spec, name)] += 1
            return compute(state, spec)

        return counted

    for name in ("literal_moment", "moment_oracle"):
        monkeypatch.setattr(moments, name, counting(name))

    table1_report(m_values=(10,), q_values=(-0.01, 0.0), p_grid=(0.1, 0.9, 5))
    assert calls and max(calls.values()) == 1

    calls.clear()
    compute_rows(small_config(
        tmp_path, total=10, q_list=(-0.01, 0.0),
        witnesses=(Witness("quadx"), Witness("quady"), *Witness.parse("sum")),
    ))
    assert {name for _, _, name in calls} == {"literal_moment", "moment_oracle"}
    assert max(calls.values()) == 1


def _count_moment_calls(monkeypatch):
    """Wrap ``sweep.ngbs`` and both moment engines with counters.

    Returns ``(builds, calls, kinds)``: builds per grid point (M, p, q);
    computations per (point, spec, engine function), a batch call counting
    once for each of its rows' states; and calls per (engine function,
    whether it got a batch).
    """
    import twomode.moments as moments
    import twomode.sweep as sweep

    builds = Counter()
    calls = Counter()
    kinds = Counter()
    points = {}  # (M, amplitude bytes) -> (M, p, q)
    build = sweep.ngbs

    def counted_build(params):
        point = (params.total, params.p, params.q)
        builds[point] += 1
        state = build(params)
        points[(state.total, state.amplitudes.tobytes())] = point
        return state

    def counting(name):
        compute = getattr(moments, name)

        def counted(state, spec):
            batched = isinstance(state, MomentBatch)
            kinds[(name, batched)] += 1
            for row in state.amplitudes if batched else [state.amplitudes]:
                calls[(points[(state.total, row.tobytes())], spec, name)] += 1
            return compute(state, spec)

        return counted

    monkeypatch.setattr(sweep, "ngbs", counted_build)
    for name in ("literal_moment", "moment_oracle"):
        monkeypatch.setattr(moments, name, counting(name))
    return builds, calls, kinds


def test_figures_build_each_state_and_moment_once(monkeypatch, tmp_path):
    builds, calls, kinds = _count_moment_calls(monkeypatch)

    reproduce_figures(tmp_path)

    # what the panels' witnesses and the report's engine comparison need
    grid_points = set()
    needed = set()
    for name, config in figure_panels(tmp_path):
        (engine,) = config.engines
        panel_engine = "moment_oracle" if engine is Engine.ORACLE else "literal_moment"
        orders = _panel_moment_orders(name, config.total)
        compared = [MomentSpec(d, low, 0, 0) for d, low in orders]
        compared += [MomentSpec(0, 0, d, low) for d, low in orders]
        for q in config.q_list:
            for p in config.p_values():
                point = (config.total, float(p), q)
                grid_points.add(point)
                if not NGBSParams(*point).is_valid():
                    continue
                needed.update((point, spec, panel_engine)
                              for witness in config.witnesses for spec in witness.specs)
                needed.update((point, spec, both)
                              for spec in compared
                              for both in ("literal_moment", "moment_oracle"))
    assert builds == Counter(dict.fromkeys(grid_points, 1))
    assert set(calls) == needed
    assert max(calls.values()) == 1
    # the literal engine runs one batch per (M, q) slice and spec, the oracle
    # one state at a time
    literal_slices = {(M, q, spec) for (M, _, q), spec, name in needed
                      if name == "literal_moment"}
    assert kinds == Counter({
        ("literal_moment", True): len(literal_slices),
        ("moment_oracle", False): len([key for key in needed if key[2] == "moment_oracle"]),
    })


def test_table1_computes_each_literal_moment_once_per_slice(monkeypatch):
    import twomode.sweep as sweep

    builds, calls, kinds = _count_moment_calls(monkeypatch)
    reductions = Counter()
    reduce_columns = sweep.reduce_columns

    def counted_reduce(witness, columns):
        reductions[(len(columns[0]), witness)] += 1
        return reduce_columns(witness, columns)

    monkeypatch.setattr(sweep, "reduce_columns", counted_reduce)

    rows = table1_report()

    specs = {spec for row in rows for witness in row.witnesses for spec in witness.specs}
    valid = [(M, float(p), q) for M in STANDARD_M for q in STANDARD_Q
             for p in np.linspace(*STANDARD_P_GRID) if NGBSParams(M, float(p), q).is_valid()]
    assert len(specs) == 26 and len(valid) == 1106
    # invalid points are skipped before they are built
    assert builds == Counter(dict.fromkeys(valid, 1))
    assert set(calls) == {(point, spec, "literal_moment") for point in valid for spec in specs}
    assert max(calls.values()) == 1
    # one batch call per (M, q, spec): 2 M x 6 q x 26 specs
    assert kinds == Counter({("literal_moment", True): 312})
    # and one reduction per (M, q, witness), over all the slice's rows
    assert sum(reductions.values()) == 12 * 13
    assert sum(n for n, _ in reductions.elements()) == 13 * len(valid)


# --- CLI -----------------------------------------------------------------------------

def test_cli_sweep_roundtrip(tmp_path):
    out = tmp_path / "cli_out"
    code = main([
        "sweep", "--state", "ngbs", "--M", "6", "--q", "-0.01,0.01",
        "--p", "0.1:0.9:5", "--witness", "hoa:2,1", "--witness", "sv",
        "--engine", "both", "--out", str(out),
    ])
    assert code == 0
    expected = tmp_path / "expected.csv"
    write_rows_csv(compute_rows(small_config(tmp_path, output_path=out)), expected)
    assert (out / "sweep.csv").read_bytes() == expected.read_bytes()


def test_cli_sweep_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "from_cfg"
    cfg.write_text(
        f"state = ngbs\nM = 4\nq = 0\np = 0.2:0.8:3\nwitnesses = sv\nout = {out}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (out / "sweep.csv").exists()


def test_cli_exit_codes(tmp_path):
    # config errors -> 1 (including argparse usage errors)
    assert main(["sweep", "--state", "ngbs", "--M", "6", "--q", "0",
                 "--p", "0.5:0.5:2", "--witness", "sv",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["sweep", "--this-flag-does-not-exist"]) == 1
    assert main(["table1", "--q", "abc"]) == 1
    # i/o errors -> 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["sweep", "--state", "ngbs", "--M", "4", "--q", "0",
                 "--p", "0.2:0.8:3", "--witness", "sv",
                 "--out", str(blocker / "sub")]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--q", ""],
        ["table1", "--M", ""],
        ["table1", "--M", "-1"],
        ["table1", "--M", "ten"],
        ["table1", "--q", "-0.5", "--M", "10"],
        ["compare", "--M", "3", "--p", "0.5", "--max-order", "-1"],
    ],
)
def test_cli_rejects_empty_or_invalid_grids(argv, capsys):
    # an empty grid, or one without a valid point, would print a table of
    # "No" rows (or no rows) as if it had been evaluated
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_cli_sweep_rejects_nonfinite_theta_before_any_work(tmp_path, capsys, theta):
    # unchecked, a NaN angle gives ok rows valued nan and an infinite one a
    # "math domain error" once the whole sweep has run
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "10", "--q", "0",
                 "--p", "0.1:0.9:3", "--witness", f"sum:{theta}",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: theta must be finite")
    assert not out.exists()


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_cli_sweep_nonfinite_q_gives_invalid_params_rows(tmp_path, q):
    # NaN passes every range comparison, and q = inf would build the
    # product state |0, M> as if it were a member of the family
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "10", "--q", f"0.01,{q}",
                 "--p", "0.1:0.9:3", "--witness", "sv", "--witness", "hoa:2,1",
                 "--engine", "both", "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2 * 3 * 2 * 2
    statuses = Counter((math.isfinite(float(r["q"])), r["status"]) for r in rows)
    assert statuses == {(True, "ok"): 12, (False, "invalid_params"): 12}


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_cli_table1_rejects_nonfinite_q(capsys, q):
    assert main(["table1", "--q", q, "--M", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no valid grid point")
    # beside a finite q the point is skipped like any other invalid one
    assert main(["table1", "--q", f"0.01,{q}", "--M", "10"]) == 0
    mixed = capsys.readouterr().out
    assert main(["table1", "--q", "0.01", "--M", "10"]) == 0
    assert mixed == capsys.readouterr().out


def test_table1_report_rejects_grid_without_valid_point():
    with pytest.raises(ConfigError):
        table1_report(m_values=(10,), q_values=())
    with pytest.raises(ConfigError):
        table1_report(m_values=(-1,))


def test_cli_compare_runs(capsys):
    assert main(["compare", "--state", "ngbs", "--M", "4", "--p", "0.5",
                 "--q", "-0.01", "--max-order", "2"]) == 0
    out = capsys.readouterr().out
    assert "literal" in out and "oracle" in out
    assert len(out.splitlines()) == 2 + (9 + 8)  # header rows + specs


def test_cli_table1_restricted(capsys):
    assert main(["table1", "--q", "0.01,0.1", "--M", "10"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("Higher-order")][0]
    assert line.rstrip().endswith("No")


def test_cli_table1_states_cauchy_schwarz_caveat_on_stderr(capsys):
    assert main(["table1", "--q", "-0.01", "--M", "6"]) == 0
    captured = capsys.readouterr()
    row = [l for l in captured.out.splitlines() if l.startswith("Cauchy-Schwarz")][0]
    assert row.rstrip().endswith("Yes  (literature-standard form)")
    assert "note" not in captured.out
    notes = captured.err.splitlines()
    assert len(notes) == 1
    assert notes[0].startswith("note: Cauchy-Schwarz inequality: ")
    assert "not the paper's Cauchy-Schwarz based entanglement criterion" in notes[0]
