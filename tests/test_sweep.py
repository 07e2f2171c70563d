import csv
import io
import itertools
import math
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twomode.cli import main
from twomode.fock import MomentSpec
from twomode.moments import Engine, MomentBatch
from twomode.states import NGBSParams, NormalizationAnomaly
from twomode.svgplot import render_line_chart
from twomode.sweep import (
    CSV_HEADER,
    DISCREPANCY_HEADER,
    MAX_SLICE_BYTES,
    STANDARD_M,
    STANDARD_P_GRID,
    STANDARD_Q,
    ConfigError,
    SweepConfig,
    SweepRow,
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

from conftest import is_valid


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
        {"p_grid": (-math.inf, 0.9, 3)},
        {"p_grid": (0.1, math.nan, 3)},
        {"q_list": (0.01, -0.01, 0.01)},
        {"witnesses": (Witness("sv"), Witness("hoa", l=2, m=1), Witness("sv"))},
    ],
)
def test_config_rejects_bad_fields(tmp_path, overrides):
    with pytest.raises(ConfigError):
        small_config(tmp_path, **overrides).validate()


def test_config_rejects_a_slice_over_the_byte_budget(tmp_path):
    # a q slice stacks 16 * steps * (M + 1) bytes of amplitudes; the configs
    # are only validated here, so nothing of that size is allocated
    fields = {"state": "ngbs", "q": "0", "witnesses": "sv", "out": str(tmp_path / "out")}
    at_budget = ((0, MAX_SLICE_BYTES // 16), (MAX_SLICE_BYTES // 32 - 1, 2))
    for total, steps in at_budget:
        SweepConfig.from_fields({**fields, "m": str(total), "p": f"0:1:{steps}"})
    for total, steps in ((0, MAX_SLICE_BYTES // 16 + 1), (MAX_SLICE_BYTES // 32, 2),
                         (20, 10_000_000_000)):
        with pytest.raises(ConfigError, match=f"p grid of {steps} steps at M={total} needs"):
            SweepConfig.from_fields({**fields, "m": str(total), "p": f"0:1:{steps}"})


def test_cli_sweep_rejects_a_slice_over_the_byte_budget(monkeypatch, tmp_path, capsys):
    import twomode.cli as cli

    def no_run(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_run)
    steps = MAX_SLICE_BYTES // (16 * 21) + 1
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "20", "--q", "0",
                 "--p", f"0:1:{steps}", "--witness", "sv", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: p grid of {steps} steps at M=20 needs")
    assert not out.exists()


# the largest M of each engine on the 99-point p grid, as README states them
_BUDGET_LIMITS = (
    ("ngbs", "literal", 10_590),
    ("ngbs", "oracle", 698),
    ("binomial", "both", 698),
    ("coherent", "oracle", 58),
)


@pytest.mark.parametrize("family, engine, largest", _BUDGET_LIMITS)
def test_cli_sweep_budget_counts_the_oracle_grids_and_the_coherent_grid(
        monkeypatch, tmp_path, capsys, family, engine, largest):
    import twomode.cli as cli

    def no_run(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_run)
    argv = ["sweep", "--state", family, "--q", "0", "--p", "0.01:0.99:99", "--witness", "sv",
            "--engine", engine, "--out", str(tmp_path / "out")]
    # at the limit the sweep starts its work
    with pytest.raises(AssertionError, match="the sweep ran"):
        main([*argv, "--M", str(largest)])
    assert main([*argv, "--M", str(largest + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: p grid of 99 steps at M={largest + 1} needs")
    assert captured.err.rstrip().endswith(f"over the budget of {MAX_SLICE_BYTES} bytes")
    # an M past any float is rejected by its batch alone
    assert main([*argv, "--M", "1" + "0" * 400]) == 1
    assert capsys.readouterr().err.startswith("error: p grid of 99 steps at M=1000")


def test_table1_report_counts_the_oracle_grids_before_any_work(monkeypatch):
    import twomode.sweep as sweep

    def no_work(*args, **kwargs):
        raise AssertionError("table1 ran")

    monkeypatch.setattr(sweep, "_grid_slice", no_work)
    with pytest.raises(ConfigError, match="p grid of 99 steps at M=699 needs"):
        table1_report(m_values=(10, 699), engine=Engine.ORACLE)
    with pytest.raises(AssertionError, match="table1 ran"):
        table1_report(m_values=(698,), engine=Engine.ORACLE)


def test_sweep_slices_hold_array_columns_and_states_without_dicts(tmp_path):
    # the memory layout of a sweep's cache: each moment column of a slice is
    # one complex128 array, under either engine and for every kind of moment
    # (an empty series, a product of series, the oracle's zeros and grids),
    # no state carries an instance dict, and every valid point of a q slice
    # has that slice as its table, one batch row per valid point
    from twomode.sweep import _compute_rows

    witnesses = (Witness("hoa", l=9, m=1), Witness("sv"), Witness("quadx"))
    config = small_config(tmp_path, witnesses=witnesses)
    cache = {}
    _compute_rows(config, cache)
    slices = []
    for points in cache.values():
        valid = [(state, table) for _, state, table in points
                 if not isinstance(state, Exception)]
        grid_slice = valid[0][1]
        for state, table in valid:
            assert not hasattr(state, "__dict__")
            assert table is grid_slice
        assert len(grid_slice.rows) == len(valid)
        slices.append(grid_slice)
    assert len(slices) == len(config.q_list)
    for grid_slice in slices:
        rows = len(grid_slice.batch.amplitudes)
        for engine in config.engines:
            columns = grid_slice.columns[engine]
            assert set(columns) == {spec for witness in witnesses for spec in witness.specs}
            for spec, column in columns.items():
                assert isinstance(column, np.ndarray), spec
                assert (column.dtype, column.shape) == (np.complex128, (rows,)), spec


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


def test_load_config_names_unknown_keys(tmp_path):
    # a misspelt key would otherwise leave its field at the default: here the
    # literal engine alone, where both engines were asked for
    path = tmp_path / "typo.cfg"
    path.write_text(f"state = ngbs\nM = 4\nq = 0\np = 0.2:0.8:3\nwitnesses = sv\n"
                    f"engnie = both\nout = {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=r"^unknown fields: \['engnie'\]$"):
        load_config(path)
    assert not (tmp_path / "out").exists()


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


def test_coherent_slices_hold_one_state_grid_at_a_time(monkeypatch, tmp_path):
    # _check_budget counts one state grid per coherent slice: each state is
    # built when its point is reached, cached nowhere, and gone before the
    # next is built (the live count only grows at a build)
    import weakref

    import twomode.sweep as sweep

    grids = []  # a weak reference to the grid of each state built
    live = []  # grids alive right after each build
    build = sweep.coherent_product

    def counted_build(*args):
        state = build(*args)
        grids.append(weakref.ref(state.amps))
        live.append(sum(ref() is not None for ref in grids))
        return state

    monkeypatch.setattr(sweep, "coherent_product", counted_build)
    config = small_config(tmp_path, state_family="coherent", q_list=(0.0, 0.01),
                          p_grid=(-0.2, 0.8, 6), engines=(Engine.ORACLE,))
    rows = compute_rows(config)
    # p = -0.2 gives an invalid_params row and builds no state
    assert len(live) == 2 * 5 and max(live) == 1
    assert sum(row.status == "invalid_params" for row in rows) == 2 * 2
    assert all(ref() is None for ref in grids)


def test_compute_rows_holds_one_q_slice_at_a_time(monkeypatch, tmp_path):
    # without a shared cache a q slice, its states and its moment columns,
    # is gone before the next one is built, so a sweep's memory does not
    # grow with the length of its q list
    import weakref

    import twomode.sweep as sweep

    slices = []  # a weak reference to each slice built
    live = []  # slices alive right after each build
    init = sweep._LiteralSlice.__init__

    def counted_init(self, states):
        init(self, states)
        slices.append(weakref.ref(self))
        live.append(sum(ref() is not None for ref in slices))

    monkeypatch.setattr(sweep._LiteralSlice, "__init__", counted_init)
    compute_rows(small_config(tmp_path, q_list=(-0.01, 0.0, 0.005, 0.01)))
    assert len(live) == 4 and max(live) == 1
    assert all(ref() is None for ref in slices)


def test_table1_holds_one_q_slice_at_a_time(monkeypatch):
    # each (M, q) slice of table1, its states and its moment columns, is
    # gone before the next one is built: no point of the last slice stays
    # bound after its loop
    import weakref

    import twomode.sweep as sweep

    slices = []  # a weak reference to each slice built
    live = []  # slices alive right after each build
    init = sweep._LiteralSlice.__init__

    def counted_init(self, states):
        init(self, states)
        slices.append(weakref.ref(self))
        live.append(sum(ref() is not None for ref in slices))

    monkeypatch.setattr(sweep._LiteralSlice, "__init__", counted_init)
    table1_report(m_values=(6, 8), q_values=(-0.01, 0.0, 0.01), p_grid=(0.1, 0.9, 5))
    assert len(live) == 6 and max(live) == 1
    assert all(ref() is None for ref in slices)


def test_sweep_rows_do_not_depend_on_the_order_of_q(tmp_path):
    # sorted() is no total order on NaN and signed zeros: the q slices go
    # in ascending order, -0.0 before 0.0 and NaN last, whatever order the
    # q list gives them in
    outputs = set()
    for index, q_list in enumerate(itertools.permutations(("0.01", "nan", "0", "-0"))):
        out = tmp_path / str(index)
        assert main(["sweep", "--state", "ngbs", "--M", "4", f"--q={','.join(q_list)}",
                     "--p", "0.1:0.9:3", "--witness", "sv", "--engine", "both",
                     "--out", str(out)]) == 0
        outputs.add((out / "sweep.csv").read_bytes())
    (text,) = outputs
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    assert list(dict.fromkeys(row["q"] for row in rows)) == ["-0.0", "0.0", "0.01", "nan"]


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


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _reference_csv(rows) -> bytes:
    """The sweep CSV as ``csv.writer`` writes it, cell by cell."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.state_family, _reference_cell(row.total), _reference_cell(row.p),
            _reference_cell(row.q), row.witness_kind, _reference_cell(row.l),
            _reference_cell(row.m), _reference_cell(row.theta), _reference_cell(row.form),
            row.engine, _reference_cell(row.value), _reference_cell(row.nonclassical),
            row.status,
        ])
    return out.getvalue().encode()


def _cell_kind_rows():
    """Rows holding every kind of cell, in runs that share their ``p`` object
    and differ only in the sign of a zero ``q`` (or the other way round)."""
    cells = [  # (theta, value, nonclassical)
        (None, None, None), (0.0, 1.5, True), (-0.0, -0.0, False),
        (np.float64(-0.0), np.float64(2.5), np.bool_(True)),
        (math.pi, math.nan, np.bool_(False)), (None, math.inf, None),
        (None, -math.inf, True), (None, np.float64(math.nan), False),
    ]
    p = 0.5
    rows = [SweepRow("ngbs", 10, p, q, "sum", None, None, theta, None, "literal",
                     value, flag, "ok")
            for q in (0.0, -0.0, np.float64(-0.0), 0.0, 0.01, np.float64(0.25))
            for theta, value, flag in cells]
    q = 0.0
    rows += [SweepRow("binomial", np.int64(20), p, q, "hoa", np.int64(2), 1, None, None,
                      "oracle", 0.25, False, "ok")
             for p in (0.0, -0.0, np.float64(0.5), np.float64(-0.0))]
    rows.append(SweepRow("coherent", 4, 0.1, q, "epr", None, None, None, "variance",
                         "oracle", None, None, "invalid_params"))
    return rows


def test_csv_is_what_csv_writer_writes(tmp_path):
    path = tmp_path / "rows.csv"
    for rows in (_cell_kind_rows(), compute_rows(small_config(tmp_path))):
        write_rows_csv(iter(rows), path)
        assert path.read_bytes() == _reference_csv(rows)


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


def test_svg_labels_keep_the_sign_of_a_zero_theta(tmp_path):
    # labels are computed once per distinct witness; 0.0 == -0.0, yet the
    # labels sum:0.0 and sum:-0.0 differ
    out = tmp_path / "out"
    run_sweep(small_config(tmp_path, witnesses=(Witness("sum", theta=0.0),
                                                Witness("sum", theta=-0.0)),
                           output_format="svg+csv"))
    charts = {path.name: path.read_text() for path in out.glob("*.svg")}
    assert sorted(charts) == ["sweep_sum_-0p0.svg", "sweep_sum_0p0.svg"]
    assert "sweep: sum:-0.0" in charts["sweep_sum_-0p0.svg"]
    assert "sum:0.0 q=" in charts["sweep_sum_0p0.svg"]
    assert "sum:-0.0 q=" not in charts["sweep_sum_0p0.svg"]


def test_svg_draws_a_curve_for_each_signed_zero_q(tmp_path):
    # 0.0 == -0.0, yet the q = 0.0 and q = -0.0 slices are two curves of 9 points
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "10", "--q=-0.0,0.0,-0.01",
                 "--p", "0.1:0.9:9", "--witness", "su11", "--engine", "both",
                 "--format", "svg+csv", "--out", str(out)]) == 0
    svg = (out / "sweep_su11.svg").read_text()
    texts = [line.rpartition('">')[2].removesuffix("</text>")
             for line in svg.splitlines() if line.endswith("</text>")]
    legend = [text for text in texts if text.startswith("su11 q=")]
    assert legend == [f"su11 q={q} [{engine}]" for q in ("-0.01", "-0", "0")
                      for engine in ("literal", "oracle")]
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert [line.count(",") for line in polylines] == [9] * 6


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


def test_discrepancy_report_is_what_csv_writer_writes(figure_dir):
    # the report's lines are formatted by hand; the csv module must read them
    # back to cells that it writes to the same bytes (no quoting, "\n" ends)
    text = (figure_dir / "discrepancy_report.csv").read_bytes().decode()
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows(csv.reader(io.StringIO(text, newline="")))
    lines, again = text.splitlines(True), out.getvalue().splitlines(True)
    assert len(again) == len(lines) == text.count("\n") > 1
    # line by line, so that a failure does not diff two 2-MB strings
    mismatched = [(line, want) for line, want in zip(lines, again) if line != want]
    assert not mismatched, mismatched[:3]


def _fail_one_valid_point(monkeypatch):
    """Make ``ngbs`` raise NormalizationAnomaly at a valid point of the
    M = 10, q = 0 slice; the list it returns gets each exception raised."""
    import twomode.sweep as sweep

    build = sweep.ngbs
    failing = NGBSParams(10, float(np.linspace(*STANDARD_P_GRID)[40]), 0.0)
    assert is_valid(failing)
    raised = []

    def anomalous(params):
        if params == failing:
            raised.append(NormalizationAnomaly("norm drifted"))
            raise raised[-1]
        return build(params)

    monkeypatch.setattr(sweep, "ngbs", anomalous)
    return raised


def test_figures_stop_on_a_valid_point_whose_state_fails(monkeypatch, tmp_path):
    # panels fig3a and fig5a write the point as an invalid_params row; the
    # report stops on the failure its slice kept, without building it again
    raised = _fail_one_valid_point(monkeypatch)
    with pytest.raises(NormalizationAnomaly) as caught:
        reproduce_figures(tmp_path)
    assert len(raised) == 1 and caught.value is raised[0]


def test_table1_stops_on_a_valid_point_whose_state_fails(monkeypatch):
    raised = _fail_one_valid_point(monkeypatch)
    with pytest.raises(NormalizationAnomaly) as caught:
        table1_report()
    assert len(raised) == 1 and caught.value is raised[0]


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
    for name, config in figure_panels():
        (engine,) = config.engines
        panel_engine = "moment_oracle" if engine is Engine.ORACLE else "literal_moment"
        orders = _panel_moment_orders(name, config)
        compared = [MomentSpec(d, low, 0, 0) for d, low in orders]
        compared += [MomentSpec(0, 0, d, low) for d, low in orders]
        for q in config.q_list:
            for p in config.p_values():
                point = (config.total, float(p), q)
                grid_points.add(point)
                if not is_valid(NGBSParams(*point)):
                    continue
                needed.update((point, spec, panel_engine)
                              for witness in config.witnesses for spec in witness.specs)
                needed.update((point, spec, both)
                              for spec in compared
                              for both in ("literal_moment", "moment_oracle"))
    assert builds == Counter(dict.fromkeys(grid_points, 1))
    assert set(calls) == needed
    assert max(calls.values()) == 1
    # each engine runs one batch per (M, q) slice and spec
    slices = {(M, q, spec, name) for (M, _, q), spec, name in needed}
    assert kinds == Counter((name, True) for *_, name in slices)


def test_table1_computes_each_literal_moment_once_per_slice(monkeypatch):
    import twomode.sweep as sweep

    builds, calls, kinds = _count_moment_calls(monkeypatch)
    reductions = Counter()
    reduce_columns = sweep.reduce_columns

    def counted_reduce(witness, columns, engine):
        reductions[(len(columns[0]), witness)] += 1
        return reduce_columns(witness, columns, engine)

    monkeypatch.setattr(sweep, "reduce_columns", counted_reduce)

    rows = table1_report()

    specs = {spec for row in rows for witness in row.witnesses for spec in witness.specs}
    grid = [(M, float(p), q) for M in STANDARD_M for q in STANDARD_Q
            for p in np.linspace(*STANDARD_P_GRID)]
    valid = [point for point in grid if is_valid(NGBSParams(*point))]
    assert len(specs) == 26 and len(grid) == 1188 and len(valid) == 1106
    # each point is built once; the invalid ones raise inside ngbs
    assert builds == Counter(dict.fromkeys(grid, 1))
    assert set(calls) == {(point, spec, "literal_moment") for point in valid for spec in specs}
    assert max(calls.values()) == 1
    # one batch call per (M, q, spec): 2 M x 6 q x 26 specs
    assert kinds == Counter({("literal_moment", True): 312})
    # and one reduction per (M, q, witness), over all the slice's rows
    assert sum(reductions.values()) == 12 * 13
    assert sum(n for n, _ in reductions.elements()) == 13 * len(valid)


def test_table1_validates_each_grid_point_once(monkeypatch):
    # inside ngbs: no point is checked beforehand and then again when built
    validations = Counter()
    validate = NGBSParams.validate

    def counted(params):
        validations[(params.total, params.p, params.q)] += 1
        return validate(params)

    monkeypatch.setattr(NGBSParams, "validate", counted)
    table1_report()
    assert len(validations) == 1188 and set(validations.values()) == {1}


def test_figures_compare_and_reduce_once_per_distinct_slice(monkeypatch, tmp_path):
    import twomode.sweep as sweep

    comparisons = Counter()
    reductions = Counter()
    held = []  # so that no id is reused after a slice leaves the run's cache
    compare_engines, reduce_columns = sweep.compare_engines, sweep.reduce_columns

    def counted_compare(batch, specs, tables=None):
        comparisons[(batch.total, batch.amplitudes.tobytes(), tuple(specs))] += 1
        return compare_engines(batch, specs, tables)

    def counted_reduce(witness, columns, engine):
        # the id of a slice's first column list tells the slices apart
        held.append(columns[0])
        reductions[(witness, engine, id(columns[0]), len(columns[0]))] += 1
        return reduce_columns(witness, columns, engine)

    monkeypatch.setattr(sweep, "compare_engines", counted_compare)
    monkeypatch.setattr(sweep, "reduce_columns", counted_reduce)

    reproduce_figures(tmp_path)

    compared = set()  # (M, q, mode specs)
    reduced = {}  # (M, q, witness, engine) -> valid points of the slice
    for name, config in figure_panels():
        orders = _panel_moment_orders(name, config)
        (engine,) = config.engines
        for q in config.q_list:
            compared.add((config.total, q, tuple(MomentSpec(d, low, 0, 0) for d, low in orders)))
            compared.add((config.total, q, tuple(MomentSpec(0, 0, d, low) for d, low in orders)))
            valid = sum(is_valid(NGBSParams(config.total, float(p), q))
                        for p in config.p_values())
            reduced.update(((config.total, q, witness, engine), valid)
                           for witness in config.witnesses)
    # 13 distinct slices, two modes each, though ten panels name 19 slices
    assert len(compared) == 26
    assert set(comparisons.values()) == {1}
    assert Counter((total, specs) for total, _, specs in comparisons) == Counter(
        (total, specs) for total, _, specs in compared)
    # oracle panels (fig2*) included
    assert set(reductions.values()) == {1}
    assert Counter((witness, engine, rows) for witness, engine, _, rows in reductions) == (
        Counter((witness, engine, rows) for (_, _, witness, engine), rows in reduced.items()))
    assert {engine for _, engine, _, _ in reductions} == {Engine.LITERAL, Engine.ORACLE}


def test_figures_drop_each_grid_slice_after_its_last_panel(monkeypatch, tmp_path):
    import twomode.sweep as sweep

    panels = figure_panels()
    names = [name for name, _ in panels]
    # the run cache's keys of the slices each panel computes and reports
    named = [{("ngbs", config.total, q, config.p_values())
              for q in config.q_list} for _, config in panels]
    builds = Counter()
    caches = []  # the run's cache, as the panels' rows read it
    seen = {}  # (panel, "start" or "csv") -> the cache's keys then
    build, compute_rows_from, write_csv = sweep.ngbs, sweep._compute_rows, sweep.write_rows_csv

    def counted_build(params):
        builds[(params.total, params.p, params.q)] += 1
        return build(params)

    def computing(config, cache):
        caches.append(cache)
        seen[(names[len(caches) - 1], "start")] = set(cache)
        return compute_rows_from(config, cache)

    def writing(rows, path):
        seen[(Path(path).stem, "csv")] = set(caches[-1])
        return write_csv(rows, path)

    monkeypatch.setattr(sweep, "ngbs", counted_build)
    monkeypatch.setattr(sweep, "_compute_rows", computing)
    monkeypatch.setattr(sweep, "write_rows_csv", writing)

    counts = reproduce_figures(tmp_path)

    # one cache for the run, and no state is built twice
    assert len(caches) == len(panels) and all(cache is caches[0] for cache in caches)
    assert sum(builds.values()) == len(builds) == 990
    for index, name in enumerate(names):
        earlier, later = set().union(*named[:index]), set().union(*named[index + 1:])
        # a panel starts from the slices that it or a later panel reads again
        assert seen[(name, "start")] == earlier & (named[index] | later), name
        # and writes its CSV holding its own slices and those a later panel reads
        assert seen[(name, "csv")] == named[index] | (earlier & later), name
    assert caches[0] == {}
    # the returned counts are the data lines of each panel's CSV
    assert list(counts) == names
    for name in names:
        with open(tmp_path / f"{name}.csv") as handle:
            assert counts[name] == sum(1 for _ in handle) - 1 > 0


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


@pytest.mark.parametrize("flags", [
    ["--M", "6"], ["--engine", "oracle"], ["--format", "csv"], ["--state", "ngbs"],
    ["--q", "0"], ["--p", "0.2:0.8:3"], ["--witness", "sv"], ["--out", "elsewhere"],
    ["--M", "6", "--engine", "oracle"],
])
def test_cli_sweep_rejects_field_flags_beside_a_config_file(tmp_path, capsys, flags):
    # the file's fields would otherwise run and the flags go unheard
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "from_cfg"
    cfg.write_text(
        f"state = ngbs\nM = 4\nq = 0\np = 0.2:0.8:3\nwitnesses = sv\nout = {out}\n"
    )
    assert main(["sweep", "--config", str(cfg), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --config takes none of --state, --M, --q, --p, "
                            "--witness, --engine, --out, --format\n")
    assert not out.exists()


def test_cli_sweep_rejects_a_repeated_config_key(tmp_path, capsys):
    # keys fold to lower case, so the second line would otherwise win: M = 6
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "from_cfg"
    cfg.write_text(
        f"state = ngbs\nM = 4\nq = 0\np = 0.2:0.8:3\nwitnesses = sv\nm = 6\nout = {out}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated field: 'm'\n"
    assert not out.exists()


def test_cli_sweep_rejects_a_config_line_without_a_key(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("M 4\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected key=value, got 'M 4'\n"


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.1:0.9", "p grid must look like start:end:steps, got '0.1:0.9'"),
        ("a:0.9:3", "cannot parse p grid 'a:0.9:3'"),
    ],
)
def test_cli_sweep_rejects_a_malformed_p_grid(tmp_path, capsys, grid, message):
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "4", "--q", "0", "--p", grid,
                 "--witness", "sv", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_cli_sweep_writes_a_fock_point_outside_0_1_as_invalid_params(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--state", "fock", "--M", "4", "--q", "0", "--p", "-0.5:0.5:3",
                 "--witness", "sv", "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [(row["p"], row["status"]) for row in rows] == [
        ("-0.5", "invalid_params"), ("0.0", "ok"), ("0.5", "ok")]
    assert (rows[0]["value"], rows[0]["nonclassical"]) == ("", "")


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
        ["table1", "--q", "0,0", "--M", "10"],
    ],
)
def test_cli_rejects_empty_or_invalid_grids(argv, capsys):
    # an empty grid, or one without a valid point, would print a table of
    # "No" rows (or no rows) as if it had been evaluated; a repeated q is
    # rejected as a sweep rejects it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("theta", ["nan", "inf", "1e308", "-1e308"])
def test_cli_sweep_rejects_nonfinite_theta_before_any_work(tmp_path, capsys, theta):
    # unchecked, a NaN angle gives ok rows valued nan, and an infinite angle,
    # or one whose double overflows, a "math domain error" from cos(2 theta)
    # once evaluation has started
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "10", "--q", "0",
                 "--p", "0.1:0.9:3", "--witness", f"sum:{theta}",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: theta must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--witness", "hoa:2,1", "--witness", "hoa:2,1"], "repeated witness: 'hoa:2,1'"),
    (["--witness", "sum sum:0.0"], "repeated witness: 'sum:0.0'"),
    (["--q", "0,0,-0"], "repeated q: 0.0"),
    (["--q", "nan,0.01,nan"], "repeated q: nan"),
    (["--p", "0.1:inf:3"], "p grid needs a finite start and end, got 0.1..inf"),
    (["--p", "nan:0.9:3"], "p grid needs a finite start and end, got nan..0.9"),
    # a value that starts "-inf" or "-nan" is a value, not an option string
    (["--p", "-inf:0.9:3"], "p grid needs a finite start and end, got -inf..0.9"),
    (["--p", "-NaN:0.9:3"], "p grid needs a finite start and end, got nan..0.9"),
])
def test_cli_sweep_rejects_repeats_and_nonfinite_p_before_any_work(tmp_path, capsys, flags,
                                                                    message):
    # unchecked, a repeated witness or q writes its rows twice, and an
    # infinite p endpoint gives rows at p = nan and inf with a numpy warning
    fields = {"--state": "ngbs", "--M": "10", "--q": "0", "--p": "0.1:0.9:3",
              "--witness": "sv", "--out": str(tmp_path / "out")}
    argv = ["sweep"] + [token for flag, value in fields.items()
                        if flag not in flags for token in (flag, value)] + flags
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_sweep_reads_state_engine_and_format_in_any_case(tmp_path):
    flags = ["sweep", "--M", "4", "--q", "0", "--p", "0.2:0.8:3", "--witness", "sv"]
    assert main([*flags, "--state", "ngbs", "--engine", "both", "--format", "svg+csv",
                 "--out", str(tmp_path / "lower")]) == 0
    assert main([*flags, "--state", "NGBS", "--engine", "Both", "--format", "SVG+CSV",
                 "--out", str(tmp_path / "upper")]) == 0
    assert sorted(path.name for path in (tmp_path / "upper").iterdir()) == [
        "sweep.csv", "sweep_sv.svg"]
    for name in ("sweep.csv", "sweep_sv.svg"):
        assert (tmp_path / "upper" / name).read_bytes() == (
            tmp_path / "lower" / name).read_bytes()
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"state = ngbs\nM = 4\nq = 0\np = 0.2:0.8:3\nwitnesses = sv\n"
                   f"format = CSV\nout = {tmp_path / 'cfg'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "cfg" / "sweep.csv").exists()


def test_cli_sweep_names_missing_flags_before_any_work(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing fields: ['m', 'p', 'q', 'witnesses']\n"
    assert not out.exists()


@pytest.mark.parametrize("q", ["nan", "inf", "-nan", "-Inf"])
def test_cli_sweep_nonfinite_q_gives_invalid_params_rows(tmp_path, q):
    # NaN passes every range comparison, and q = inf would build the
    # product state |0, M> as if it were a member of the family; a --q
    # value that starts "-nan" or "-inf" is a value, not an option string
    out = tmp_path / "out"
    assert main(["sweep", "--state", "ngbs", "--M", "10", "--q", f"{q},0.01",
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


def test_cli_compare_bounds_max_order_before_any_work(monkeypatch, capsys):
    import twomode.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("compare ran")

    for total, max_order in ((0, 6), (4, 6), (10, 11)):
        monkeypatch.setattr(cli, "_build_state", no_work)
        monkeypatch.setattr(cli, "compare_engines", no_work)
        assert main(["compare", "--M", str(total), "--p", "0.5",
                     "--max-order", str(max_order)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: --max-order must be at most max(M, 5) = {max(total, 5)}, got {max_order}")
        monkeypatch.undo()
    # the default order, and the bound itself, run at every M
    for argv in (["--M", "0"], ["--M", "4"], ["--M", "4", "--max-order", "5"],
                 ["--M", "10", "--max-order", "10"]):
        assert main(["compare", "--p", "0.5", *argv]) == 0
        assert capsys.readouterr().err == ""


def test_cli_table1_rejects_an_m_over_the_slice_budget(monkeypatch, capsys):
    import twomode.sweep as sweep

    def no_work(*args, **kwargs):
        raise AssertionError("table1 ran")

    monkeypatch.setattr(sweep, "_grid_slice", no_work)
    # 16 * 99 * (M + 1) bytes per q slice of the standard p grid
    largest = MAX_SLICE_BYTES // (16 * STANDARD_P_GRID[2]) - 1
    assert main(["table1", "--M", f"10,{largest + 1}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: p grid of 99 steps at M={largest + 1} needs")
    # at the budget the table starts its work
    with pytest.raises(AssertionError, match="table1 ran"):
        main(["table1", "--M", str(largest)])


def test_cli_compare_counts_both_engines_against_the_budget(monkeypatch, capsys):
    import twomode.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("compare ran")

    monkeypatch.setattr(cli, "_build_state", no_work)
    monkeypatch.setattr(cli, "compare_engines", no_work)
    # one state under both engines: its amplitudes and the oracle's two grids
    with pytest.raises(AssertionError, match="compare ran"):
        main(["compare", "--M", "722", "--p", "0.5"])
    assert main(["compare", "--M", "723", "--p", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p=0.5 at M=723 needs")


def test_cli_compare_takes_every_fixed_total_family(capsys):
    # the fock family is |n>|M-n> with n = 2 here: <n1> = 2 and <a1> = 0 under
    # both engines
    assert main(["compare", "--state", "fock", "--M", "4", "--p", "0.5",
                 "--max-order", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "state=fock M=4 p=0.5 q=0.0"
    assert len(lines) == 2 + (4 + 3)
    rows = {tuple(line.split()[:3]): line.split()[3:5] for line in lines[2:]}
    assert [float(v) for v in rows[("1", "1", "1")]] == pytest.approx([2.0, 2.0])
    assert [float(v) for v in rows[("1", "0", "1")]] == [0.0, 0.0]


def test_cli_compare_reads_the_family_in_any_case(capsys):
    # as sweep --state does; the header names the family it ran
    argv = ["compare", "--M", "4", "--p", "0.5", "--state"]
    assert main([*argv, "ngbs"]) == 0
    lower = capsys.readouterr()
    assert main([*argv, "NGBS"]) == 0
    assert capsys.readouterr() == lower
    assert lower.out.startswith("state=ngbs M=4 p=0.5")


def test_cli_import_loads_neither_logging_nor_json():
    # every module that import twomode.cli loads is paid at each start of
    # the program; logging and json, when used, are to be imported lazily
    import os
    import subprocess
    import sys

    import twomode

    src = str(Path(twomode.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, twomode.cli; print(sorted({'logging', 'json'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


SUMMARY_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "summary_table.py"


@pytest.mark.parametrize(
    "argv",
    [
        # table1's output fits the buffer and fails at the last flush;
        # compare's does not and fails while it runs; the summary script
        # fails at its first print
        ["-m", "twomode", "table1", "--q", "0.1", "--M", "10"],
        ["-m", "twomode", "compare", "--M", "20", "--p", "0.5", "--max-order", "10"],
        [str(SUMMARY_SCRIPT), "--M", "10", "--q", "0.1"],
    ],
)
def test_cli_closed_stdout_exits_2_without_a_message(argv):
    # the read end is closed before the run, so every write fails with EPIPE;
    # PYTHONUNBUFFERED is removed, since with it table1 too would fail while
    # it runs and the last-flush case would go untested
    import os
    import subprocess
    import sys

    import twomode

    src = str(Path(twomode.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert "i/o error" not in done.stderr
    assert "Exception ignored" not in done.stderr
    if argv[2:3] == ["table1"]:
        assert done.stderr.startswith("note: Cauchy-Schwarz inequality: ")
    else:
        assert done.stderr == ""


@pytest.mark.parametrize("family", ["coherent", "squeezed"])
def test_cli_compare_names_the_fixed_total_families(capsys, family):
    assert main(["compare", "--state", family, "--M", "4", "--p", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: compare supports the fixed-total families "
                            f"ngbs, binomial, fock; got {family!r}\n")


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



@pytest.mark.parametrize(
    "argv, message",
    [
        (["--q", "abc"], "error: cannot parse q list 'abc'"),
        (["--M", "ten"], "error: cannot parse M list 'ten'"),
        (["--q", "-0.5", "--M", "10"], "error: no valid grid point"),
        (["--x", "1"], "error: unrecognized arguments: --x 1"),
    ],
)
def test_summary_script_reports_config_errors(capsys, argv, message):
    main_script = runpy.run_path(str(SUMMARY_SCRIPT))["main"]
    assert main_script(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_table1_rejects_a_repeated_m_before_any_work(monkeypatch, capsys):
    # unchecked, a repeated M computes its whole grid twice, where a repeated
    # q is rejected; the summary script takes the same path
    import twomode.sweep as sweep

    def no_work(*args, **kwargs):
        raise AssertionError("table1 ran")

    monkeypatch.setattr(sweep, "_grid_slice", no_work)
    with pytest.raises(ConfigError, match=r"^repeated M: 10$"):
        table1_report(m_values=(10, 20, 10))
    main_script = runpy.run_path(str(SUMMARY_SCRIPT))["main"]
    for run, argv in ((main, ["table1", "--M", "10,10", "--q", "0.01"]),
                      (main_script, ["--M", "10,10", "--q", "0.01"])):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: repeated M: 10\n")


def test_summary_script_prints_the_table1_table(capsys):
    assert main(["table1", "--q", "0.01", "--M", "10"]) == 0
    table = capsys.readouterr().out
    assert runpy.run_path(str(SUMMARY_SCRIPT))["main"](["--q", "0.01", "--M", "10"]) == 0
    assert capsys.readouterr().out.startswith(table + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "-0.01,0.01", "--M", "10"],
        ["--q", "-0.005", "--M", "20"],
        ["--q=-0.01,0.01", "--M", "10"],
    ],
)
def test_summary_script_reads_the_table1_command_line(capsys, argv):
    # the first is README's example; a negative q must read as a value
    assert main(["table1", *argv]) == 0
    table = capsys.readouterr().out
    assert runpy.run_path(str(SUMMARY_SCRIPT))["main"](argv) == 0
    assert capsys.readouterr().out.startswith(table + "\n")
