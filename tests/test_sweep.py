import math
from collections import Counter

import pytest

from twomode.cli import main
from twomode.moments import Engine
from twomode.svgplot import render_line_chart
from twomode.sweep import (
    CSV_HEADER,
    DISCREPANCY_HEADER,
    ConfigError,
    SweepConfig,
    compute_rows,
    format_table1,
    load_config,
    read_rows_csv,
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
    assert read_rows_csv(path) == rows


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
    rows = read_rows_csv(figure_dir / "fig2a.csv")
    assert {(r.l, r.m) for r in rows} == {(2, 2), (5, 1), (9, 1)}
    assert {r.q for r in rows} == {-0.01}
    assert {r.total for r in rows} == {10}
    assert {r.engine for r in rows} == {"oracle"}
    assert len({r.p for r in rows}) == 99


def test_fig4a_theta_zero_equals_pi(figure_dir):
    rows = read_rows_csv(figure_dir / "fig4a.csv")
    by_theta = {}
    for row in rows:
        if row.status == "ok":
            by_theta.setdefault(round(row.theta, 9), []).append((row.p, row.value))
    zero = sorted(by_theta[0.0])
    pi_curve = sorted(by_theta[round(math.pi, 9)])
    assert len(zero) == len(pi_curve) > 0
    for (p0, v0), (p1, v1) in zip(zero, pi_curve):
        assert p0 == p1
        assert abs(v0 - v1) <= 1e-12


def test_discrepancy_report_contents(figure_dir):
    import csv as csv_mod

    with open(figure_dir / "discrepancy_report.csv", newline="") as handle:
        reader = csv_mod.reader(handle)
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


# --- CLI -----------------------------------------------------------------------------

def test_cli_sweep_roundtrip(tmp_path):
    out = tmp_path / "cli_out"
    code = main([
        "sweep", "--state", "ngbs", "--M", "6", "--q", "-0.01,0.01",
        "--p", "0.1:0.9:5", "--witness", "hoa:2,1", "--witness", "sv",
        "--engine", "both", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows_csv(out / "sweep.csv")
    assert rows == compute_rows(small_config(tmp_path, output_path=out))


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
