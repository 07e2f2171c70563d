import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twomode import (
    DEFAULT_THETAS,
    Engine,
    FixedTotalState,
    MomentSpec,
    NGBSParams,
    Witness,
    binomial_state,
    cauchy_schwarz,
    coherent_product,
    epr,
    evaluate,
    expectation,
    fock_pair,
    hoa,
    ngbs,
    quad_squeeze,
    su11,
    sum_squeeze,
    sv,
)
from twomode.sweep import (
    HOA_ORDER_SET, STANDARD_P_GRID, STANDARD_Q, _grid_slice, _LiteralSlice, _SliceRow,
)
from twomode.witnesses import STRICT_ZERO, reduce_columns

from conftest import signed_zero_states

VACUUM = fock_pair(0, 0)


# --- fixed points and hand values ---------------------------------------------

def test_hoa_single_photon_pair_is_maximally_antibunched():
    res = hoa(fock_pair(1, 1), 1, 1)
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert res.nonclassical
    assert res.status == "ok"


def test_hoa_vacuum_denominator_degenerates():
    res = hoa(VACUUM, 1, 1)
    assert res.status == "degenerate"
    assert math.isnan(res.value)
    assert not res.nonclassical


def test_hoa_coherent_boundary():
    res = hoa(coherent_product(0.5, 0.5, 30), 1, 1)
    assert abs(res.value) <= 1e-9
    assert not res.nonclassical


def test_vacuum_quadrature_fixed_point():
    res_x, res_y = quad_squeeze(VACUUM)
    assert abs(res_x.value) <= 1e-12 and abs(res_y.value) <= 1e-12
    assert not res_x.nonclassical and not res_y.nonclassical


def test_vacuum_sum_squeeze_fixed_point():
    assert abs(sum_squeeze(VACUUM, 0.0).value) <= 1e-12


def test_vacuum_su11_fixed_point():
    res = su11(VACUUM)
    assert abs(res.value) <= 1e-12
    assert not res.nonclassical


def test_su11_single_photon_hand_value():
    assert abs(su11(fock_pair(1, 0)).value) <= 1e-12


def test_epr_vacuum_both_forms():
    lit = epr(VACUUM, "literal")
    assert lit.value == pytest.approx(-1.0, abs=1e-12)
    assert lit.nonclassical  # the documented unphysical flag of the literal form
    var = epr(VACUUM, "variance")
    assert abs(var.value) <= 1e-12
    assert not var.nonclassical


def test_epr_rejects_unknown_form():
    with pytest.raises(ValueError):
        epr(VACUUM, "other")


def test_sv_hand_values():
    assert sv(fock_pair(1, 1)).value == pytest.approx(0.25, abs=1e-12)
    assert not sv(fock_pair(1, 1)).nonclassical
    res = sv(fock_pair(0, 1))
    assert res.value == pytest.approx(-0.25, abs=1e-12)
    assert res.nonclassical


def test_cauchy_schwarz_hand_values():
    res = cauchy_schwarz(fock_pair(2, 2))
    assert res.value == pytest.approx(-2.0, abs=1e-12)
    assert res.nonclassical
    coh = cauchy_schwarz(coherent_product(1.0, 1.0, 40))
    assert abs(coh.value) <= 1e-8
    assert not coh.nonclassical


# --- engine relations -----------------------------------------------------------

@given(
    st.integers(1, 15),
    st.floats(0.05, 0.95, allow_nan=False),
    st.sampled_from([-0.01, -0.005, 0.0, 0.005, 0.01]),
    st.integers(1, 6),
    st.integers(1, 3),
)
def test_hoa_engine_independence(total, p, q, l, m):
    assume(l >= m)
    params = NGBSParams(total, p, q)
    assume(params.is_valid())
    state = ngbs(params)
    lit = hoa(state, l, m, Engine.LITERAL)
    ora = hoa(state, l, m, Engine.ORACLE)
    assert lit.status == ora.status
    if lit.status == "ok":
        assert abs(lit.value - ora.value) <= 1e-9 * max(1.0, abs(ora.value))


def test_quadrature_oracle_reduction():
    # with the oracle every single-mode moment of a fixed-total state
    # vanishes, so S_x collapses to 2 Re<a1 a2^dag> + M
    from twomode import MomentSpec, moment_oracle

    for p in (0.2, 0.5, 0.8):
        state = ngbs(NGBSParams(10, p, -0.01))
        res_x, _ = quad_squeeze(state, Engine.ORACLE)
        cross = moment_oracle(state, MomentSpec(0, 1, 1, 0)).real
        assert res_x.value == pytest.approx(2.0 * cross + 10.0, abs=1e-9)
        assert res_x.value >= 0.0


def test_sum_squeeze_oracle_reduction():
    # selection rule kills <a1^2 a2^2> and <a1 a2>, leaving 2<n1 n2>/(M+1)
    from twomode import MomentSpec, moment_oracle

    state = ngbs(NGBSParams(10, 0.4, 0.005))
    res = sum_squeeze(state, 0.0, Engine.ORACLE)
    n1n2 = moment_oracle(state, MomentSpec(1, 1, 1, 1)).real
    assert res.value == pytest.approx(2.0 * n1n2 / 11.0, abs=1e-9)
    assert res.value >= 0.0


def test_sv_oracle_factorization(rng):
    from conftest import random_fixed_total

    for _ in range(25):
        state = random_fixed_total(rng, int(rng.integers(0, 15)))
        res = sv(state, Engine.ORACLE)
        n1 = np.sum(np.abs(state.amplitudes) ** 2 * np.arange(state.total + 1))
        n2 = state.total - n1
        assert res.value == pytest.approx((n1 - 0.5) * (n2 - 0.5), abs=1e-12)


@given(
    st.integers(1, 12),
    st.floats(0.05, 0.95, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
    st.sampled_from(["literal", "oracle"]),
)
def test_sum_squeeze_theta_periodicity(total, p, theta, engine_name):
    state = ngbs(NGBSParams(total, p, 0.005))
    engine = Engine.parse(engine_name)
    a = sum_squeeze(state, theta, engine).value
    b = sum_squeeze(state, theta + math.pi, engine).value
    assert abs(a - b) <= 1e-12


def test_sum_squeeze_theta_zero_equals_pi_on_coherent():
    state = coherent_product(0.8, 0.3 + 0.2j, 30)
    a = sum_squeeze(state, 0.0).value
    b = sum_squeeze(state, math.pi).value
    assert abs(a - b) <= 1e-12


def test_literal_engine_rejected_for_grid_states():
    with pytest.raises(TypeError):
        sv(fock_pair(1, 1), Engine.LITERAL)


def test_default_engine_resolution():
    # fixed-total states default to the literal engine, grids to the oracle
    state = binomial_state(4, 0.5)
    assert sv(state).engine is Engine.LITERAL
    assert sv(fock_pair(1, 1)).engine is Engine.ORACLE


# --- reference sign patterns ----------------------------------------------------

def test_hoa_negative_q_antibunches_near_half():
    values = {}
    for p in np.linspace(0.35, 0.65, 13):
        res = hoa(ngbs(NGBSParams(10, float(p), -0.01)), 9, 1, Engine.ORACLE)
        values[float(p)] = res.value
    assert min(values.values()) < 0


def test_hoa_positive_q_shows_no_antibunching():
    for p in np.linspace(0.05, 0.95, 19):
        res = hoa(ngbs(NGBSParams(10, float(p), 0.01)), 9, 1, Engine.ORACLE)
        assert res.value >= -1e-12


def test_quadrature_literal_goes_negative_somewhere():
    values = [
        quad_squeeze(ngbs(NGBSParams(10, float(p), -0.01)), Engine.LITERAL)[0].value
        for p in np.linspace(0.3, 0.7, 21)
    ]
    assert min(values) < 0


def test_sum_squeeze_literal_theta_ordering():
    # theta = 0 and pi coincide and sit at or below pi/6 and pi/3
    for p in (0.4, 0.5, 0.6):
        state = ngbs(NGBSParams(10, p, -0.01))
        s0 = sum_squeeze(state, 0.0, Engine.LITERAL).value
        s6 = sum_squeeze(state, math.pi / 6, Engine.LITERAL).value
        s3 = sum_squeeze(state, math.pi / 3, Engine.LITERAL).value
        spi = sum_squeeze(state, math.pi, Engine.LITERAL).value
        assert abs(s0 - spi) <= 1e-12
        assert s0 <= s6 + 1e-12
        assert s0 <= s3 + 1e-12


def test_sv_literal_negative_region_exists():
    values = [
        sv(ngbs(NGBSParams(10, float(p), 0.01)), Engine.LITERAL).value
        for p in np.linspace(0.01, 0.99, 50)
    ]
    assert min(values) < 0


def test_strict_zero_guard_scales_with_magnitude():
    # binomial states satisfy the su11 inequality with exact equality; large
    # M amplifies rounding noise well past 1e-12, and the flag must not flip
    for p in np.linspace(0.05, 0.95, 19):
        res = su11(binomial_state(20, float(p)))
        assert abs(res.value) <= 1e-9
        assert not res.nonclassical


# --- witness descriptions --------------------------------------------------------

def test_witness_parse_tokens():
    assert Witness.parse("hoa:9,1") == [Witness("hoa", l=9, m=1)]
    assert Witness.parse("hoa") == [Witness("hoa", l=1, m=1)]
    assert Witness.parse("quadx") == [Witness("quadx")]
    assert Witness.parse("sum:0.5") == [Witness("sum", theta=0.5)]
    assert len(Witness.parse("sum")) == 4
    assert Witness.parse("epr") == [Witness("epr", form="literal")]
    assert Witness.parse("epr:variance") == [Witness("epr", form="variance")]
    assert Witness.parse("cauchy") == [Witness("cs")]


@pytest.mark.parametrize(
    "token", ["hoa:1,2", "hoa:x,y", "nope", "epr:odd", "quadx:3", "sum:nan", "sum:inf", "sum:-inf"]
)
def test_witness_parse_rejects_bad_tokens(token):
    with pytest.raises(ValueError):
        Witness.parse(token)


def test_witness_requires_valid_orders():
    with pytest.raises(ValueError):
        Witness("hoa", l=1, m=2)
    with pytest.raises(ValueError):
        Witness("hoa", l=2, m=0)
    with pytest.raises(ValueError):
        Witness("sum")


def test_evaluate_dispatch_matches_direct_calls():
    state = ngbs(NGBSParams(6, 0.5, 0.0))
    assert evaluate(state, Witness("sv")).value == sv(state).value
    assert evaluate(state, Witness("hoa", l=2, m=1)).value == hoa(state, 2, 1).value
    assert evaluate(state, Witness("sum", theta=0.2)).value == sum_squeeze(state, 0.2).value
    assert evaluate(state, Witness("epr", form="variance")).value == epr(state, "variance").value
    assert evaluate(state, Witness("quady")).value == quad_squeeze(state)[1].value
    assert evaluate(state, Witness("su11")).value == su11(state).value
    assert evaluate(state, Witness("cs")).value == cauchy_schwarz(state).value


# --- moment tables ----------------------------------------------------------------

VARIANTS = (
    [Witness("hoa", l=l, m=m) for l, m in ((1, 1),) + HOA_ORDER_SET]
    + [Witness("quadx"), Witness("quady")]
    + [Witness("sum", theta=t) for t in DEFAULT_THETAS]
    + [Witness("sv"), Witness("epr", form="literal"), Witness("epr", form="variance")]
    + [Witness("su11"), Witness("cs")]
)


def _fixed_total_fock(n1, n2):
    amps = np.zeros(n1 + n2 + 1)
    amps[n1] = 1.0
    return FixedTotalState(n1 + n2, amps)


def _table_states():
    """(state, engines) cases: ngbs at M in {10, 20} over STANDARD_Q, vacuum
    and Fock pairs under both engines, a coherent product under the oracle."""
    both = (Engine.LITERAL, Engine.ORACLE)
    cases = []
    for total in (10, 20):
        for q in STANDARD_Q:
            for p in (0.3, 0.7):
                params = NGBSParams(total, p, q)
                if params.is_valid():
                    cases.append(pytest.param(ngbs(params), both, id=f"ngbs-{total}-{p}-{q}"))
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 2), (3, 1)):
        cases.append(pytest.param(_fixed_total_fock(n1, n2), both, id=f"fock-{n1}-{n2}"))
    cases.append(pytest.param(coherent_product(0.8, 0.5j, 14), (Engine.ORACLE,), id="coherent"))
    return cases


def _public(state, witness, engine):
    kind = witness.kind
    if kind == "hoa":
        return hoa(state, witness.l, witness.m, engine)
    if kind in ("quadx", "quady"):
        return quad_squeeze(state, engine)[kind == "quady"]
    if kind == "sum":
        return sum_squeeze(state, witness.theta, engine)
    if kind == "epr":
        return epr(state, witness.form, engine)
    return {"sv": sv, "su11": su11, "cs": cauchy_schwarz}[kind](state, engine)


def _reference(state, witness, engine):
    """(value, scale) or None (degenerate) by the per-witness formulas as they
    were written before witnesses became data, one moment fetch at a time."""
    def mom(j, k, r, s):
        return expectation(state, MomentSpec(j, k, r, s), engine)

    kind = witness.kind
    if kind == "hoa":
        l, m = witness.l, witness.m
        num = mom(l + 1, l + 1, m - 1, m - 1).real + mom(m - 1, m - 1, l + 1, l + 1).real
        den = mom(l, l, m, m).real + mom(m, m, l, l).real
        if den <= 1e-14:
            return None
        return num / den - 1.0, abs(num / den) + 1.0
    if kind == "cs":
        auto1 = max(mom(2, 2, 0, 0).real, 0.0)
        auto2 = max(mom(0, 0, 2, 2).real, 0.0)
        cross = abs(mom(1, 1, 1, 1))
        geo = math.sqrt(auto1 * auto2)
        return geo - cross, geo + cross
    n1, n2 = mom(1, 1, 0, 0).real, mom(0, 0, 1, 1).real
    if kind in ("quadx", "quady", "epr"):
        a1, a2 = mom(0, 1, 0, 0), mom(0, 0, 0, 1)
        a1sq, a2sq = mom(0, 2, 0, 0), mom(0, 0, 0, 2)
        cross_mixed, cross_lower = mom(0, 1, 1, 0), mom(0, 1, 0, 1)
        anti = n1 + n2 + 2.0
        if kind == "quadx":
            tx = (a1sq + a2sq + 2.0 * (cross_mixed + cross_lower)).real
            mx = 2.0 * ((a1 + a2).real ** 2)
            return tx + anti - mx - 2.0, abs(tx) + anti + mx + 2.0
        if kind == "quady":
            ty = -(a1sq + a2sq - 2.0 * (cross_mixed - cross_lower)).real
            my = 2.0 * ((a1 + a2).imag ** 2)
            return ty + anti - my - 2.0, abs(ty) + anti + my + 2.0
        t1 = (a1sq + a2sq + 2.0 * cross_lower + 2.0 * cross_mixed).real
        t2 = (-a1sq - a2sq + 2.0 * cross_lower - 2.0 * cross_mixed).real
        re_sum = (a1 + a2).real ** 2
        im_diff = (a1 - a2).imag ** 2
        if witness.form == "literal":
            i1 = t1 + (n1 + 1.0) + n2 + 2.0 * re_sum - 1.0
            i2 = t2 + (n1 + 1.0) + (n2 + 1.0) + 2.0 * im_diff - 1.0
            s1 = abs(t1) + n1 + 1.0 + n2 + 2.0 * re_sum + 1.0
            s2 = abs(t2) + n1 + n2 + 2.0 + 2.0 * im_diff + 1.0
        else:
            i1 = t1 + (n1 + 1.0) + (n2 + 1.0) - 2.0 * re_sum - 1.0
            i2 = t2 + (n1 + 1.0) + (n2 + 1.0) - 2.0 * im_diff - 1.0
            s1 = abs(t1) + n1 + n2 + 2.0 + 2.0 * re_sum + 1.0
            s2 = abs(t2) + n1 + n2 + 2.0 + 2.0 * im_diff + 1.0
        return i1 * i2 - 1.0, s1 * s2 + 1.0
    if kind == "sv":
        t_diag = (n1 - 0.5) * (n2 - 0.5)
        t_cross = (mom(1, 0, 1, 0) * mom(0, 1, 0, 1)).real
        return t_diag - t_cross, abs(t_diag) + abs(t_cross)
    anti_pair = mom(1, 1, 1, 1).real + n1 + n2 + 1.0
    if kind == "sum":
        pair_sq, pair = mom(0, 2, 0, 2), mom(0, 1, 0, 1)
        den = n1 + n2 + 1.0
        if den <= 1e-14:
            return None
        theta = witness.theta
        phase2 = complex(math.cos(2 * theta), -math.sin(2 * theta))
        phase1 = complex(math.cos(theta), -math.sin(theta))
        t_anti = 2.0 * anti_pair
        t_sq = 2.0 * (phase2 * pair_sq).real
        t_mean = 4.0 * ((phase1 * pair).real ** 2)
        return (t_anti + t_sq - t_mean) / den - 2.0, (abs(t_anti) + abs(t_sq) + t_mean) / den + 2.0
    base = 2.0 * anti_pair - (n1 + 1.0) - (n2 + 1.0)
    twist = 2.0 * mom(0, 2, 2, 0).real
    swap = mom(1, 0, 0, 1)
    bracket_plus = base + twist - 4.0 * (swap.real ** 2)
    bracket_minus = base - twist - 4.0 * (swap.imag ** 2)
    imbalance_sq = abs(n1 - n2) ** 2
    s_base = 2.0 * abs(anti_pair) + n1 + n2 + 2.0 + abs(twist)
    return (bracket_plus * bracket_minus - imbalance_sq,
            (s_base + 4.0 * swap.real ** 2) * (s_base + 4.0 * swap.imag ** 2) + imbalance_sq)


def _assert_same(got, want):
    assert (got.witness, got.engine, got.status) == (want.witness, want.engine, want.status)
    assert got.nonclassical is want.nonclassical
    assert got.scale == want.scale
    if got.status == "degenerate":
        assert math.isnan(got.value) and math.isnan(want.value)
    else:
        assert got.value == want.value


@pytest.mark.parametrize("state,engines", _table_states())
def test_shared_table_equals_fresh_evaluation_exactly(state, engines):
    for engine in engines:
        table = {}
        for witness in VARIANTS:
            shared = evaluate(state, witness, engine, table)
            _assert_same(shared, _public(state, witness, engine))
            reference = _reference(state, witness, engine)
            if reference is None:
                assert shared.status == "degenerate"
            else:
                assert shared.status == "ok"
                assert (shared.value, shared.scale) == reference
        assert set(table) == {spec for witness in VARIANTS for spec in witness.specs}


# --- slice reductions ---------------------------------------------------------------
#
# The sweeps reduce each witness once over a slice's moment columns
# (reduce_columns); every row must be the per-state result bit for bit.
# These tests fail an array ``** 2`` (x*x, not libm pow), ``np.abs`` on complex
# values, numpy's complex multiply loop and ``np.maximum`` for ``max(1.0, scale)``.

def _assert_identical(got, want):
    # repr tells the sign of a zero and NaN apart; type tells float from np.float64
    assert [(type(f), repr(f)) for f in got] == [(type(f), repr(f)) for f in want]


def _assert_slice_rows_equal_states(states):
    literal = _LiteralSlice(states)
    for witness in VARIANTS:
        for index, state in enumerate(states):
            row = evaluate(state, witness, Engine.LITERAL, _SliceRow(literal, index))
            _assert_identical(row, evaluate(state, witness, Engine.LITERAL))


@given(
    total=st.one_of(st.integers(0, 24), st.sampled_from((100, 400))),
    rows=st.integers(1, 5),
    complex_amps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_rows_equal_per_state_results(total, rows, complex_amps, seed):
    states = signed_zero_states(np.random.default_rng(seed), total, rows, complex_amps)
    _assert_slice_rows_equal_states(states)


@pytest.mark.parametrize("total", [10, 20, 100, 400])
def test_slice_rows_equal_per_state_results_on_ngbs_slices(total):
    p_values = tuple(np.linspace(0.01, 0.99, 25).tolist())
    for q in STANDARD_Q:
        for p, state, tables in _grid_slice({}, "ngbs", total, q, p_values):
            if state is not None:
                fresh = {}
                for witness in VARIANTS:
                    row = evaluate(state, witness, Engine.LITERAL, tables[Engine.LITERAL])
                    _assert_identical(row, evaluate(state, witness, Engine.LITERAL, fresh))


_ANY_STATE = _fixed_total_fock(1, 1)  # a table that holds every spec is never asked


def _random_columns(rng, witness, rows):
    """Columns of random moments of every magnitude, one per spec of ``witness``.

    Parts are 0.0 or -0.0 a fifth of the time, and a tenth of the values
    are Python ``0j``: the literal engine gives np.complex128 values, and
    ``0j`` for an empty plan.  A spec taken twice (``hoa:1,1`` takes
    ``<n1 n2>`` twice) gets one column.
    """
    by_spec = {}
    for spec in witness.specs:
        if spec not in by_spec:
            parts = rng.standard_normal((2, rows)) * 10.0 ** rng.uniform(-4, 4, (2, rows))
            zeros = rng.random((2, rows)) < 0.2
            parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            column = list(parts[0] + 1j * parts[1])
            for index in np.flatnonzero(rng.random(rows) < 0.1):
                column[index] = 0j
            by_spec[spec] = column
    return [by_spec[spec] for spec in witness.specs]


def _assert_columns_reduce_like_rows(witness, columns):
    results = reduce_columns(witness, columns)
    assert len(results) == len(columns[0])
    for index, result in enumerate(results):
        table = {spec: column[index] for spec, column in zip(witness.specs, columns)}
        _assert_identical(result, evaluate(_ANY_STATE, witness, Engine.LITERAL, table))


@given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_random_columns_reduce_like_rows(rows, seed):
    rng = np.random.default_rng(seed)
    for witness in VARIANTS:
        _assert_columns_reduce_like_rows(witness, _random_columns(rng, witness, rows))


def test_many_random_columns_reduce_like_rows(rng):
    for witness in VARIANTS:
        _assert_columns_reduce_like_rows(witness, _random_columns(rng, witness, 2000))


@pytest.mark.parametrize("witness", VARIANTS, ids=Witness.label)
def test_empty_plan_columns_reduce_like_rows(witness):
    # M = 0 and 1 leave most series empty: Python 0j in every row
    for total in (0, 1):
        states = [_fixed_total_fock(n, total - n) for n in range(total + 1)]
        _assert_slice_rows_equal_states(states)
    _assert_columns_reduce_like_rows(witness, [[0j] * 3 for _ in witness.specs])


def test_degenerate_denominators_reduce_like_rows():
    # hoa divides by the sum of its last two moments; degenerate up to 1e-14
    den = [0j, np.complex128(1e-15), np.complex128(-0.0), np.complex128(1e-14),
           np.complex128(1.0000000000000002e-14), np.complex128(0.5)]
    num, zero = [np.complex128(0.25)] * len(den), [0j] * len(den)
    hoa_results = reduce_columns(Witness("hoa", l=2, m=1), [num, num, den, zero])
    assert [r.status for r in hoa_results] == ["degenerate"] * 4 + ["ok"] * 2
    _assert_columns_reduce_like_rows(Witness("hoa", l=2, m=1), [num, num, den, zero])
    # sum squeezing divides by <n1> + <n2> + 1
    n1 = [np.complex128(-1.0), np.complex128(-0.5), np.complex128(-1.0 + 1e-14),
          np.complex128(-0.9)]
    n2 = [0j, np.complex128(-0.5), 0j, 0j]
    rest = [[np.complex128(0.5 - 0.25j)] * 4 for _ in range(3)]
    for theta in DEFAULT_THETAS:
        witness = Witness("sum", theta=theta)
        results = reduce_columns(witness, [n1, n2, *rest])
        assert [r.status for r in results] == ["degenerate"] * 3 + ["ok"]
        _assert_columns_reduce_like_rows(witness, [n1, n2, *rest])


def test_nan_scale_counts_as_one_in_the_guard():
    # <n1> = -inf and <a1> = inf: value -inf, scale -inf + inf = nan, and
    # max(1.0, nan) is 1.0, so the guard flags the row (np.maximum gives nan
    # and would not)
    inf = np.complex128(math.inf)
    zero = np.complex128(0.0)
    columns = [[-inf], [zero], [inf], [zero], [zero], [zero], [zero], [zero]]
    with np.errstate(all="ignore"):
        (result,) = reduce_columns(Witness("quadx"), columns)
        _assert_columns_reduce_like_rows(Witness("quadx"), columns)
    assert result.status == "ok"
    assert result.value == -math.inf and math.isnan(result.scale)
    assert result.nonclassical is True


def test_witness_hash_is_cached_and_consistent():
    witness = Witness("sum", theta=0.5)
    assert hash(witness) == hash(Witness("sum", theta=0.5))
    assert {witness: 1}[Witness("sum", theta=0.5)] == 1
    object.__setattr__(witness, "_hash", 12345)  # read back, not recomputed
    assert hash(witness) == 12345


# --- roundoff guard margin at large M ------------------------------------------------

@pytest.mark.parametrize("total", [100, 200, 400])
def test_guard_margin_on_the_q0_line_at_large_m(total):
    # su11 and cs vanish identically on the q = 0 binomial line; measured
    # worst |value| / (1e-12 max(1, scale)) over the standard p grid: 0.0028,
    # 0.0039 and 0.0092 at M = 100, 200 and 400
    p_values = tuple(np.linspace(*STANDARD_P_GRID).tolist())
    worst = 0.0
    for p, state, tables in _grid_slice({}, "ngbs", total, 0.0, p_values):
        for witness in (Witness("su11"), Witness("cs")):
            result = evaluate(state, witness, Engine.LITERAL, tables[Engine.LITERAL])
            assert result.status == "ok" and not result.nonclassical
            worst = max(worst, abs(result.value) / (STRICT_ZERO * max(1.0, result.scale)))
    assert 0.0 < worst < 0.1
