import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twomode import (
    Engine,
    FixedTotalState,
    MomentBatch,
    MomentSpec,
    NGBSParams,
    binomial_state,
    compare_engines,
    cross_moment,
    expectation,
    literal_moment,
    mode1_moment,
    mode2_moment,
    moment_oracle,
    ngbs,
)
from twomode.fock import log_factorial
from twomode.moments import mode1_sum_empty, mode2_sum_empty
from twomode.sweep import STANDARD_Q
from twomode.witnesses import DEFAULT_THETAS, Witness

from conftest import random_fixed_total, signed_zero_states


def one_photon_mode1():
    return FixedTotalState(1, np.array([0.0, 1.0]))


def one_photon_mode2():
    return FixedTotalState(1, np.array([1.0, 0.0]))


# --- frozen single-point values ---------------------------------------------

def test_mode1_number_of_single_photon():
    assert mode1_moment(one_photon_mode1(), 1, 1) == pytest.approx(1.0)


def test_mode2_number_of_single_photon():
    assert mode2_moment(one_photon_mode2(), 1, 1) == pytest.approx(1.0)


def test_mode1_mean_photon_number_binomial():
    state = binomial_state(2, 0.5)
    assert mode1_moment(state, 1, 1).real == pytest.approx(1.0, abs=1e-12)


def test_mode2_mean_photon_number_binomial():
    state = binomial_state(2, 0.5)
    assert mode2_moment(state, 1, 1).real == pytest.approx(1.0, abs=1e-12)


def test_mode1_offdiagonal_literal_value():
    # series value for <a1> on binomial(2, 0.5); the oracle gives 0 for the
    # same spec, which is the documented engine disagreement
    state = binomial_state(2, 0.5)
    value = mode1_moment(state, 0, 1).real
    expected = 0.5 / np.sqrt(2) + 0.5 / np.sqrt(2) * np.sqrt(2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.8535533905932737, abs=1e-12)
    assert abs(moment_oracle(state, MomentSpec(0, 1, 0, 0))) <= 1e-12


def test_mode2_second_factorial_moment():
    state = binomial_state(2, 0.5)
    assert mode2_moment(state, 2, 2).real == pytest.approx(0.5, abs=1e-12)


def test_cross_moment_number_changing_is_zero():
    state = binomial_state(3, 0.4)
    assert cross_moment(state, MomentSpec(0, 1, 0, 1)) == 0.0


def test_cross_moment_orthogonal_example():
    state = FixedTotalState(2, np.array([0.0, 1.0, 0.0]))
    val = cross_moment(state, MomentSpec(0, 1, 1, 0))
    assert abs(val) <= 1e-12
    assert abs(moment_oracle(state, MomentSpec(0, 1, 1, 0)) - val) <= 1e-12


def test_cross_moment_hand_value():
    state = binomial_state(1, 0.5)
    val = cross_moment(state, MomentSpec(0, 1, 1, 0))
    assert val.real == pytest.approx(0.5, abs=1e-12)


# --- engine relations ---------------------------------------------------------

def test_diagonal_agreement_sample_grid():
    for total in (5, 10):
        for p in (0.2, 0.5, 0.8):
            state = ngbs(NGBSParams(total, p, 0.005))
            for order in range(0, min(10, total) + 1):
                lit = mode1_moment(state, order, order)
                ora = moment_oracle(state, MomentSpec(order, order, 0, 0))
                assert abs(lit - ora) <= 1e-9 * max(1.0, abs(ora))
                lit2 = mode2_moment(state, order, order)
                ora2 = moment_oracle(state, MomentSpec(0, 0, order, order))
                assert abs(lit2 - ora2) <= 1e-9 * max(1.0, abs(ora2))


@given(
    st.integers(0, 20),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_cross_moment_matches_oracle_on_conserving_specs(total, k, r, s, seed):
    j = k + s - r
    assume(0 <= j <= 6)
    spec = MomentSpec(j, k, r, s)
    assert spec.conserving
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(total + 1) + 1j * rng.standard_normal(total + 1)
    state = FixedTotalState(total, vec / np.linalg.norm(vec))
    closed = cross_moment(state, spec)
    oracle = moment_oracle(state, spec)
    assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_cross_moment_matches_oracle_on_ngbs(rng):
    for _ in range(30):
        total = int(rng.integers(1, 21))
        p = float(rng.uniform(0.05, 0.95))
        state = ngbs(NGBSParams(total, p, 0.0))
        k, r = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s = int(rng.integers(0, 4))
        j = k + s - r
        if not 0 <= j <= 10:
            continue
        spec = MomentSpec(j, k, r, s)
        closed = cross_moment(state, spec)
        oracle = moment_oracle(state, spec)
        assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(oracle))


def _half_log_ratio(a, b, c):
    return 0.5 * (log_factorial(a) + log_factorial(b) - 2.0 * log_factorial(c))


def _mode1_loop(state, k, l):
    c, m = state.amplitudes, state.total
    hi = m if l >= k else m - (k - l)
    total = 0.0 + 0.0j
    for n in range(l, hi + 1):
        partner = n - l + k
        if partner < 0 or partner > m:
            continue
        weight = math.exp(_half_log_ratio(n, partner, n - l))
        total += c[n].conjugate() * c[partner] * weight
    return total


def _mode2_loop(state, k, l):
    c, m = state.amplitudes, state.total
    lo = 0 if l >= k else k - l
    total = 0.0 + 0.0j
    for n in range(lo, m - l + 1):
        partner = n + l - k
        if partner < 0 or partner > m:
            continue
        weight = math.exp(_half_log_ratio(m - n, m - n - l + k, m - n - l))
        total += c[n].conjugate() * c[partner] * weight
    return total


def _cross_loop(state, spec):
    c, m = state.amplitudes, state.total
    j, k, r, s = spec.j, spec.k, spec.r, spec.s
    total = 0.0 + 0.0j
    for n in range(m + 1):
        left = n - (k - j)
        if left < 0 or left > m or n - k < 0 or left - j < 0:
            continue
        if m - n - s < 0 or m - left - r < 0:
            continue
        log_w = 0.5 * (
            log_factorial(n) - log_factorial(n - k)
            + log_factorial(left) - log_factorial(left - j)
            + log_factorial(m - n) - log_factorial(m - n - s)
            + log_factorial(m - left) - log_factorial(m - left - r)
        )
        total += c[left].conjugate() * c[n] * math.exp(log_w)
    return total


def test_literal_series_equal_scalar_loops_on_ngbs():
    # exact equality with the term-by-term loops: the figures' discrepancy
    # report holds rounding residue that must come out the same bit for bit
    orders = range(11)
    cross_specs = [
        MomentSpec(j, k, r, s)
        for j in orders for k in orders for r in orders for s in orders
        if j + r == k + s and j + k + r + s <= 10
    ]
    for total in (10, 20):
        for q in STANDARD_Q:
            for p in (0.01, 0.25, 0.5, 0.75, 0.99):
                params = NGBSParams(total, p, q)
                if not params.is_valid():
                    continue
                state = ngbs(params)
                for daggers in orders:
                    for lowers in orders:
                        assert mode1_moment(state, daggers, lowers) == _mode1_loop(
                            state, daggers, lowers)
                        assert mode2_moment(state, daggers, lowers) == _mode2_loop(
                            state, daggers, lowers)
                for spec in cross_specs:
                    assert cross_moment(state, spec) == _cross_loop(state, spec)


def test_literal_hermiticity_on_complex_states(rng):
    for _ in range(30):
        state = random_fixed_total(rng, int(rng.integers(1, 12)))
        k, l = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        assert abs(mode1_moment(state, k, l) - mode1_moment(state, l, k).conjugate()) <= 1e-12
        assert abs(mode2_moment(state, k, l) - mode2_moment(state, l, k).conjugate()) <= 1e-12


def test_literal_moment_dispatch():
    state = binomial_state(4, 0.3)
    # pure single-mode goes through the series
    assert literal_moment(state, MomentSpec(0, 1, 0, 0)) == mode1_moment(state, 0, 1)
    # mixed conserving goes through the joint closed form
    spec = MomentSpec(0, 1, 1, 0)
    assert literal_moment(state, spec) == cross_moment(state, spec)
    # mixed number-changing factorizes
    spec = MomentSpec(0, 1, 0, 1)
    prod = mode1_moment(state, 0, 1) * mode2_moment(state, 0, 1)
    assert literal_moment(state, spec) == prod


def test_literal_moment_requires_fixed_total():
    from twomode import fock_pair

    with pytest.raises(TypeError):
        literal_moment(fock_pair(1, 1), MomentSpec(1, 1, 0, 0))


# --- the batched literal kernel ------------------------------------------------

# every witness the sweeps and table1 evaluate, for the specs they need
_ALL_WITNESSES = (
    *(Witness("hoa", l=l, m=m) for l, m in ((1, 1), (2, 2), (5, 1), (9, 1))),
    Witness("quadx"), Witness("quady"), *(Witness("sum", theta=t) for t in DEFAULT_THETAS),
    Witness("sv"), Witness("epr", form="literal"), Witness("su11"), Witness("cs"),
)


def _batch_specs(total):
    """Specs of every kind ``literal_moment`` dispatches on, at total M."""
    specs = {spec for witness in _ALL_WITNESSES for spec in witness.specs}
    specs.update((
        MomentSpec(0, 1, 0, 0), MomentSpec(3, 1, 0, 0), MomentSpec(2, 2, 0, 0),  # mode 1
        MomentSpec(0, 0, 1, 0), MomentSpec(0, 0, 1, 3), MomentSpec(0, 0, 4, 4),  # mode 2
        MomentSpec(total + 1, 0, 0, 0), MomentSpec(0, total + 1, 0, 0),  # empty plans
        MomentSpec(0, 0, 0, total + 2), MomentSpec(0, total + 1, total + 1, 0),
        MomentSpec(2, 1, 0, 1), MomentSpec(1, 3, 2, 0),  # conserving cross
        MomentSpec(1, 0, 1, 0), MomentSpec(0, 2, 0, 1),  # number-changing products
        MomentSpec(0, total + 1, 0, 1), MomentSpec(0, 1, 0, total + 1),  # with an empty factor
    ))
    return sorted(specs, key=lambda spec: (spec.j, spec.k, spec.r, spec.s))


def _assert_rows_equal_states(states, specs):
    batch = MomentBatch.stack(states)
    assert batch.amplitudes.shape == (len(states), states[0].total + 1)
    for spec in specs:
        column = literal_moment(batch, spec)
        assert isinstance(column, list) and len(column) == len(states)
        for state, value in zip(states, column):
            alone = literal_moment(state, spec)
            # repr tells the sign of a zero in either part
            assert (type(value), repr(value)) == (type(alone), repr(alone)), (spec, state)


@given(
    total=st.one_of(st.integers(0, 24), st.sampled_from((100, 400))),
    rows=st.integers(1, 5),
    complex_amps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_rows_equal_single_state_calls(total, rows, complex_amps, seed):
    states = signed_zero_states(np.random.default_rng(seed), total, rows, complex_amps)
    _assert_rows_equal_states(states, _batch_specs(total))


@pytest.mark.parametrize("total", [10, 20, 100, 400])
def test_batch_rows_equal_single_state_calls_on_ngbs_slices(total):
    # one batch per (M, q) slice of a p grid, as the sweeps stack them
    for q in STANDARD_Q:
        states = [ngbs(NGBSParams(total, p, q)) for p in np.linspace(0.01, 0.99, 25)
                  if NGBSParams(total, p, q).is_valid()]
        if states:
            _assert_rows_equal_states(states, _batch_specs(total))


@pytest.mark.parametrize("total", [0, 1, 7, 24, 100, 400])
def test_batch_rows_equal_single_state_calls_on_complex_states(rng, total):
    _assert_rows_equal_states(signed_zero_states(rng, total, 6, True), _batch_specs(total))


def test_batch_empty_plans_give_python_zero():
    batch = MomentBatch.stack([binomial_state(2, 0.5), binomial_state(2, 0.25)])
    for column in (literal_moment(batch, MomentSpec(3, 3, 0, 0)),
                   literal_moment(batch, MomentSpec(0, 0, 0, 3)),
                   cross_moment(batch, MomentSpec(0, 1, 0, 1))):
        assert [(type(v), repr(v)) for v in column] == [(complex, "0j")] * 2


def test_batch_stack_rejects_mixed_totals():
    with pytest.raises(ValueError):
        MomentBatch.stack([binomial_state(2, 0.5), binomial_state(3, 0.5)])
    with pytest.raises(ValueError):
        MomentBatch.stack([])


def test_expectation_engine_switch():
    state = binomial_state(2, 0.5)
    spec = MomentSpec(0, 1, 0, 0)
    assert abs(expectation(state, spec, Engine.ORACLE)) <= 1e-12
    assert expectation(state, spec, Engine.LITERAL).real > 0.5


# --- empty sums and reports ---------------------------------------------------

def test_empty_sum_returns_zero_with_flag():
    state = binomial_state(2, 0.5)
    assert mode1_moment(state, 3, 3) == 0.0
    assert mode1_sum_empty(2, 3, 3)
    assert mode2_moment(state, 3, 3) == 0.0
    assert mode2_sum_empty(2, 3, 3)
    assert not mode1_sum_empty(2, 2, 2)
    assert not mode2_sum_empty(2, 0, 1)


def test_compare_engines_empty_list():
    assert compare_engines(binomial_state(2, 0.5), []) == []


def test_compare_engines_rejects_mixed_specs():
    with pytest.raises(ValueError):
        compare_engines(binomial_state(2, 0.5), [MomentSpec(1, 1, 1, 1)])


def test_compare_engines_diagonal_and_offdiagonal():
    state = ngbs(NGBSParams(10, 0.5, -0.01))
    diag = [MomentSpec(k, k, 0, 0) for k in range(6)]
    diag += [MomentSpec(0, 0, k, k) for k in range(6)]
    for report in compare_engines(state, diag):
        assert report.abs_discrepancy <= 1e-9
        assert not report.degenerate

    offdiag = compare_engines(binomial_state(2, 0.5), [MomentSpec(0, 1, 0, 0)])[0]
    assert offdiag.literal_value.real == pytest.approx(0.8535533905932737, abs=1e-12)
    assert abs(offdiag.oracle_value) <= 1e-12
    assert offdiag.abs_discrepancy == pytest.approx(0.8535533905932737, abs=1e-12)


@pytest.mark.parametrize("total", [10, 20])
def test_compare_engines_reads_and_fills_tables(total):
    orders = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 3), (9, 9), (25, 25)]
    specs = [MomentSpec(d, low, 0, 0) for d, low in orders]
    specs += [MomentSpec(0, 0, d, low) for d, low in orders]
    for q in STANDARD_Q:
        for p in (0.05, 0.5, 0.95):
            params = NGBSParams(total, p, q)
            if not params.is_valid():
                continue
            state = ngbs(params)
            tables = {}
            reports = compare_engines(state, specs, tables)
            assert reports == compare_engines(state, specs)
            assert set(tables) == {Engine.LITERAL, Engine.ORACLE}
            assert tables[Engine.LITERAL] == {r.spec: r.literal_value for r in reports}
            assert tables[Engine.ORACLE] == {r.spec: r.oracle_value for r in reports}
            assert compare_engines(state, specs, tables) == reports

    # a value already in a table is read back, not computed again
    state = ngbs(NGBSParams(total, 0.5, -0.01))
    tables = {Engine.ORACLE: {specs[0]: 7j}}
    report = compare_engines(state, specs[:1], tables)[0]
    assert report.oracle_value == 7j
    assert report.literal_value == literal_moment(state, specs[0])
    assert tables[Engine.LITERAL] == {specs[0]: report.literal_value}


def test_compare_engines_flags_degenerate_orders():
    report = compare_engines(binomial_state(2, 0.5), [MomentSpec(4, 4, 0, 0)])[0]
    assert report.degenerate
    assert report.literal_value == 0.0


def test_engine_parse():
    assert Engine.parse("oracle") is Engine.ORACLE
    assert Engine.parse("LITERAL") is Engine.LITERAL
    with pytest.raises(ValueError):
        Engine.parse("magic")
