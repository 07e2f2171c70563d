import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import twomode.moments as moments
from twomode import (
    Engine,
    FixedTotalState,
    MomentBatch,
    MomentSpec,
    NGBSParams,
    binomial_state,
    compare_engines,
    expectation,
    literal_moment,
    moment_oracle,
    ngbs,
)
from twomode.sweep import STANDARD_Q
from twomode.witnesses import DEFAULT_THETAS, STRICT_ZERO, Witness, evaluate

from conftest import assert_column_rows, is_valid, random_fixed_total, signed_zero_states
from exact import factorial_moments, mixed_diagonal_moment, ngbs_probabilities


def one_photon_mode1():
    return FixedTotalState(1, np.array([0.0, 1.0]))


def one_photon_mode2():
    return FixedTotalState(1, np.array([1.0, 0.0]))


# --- frozen single-point values ---------------------------------------------

def test_mode1_number_of_single_photon():
    assert literal_moment(one_photon_mode1(), MomentSpec(1, 1, 0, 0)) == pytest.approx(1.0)


def test_mode2_number_of_single_photon():
    assert literal_moment(one_photon_mode2(), MomentSpec(0, 0, 1, 1)) == pytest.approx(1.0)


def test_mode1_mean_photon_number_binomial():
    state = binomial_state(2, 0.5)
    assert literal_moment(state, MomentSpec(1, 1, 0, 0)).real == pytest.approx(1.0, abs=1e-12)


def test_mode2_mean_photon_number_binomial():
    state = binomial_state(2, 0.5)
    assert literal_moment(state, MomentSpec(0, 0, 1, 1)).real == pytest.approx(1.0, abs=1e-12)


def test_mode1_offdiagonal_literal_value():
    # series value for <a1> on binomial(2, 0.5); the oracle gives 0 for the
    # same spec, which is the documented engine disagreement
    state = binomial_state(2, 0.5)
    value = literal_moment(state, MomentSpec(0, 1, 0, 0)).real
    expected = 0.5 / np.sqrt(2) + 0.5 / np.sqrt(2) * np.sqrt(2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.8535533905932737, abs=1e-12)
    assert abs(moment_oracle(state, MomentSpec(0, 1, 0, 0))) <= 1e-12


def test_mode2_second_factorial_moment():
    state = binomial_state(2, 0.5)
    assert literal_moment(state, MomentSpec(0, 0, 2, 2)).real == pytest.approx(0.5, abs=1e-12)


def test_cross_moment_orthogonal_example():
    state = FixedTotalState(2, np.array([0.0, 1.0, 0.0]))
    val = literal_moment(state, MomentSpec(0, 1, 1, 0))
    assert abs(val) <= 1e-12
    assert abs(moment_oracle(state, MomentSpec(0, 1, 1, 0)) - val) <= 1e-12


def test_cross_moment_hand_value():
    state = binomial_state(1, 0.5)
    val = literal_moment(state, MomentSpec(0, 1, 1, 0))
    assert val.real == pytest.approx(0.5, abs=1e-12)


# --- engine relations ---------------------------------------------------------

def test_diagonal_agreement_sample_grid():
    for total in (5, 10):
        for p in (0.2, 0.5, 0.8):
            state = ngbs(NGBSParams(total, p, 0.005))
            for order in range(0, min(10, total) + 1):
                lit = literal_moment(state, MomentSpec(order, order, 0, 0))
                ora = moment_oracle(state, MomentSpec(order, order, 0, 0))
                assert abs(lit - ora) <= 1e-9 * max(1.0, abs(ora))
                lit2 = literal_moment(state, MomentSpec(0, 0, order, order))
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
    closed = literal_moment(state, spec)
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
        closed = literal_moment(state, spec)
        oracle = moment_oracle(state, spec)
        assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(oracle))


def log_factorial(n):
    return math.lgamma(n + 1)


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


def _route_loop(state, spec):
    """The scalar loop of the series ``literal_moment`` takes for ``spec``:
    mode 1 when mode 2 is untouched (the identity included), mode 2 when
    mode 1 is, the cross series for a mixed number-conserving spec."""
    if spec.r == 0 and spec.s == 0:
        return _mode1_loop(state, spec.j, spec.k)
    if spec.j == 0 and spec.k == 0:
        return _mode2_loop(state, spec.r, spec.s)
    return _cross_loop(state, spec)


def test_literal_series_equal_scalar_loops_on_ngbs():
    # exact equality with the term-by-term loops: the figures' discrepancy
    # report holds rounding residue that must come out the same bit for bit;
    # (type, repr) also tells -0.0 from 0.0 and a Python 0j from numpy's
    def exact(value):
        return type(value), repr(value)

    for total in (0, 1, 3, 10, 20):
        # small M up to M + 2, past every bound; larger M up to 10
        orders = range(min(total + 3, 11))
        cross_specs = [
            MomentSpec(j, k, r, s)
            for j in orders for k in orders for r in orders for s in orders
            if j + r == k + s and j + k + r + s <= 10
        ]
        for q in STANDARD_Q:
            for p in (0.01, 0.25, 0.5, 0.75, 0.99):
                params = NGBSParams(total, p, q)
                if not is_valid(params):
                    continue
                state = ngbs(params)
                for daggers in orders:
                    for lowers in orders:
                        for spec in (MomentSpec(daggers, lowers, 0, 0),
                                     MomentSpec(0, 0, daggers, lowers)):
                            assert exact(literal_moment(state, spec)) == exact(
                                _route_loop(state, spec))
                for spec in cross_specs:
                    assert exact(literal_moment(state, spec)) == exact(_route_loop(state, spec))


def test_literal_hermiticity_on_complex_states(rng):
    for _ in range(30):
        state = random_fixed_total(rng, int(rng.integers(1, 12)))
        k, l = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        for spec, flipped in ((MomentSpec(k, l, 0, 0), MomentSpec(l, k, 0, 0)),
                              (MomentSpec(0, 0, k, l), MomentSpec(0, 0, l, k))):
            assert abs(literal_moment(state, spec)
                       - literal_moment(state, flipped).conjugate()) <= 1e-12


def test_literal_moment_dispatch():
    state = binomial_state(4, 0.3)
    # pure single-mode goes through the series of its mode, the identity
    # through mode 1's
    assert literal_moment(state, MomentSpec(0, 1, 0, 0)) == _mode1_loop(state, 0, 1)
    assert literal_moment(state, MomentSpec(0, 0, 2, 1)) == _mode2_loop(state, 2, 1)
    assert literal_moment(state, MomentSpec(0, 0, 0, 0)) == _mode1_loop(state, 0, 0)
    # mixed conserving goes through the joint closed form
    spec = MomentSpec(0, 1, 1, 0)
    assert literal_moment(state, spec) == _cross_loop(state, spec)
    # mixed number-changing factorizes
    spec = MomentSpec(0, 1, 0, 1)
    prod = _mode1_loop(state, 0, 1) * _mode2_loop(state, 0, 1)
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
        assert_column_rows(literal_moment(batch, spec),
                           [literal_moment(state, spec) for state in states], context=spec)


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
                  if is_valid(NGBSParams(total, p, q))]
        if states:
            _assert_rows_equal_states(states, _batch_specs(total))


@pytest.mark.parametrize("total", [0, 1, 7, 24, 100, 400])
def test_batch_rows_equal_single_state_calls_on_complex_states(rng, total):
    _assert_rows_equal_states(signed_zero_states(rng, total, 6, True), _batch_specs(total))


def test_batch_empty_plans_give_positive_zero_rows():
    states = [binomial_state(2, 0.5), binomial_state(2, 0.25)]
    batch = MomentBatch.stack(states)
    for spec in (MomentSpec(3, 3, 0, 0), MomentSpec(0, 0, 0, 3)):
        # each single call gives the Python 0j, +0.0 in both parts
        assert [repr(literal_moment(state, spec)) for state in states] == ["0j"] * 2
        assert_column_rows(literal_moment(batch, spec), [0j, 0j], context=spec)


def test_zero_row_batch_keeps_the_column_dtypes():
    batch = MomentBatch(2, np.empty((0, 3), complex))
    # the number-changing cross product and the gap are both taken row by row
    product = literal_moment(batch, MomentSpec(1, 0, 1, 0))
    assert product.dtype == np.complex128 and product.shape == (0,)
    gap = compare_engines(batch, [MomentSpec(1, 0, 0, 0)])[0].abs_discrepancy
    assert gap.dtype == np.float64 and gap.shape == (0,)


def _wide_floats(rng, rows, top=300):
    """Floats of either sign, of magnitudes 1e-300 to 10**top, a third of them
    signed zeros and subnormals."""
    values = rng.choice((-1.0, 1.0), rows) * 10.0 ** rng.uniform(-300, top, rows)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
    picked = rng.random(rows) < 1 / 3
    values[picked] = rng.choice(edges, int(picked.sum()))
    return values


@pytest.mark.parametrize("rows", [0, 1, 2000])
def test_per_row_helpers_equal_the_broadcast_loop(rng, monkeypatch, rows):
    # the per-row rule's helpers on columns, against their loop over the
    # numpy scalars of np.broadcast: same bits, same dtype, a 0-row column too
    def broadcast_rows(op, dtype, *args):
        return np.array([op(*row) for row in np.broadcast(*args)], dtype=dtype)

    square, product = lambda x: x ** 2, lambda a, b: a * b
    z, w = (_wide_floats(rng, rows) + 1j * _wide_floats(rng, rows) for _ in range(2))
    cases = [
        (moments._square, square, float, (_wide_floats(rng, rows, top=150),)),
        (moments._cabs, abs, float, (z,)),
        # a Python complex times a column, as _sum passes them, and two
        # columns, as _sv passes them; products past 1e308 overflow to inf,
        # or to nan where two infinite parts cancel
        (moments._cmul, product, complex, (complex(0.5, -math.sqrt(0.75)), z)),
        (moments._cmul, product, complex, (z, w)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [broadcast_rows(op, dtype, *args) for _, op, dtype, args in cases]
        # a square past 1e308 goes back to the numpy scalars, since a Python
        # float raises OverflowError where np.float64 gives inf
        huge = _wide_floats(rng, rows)
        assert moments._square(huge).tobytes() == broadcast_rows(square, float, huge).tobytes()

        def no_broadcast(*args):
            raise AssertionError("np.broadcast called")

        monkeypatch.setattr(np, "broadcast", no_broadcast)
        for (helper, _, dtype, args), want in zip(cases, expected):
            got = helper(*args)
            assert (got.dtype, got.shape) == (np.dtype(dtype), (rows,))
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="rows"):
        moments._cmul(z, w[:-1] if rows else np.ones(1, complex))


def test_batch_stack_rejects_mixed_totals():
    with pytest.raises(ValueError):
        MomentBatch.stack([binomial_state(2, 0.5), binomial_state(3, 0.5)])
    with pytest.raises(ValueError):
        MomentBatch.stack([])


FACTORIAL_ORDERS = (1, 2, 3, 5, 6, 9, 10)
# single-mode moments that change the photon number, as (daggers, lowers)
CHANGING_ORDERS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (5, 2))


def _exact_sample():
    """(params, state, exact P(n)) at every tenth p of the standard grid, at
    M = 10, 20 and the six standard q: the sample of the exact P(n) test,
    111 valid points."""
    for total in (10, 20):
        for q in STANDARD_Q:
            for p in np.linspace(0.01, 0.99, 99).tolist()[::10]:
                params = NGBSParams(total, p, q)
                if is_valid(params):
                    yield params, ngbs(params), ngbs_probabilities(total, p, q)


def test_engines_match_the_exact_factorial_moments():
    # measured worst relative error on <a^dag^k a^k> over this sample:
    # 1.12e-14 literal, 1.30e-14 oracle
    bound = 4 * Fraction(1.05e-14)
    checked = 0
    for params, state, probabilities in _exact_sample():
        for k in FACTORIAL_ORDERS:
            specs = (MomentSpec(k, k, 0, 0), MomentSpec(0, 0, k, k))
            for spec, exact in zip(specs, factorial_moments(probabilities, k)):
                for engine in Engine:
                    value = expectation(state, spec, engine)
                    assert value.imag == 0.0, (params, spec, engine)
                    error = abs(Fraction(value.real) - exact)
                    assert error <= bound * exact, (params, spec, engine)
        for daggers, lowers in CHANGING_ORDERS:
            for spec in (MomentSpec(daggers, lowers, 0, 0), MomentSpec(0, 0, daggers, lowers)):
                assert moment_oracle(state, spec) == 0, (params, spec)
        checked += 1
    assert checked == 111


EXACT_HOA_ORDERS = ((1, 1), (2, 2), (5, 1), (9, 1))


def _exact_witnesses(probabilities):
    """(witness, exact value, exact scale, exactly negative) of each hoa
    order of ``EXACT_HOA_ORDERS`` and of cs, from the exact P(n).

    A hoa value is an exact rational.  The cs root is a 50-digit decimal,
    and the sign of cs is the exact test A*B < C^2."""
    moment = functools.partial(mixed_diagonal_moment, probabilities)
    cases = []
    for l, m in EXACT_HOA_ORDERS:
        ratio = (moment(l + 1, m - 1) + moment(m - 1, l + 1)) / (moment(l, m) + moment(m, l))
        cases.append((Witness("hoa", l=l, m=m), ratio - 1, abs(ratio) + 1, ratio < 1))
    autos, cross = moment(2, 0) * moment(0, 2), moment(1, 1)
    with decimal.localcontext() as context:
        context.prec = 50
        geo = Fraction((Decimal(autos.numerator) / autos.denominator).sqrt())
    cases.append((Witness("cs"), geo - cross, geo + cross, autos < cross**2))
    return cases


def test_engines_match_the_exact_hoa_and_cs_values():
    # measured worst |value - exact| / max(1, scale) over this sample:
    # 4.12e-15 (hoa:5,1, literal), cs 1.2e-15; the closest flag read lies
    # 4e-4 * max(1, scale) beyond the guard
    flags = 0
    for params, state, probabilities in _exact_sample():
        cases = _exact_witnesses(probabilities)
        for engine in Engine:
            table = {}
            for witness, exact, scale, negative in cases:
                result = evaluate(state, witness, engine, table)
                context = (params, witness.label(), engine)
                assert result.status == "ok", context
                error = abs(Fraction(result.value) - exact)
                assert error <= Fraction(1.05e-14) * max(1, scale), context
                # the flag reads the sign wherever the value lies beyond the guard
                if abs(exact) > Fraction(STRICT_ZERO) * max(1, scale):
                    assert result.nonclassical == negative, context
                    flags += 1
    # every point and engine but 40 of the 1,110 lies beyond the guard
    assert flags == 1070


def test_expectation_engine_switch():
    state = binomial_state(2, 0.5)
    spec = MomentSpec(0, 1, 0, 0)
    assert abs(expectation(state, spec, Engine.ORACLE)) <= 1e-12
    assert expectation(state, spec, Engine.LITERAL).real > 0.5


# --- empty sums and reports ---------------------------------------------------

def test_empty_sum_returns_zero_with_flag():
    state = binomial_state(2, 0.5)
    assert literal_moment(state, MomentSpec(3, 3, 0, 0)) == 0.0
    assert literal_moment(state, MomentSpec(0, 0, 3, 3)) == 0.0
    specs = [MomentSpec(3, 3, 0, 0), MomentSpec(0, 0, 3, 3),
             MomentSpec(2, 2, 0, 0), MomentSpec(0, 0, 0, 1)]
    degenerate = [report.degenerate for report in compare_engines(state, specs)]
    assert degenerate == [True, True, False, False]


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
            if not is_valid(params):
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


@pytest.mark.parametrize("kind", ["ngbs", "complex"])
@pytest.mark.parametrize("total", [0, 10, 20])
def test_compare_engines_batch_rows_equal_states(rng, kind, total):
    orders = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 3), (9, 9), (25, 25)]
    specs = [MomentSpec(d, low, 0, 0) for d, low in orders]
    specs += [MomentSpec(0, 0, d, low) for d, low in orders]
    if kind == "ngbs":
        states = [ngbs(NGBSParams(total, p, q)) for q in STANDARD_Q
                  for p in np.linspace(0.05, 0.95, 7) if is_valid(NGBSParams(total, p, q))]
    else:
        states = signed_zero_states(rng, total, 6, True)
    tables = {}
    reports = compare_engines(MomentBatch.stack(states), specs, tables)
    alone = [compare_engines(state, specs) for state in states]
    assert {len(reports_alone) for reports_alone in alone} == {len(reports)}
    for index, report in enumerate(reports):
        singles = [reports_alone[index] for reports_alone in alone]
        assert {(one.spec, one.degenerate) for one in singles} == {
            (report.spec, report.degenerate)}
        assert_column_rows(report.literal_value, [one.literal_value for one in singles],
                           context=report.spec)
        assert_column_rows(report.oracle_value, [one.oracle_value for one in singles],
                           context=report.spec)
        assert_column_rows(report.abs_discrepancy, [one.abs_discrepancy for one in singles],
                           np.float64, report.spec)
    assert tables[Engine.LITERAL] == {r.spec: r.literal_value for r in reports}
    assert tables[Engine.ORACLE] == {r.spec: r.oracle_value for r in reports}


@pytest.mark.parametrize("total", [10, 20])
def test_compare_engines_gap_is_the_scalar_modulus(rng, total):
    # np.abs rounds a complex modulus differently from the scalar abs, on one
    # state and on a batch alike, so equal rows and states do not show it
    states = signed_zero_states(rng, total, 40, True)
    specs = [MomentSpec(0, 1, 0, 0), MomentSpec(0, 2, 0, 0), MomentSpec(0, 0, 0, 1),
             MomentSpec(1, 1, 0, 0)]
    for state in [MomentBatch.stack(states), *states]:
        for report in compare_engines(state, specs):
            gaps = np.atleast_1d(report.abs_discrepancy)
            diffs = np.atleast_1d(report.literal_value - report.oracle_value)
            assert [repr(float(gap)) for gap in gaps] == [
                repr(abs(complex(diff))) for diff in diffs], report.spec


def test_compare_engines_flags_degenerate_orders():
    report = compare_engines(binomial_state(2, 0.5), [MomentSpec(4, 4, 0, 0)])[0]
    assert report.degenerate
    assert report.literal_value == 0.0


def test_engine_parse():
    assert Engine.parse("oracle") is Engine.ORACLE
    assert Engine.parse("LITERAL") is Engine.LITERAL
    with pytest.raises(ValueError):
        Engine.parse("magic")
