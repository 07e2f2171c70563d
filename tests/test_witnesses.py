import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twomode import (
    DEFAULT_THETAS,
    Engine,
    FixedTotalState,
    MomentSpec,
    NGBSParams,
    TwoModeState,
    Witness,
    binomial_state,
    coherent_product,
    evaluate,
    expectation,
    fock_pair,
    moment_oracle,
    ngbs,
)
from twomode.sweep import (
    HOA_ORDER_SET, STANDARD_P_GRID, STANDARD_Q, _grid_slice, _LiteralSlice,
)
from twomode.witnesses import STRICT_ZERO, reduce_columns

from conftest import is_valid, random_fixed_total, random_grid_state, signed_zero_states

VACUUM = fock_pair(0, 0)


# --- fixed points and hand values ---------------------------------------------

def test_hoa_single_photon_pair_is_maximally_antibunched():
    res = evaluate(fock_pair(1, 1), Witness("hoa", l=1, m=1))
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert res.nonclassical
    assert res.status == "ok"


def test_hoa_vacuum_denominator_degenerates():
    res = evaluate(VACUUM, Witness("hoa", l=1, m=1))
    assert res.status == "degenerate"
    assert math.isnan(res.value)
    assert not res.nonclassical


def test_hoa_coherent_boundary():
    res = evaluate(coherent_product(0.5, 0.5, 30), Witness("hoa", l=1, m=1))
    assert abs(res.value) <= 1e-9
    assert not res.nonclassical


def test_vacuum_quadrature_fixed_point():
    res_x, res_y = (evaluate(VACUUM, Witness(kind)) for kind in ("quadx", "quady"))
    assert abs(res_x.value) <= 1e-12 and abs(res_y.value) <= 1e-12
    assert not res_x.nonclassical and not res_y.nonclassical


def test_vacuum_sum_squeeze_fixed_point():
    assert abs(evaluate(VACUUM, Witness("sum", theta=0.0)).value) <= 1e-12


def test_vacuum_su11_fixed_point():
    res = evaluate(VACUUM, Witness("su11"))
    assert abs(res.value) <= 1e-12
    assert not res.nonclassical


def test_su11_single_photon_hand_value():
    assert abs(evaluate(fock_pair(1, 0), Witness("su11")).value) <= 1e-12


def test_epr_vacuum_both_forms():
    lit = evaluate(VACUUM, Witness("epr", form="literal"))
    assert lit.value == pytest.approx(-1.0, abs=1e-12)
    assert lit.nonclassical  # the documented unphysical flag of the literal form
    var = evaluate(VACUUM, Witness("epr", form="variance"))
    assert abs(var.value) <= 1e-12
    assert not var.nonclassical


def test_epr_rejects_unknown_form():
    with pytest.raises(ValueError):
        evaluate(VACUUM, Witness("epr", form="other"))


def test_sv_hand_values():
    assert evaluate(fock_pair(1, 1), Witness("sv")).value == pytest.approx(0.25, abs=1e-12)
    assert not evaluate(fock_pair(1, 1), Witness("sv")).nonclassical
    res = evaluate(fock_pair(0, 1), Witness("sv"))
    assert res.value == pytest.approx(-0.25, abs=1e-12)
    assert res.nonclassical


def test_cauchy_schwarz_hand_values():
    res = evaluate(fock_pair(2, 2), Witness("cs"))
    assert res.value == pytest.approx(-2.0, abs=1e-12)
    assert res.nonclassical
    coh = evaluate(coherent_product(1.0, 1.0, 40), Witness("cs"))
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
    assume(is_valid(params))
    state = ngbs(params)
    lit = evaluate(state, Witness("hoa", l=l, m=m), Engine.LITERAL)
    ora = evaluate(state, Witness("hoa", l=l, m=m), Engine.ORACLE)
    assert lit.status == ora.status
    if lit.status == "ok":
        assert abs(lit.value - ora.value) <= 1e-9 * max(1.0, abs(ora.value))


def test_quadrature_oracle_reduction():
    # with the oracle every single-mode moment of a fixed-total state
    # vanishes, so S_x collapses to 2 Re<a1 a2^dag> + M
    from twomode import MomentSpec, moment_oracle

    for p in (0.2, 0.5, 0.8):
        state = ngbs(NGBSParams(10, p, -0.01))
        res_x = evaluate(state, Witness("quadx"), Engine.ORACLE)
        cross = moment_oracle(state, MomentSpec(0, 1, 1, 0)).real
        assert res_x.value == pytest.approx(2.0 * cross + 10.0, abs=1e-9)
        assert res_x.value >= 0.0


def test_sum_squeeze_oracle_reduction():
    # selection rule kills <a1^2 a2^2> and <a1 a2>, leaving 2<n1 n2>/(M+1)
    from twomode import MomentSpec, moment_oracle

    state = ngbs(NGBSParams(10, 0.4, 0.005))
    res = evaluate(state, Witness("sum", theta=0.0), Engine.ORACLE)
    n1n2 = moment_oracle(state, MomentSpec(1, 1, 1, 1)).real
    assert res.value == pytest.approx(2.0 * n1n2 / 11.0, abs=1e-9)
    assert res.value >= 0.0


def test_sv_oracle_factorization(rng):
    from conftest import random_fixed_total

    for _ in range(25):
        state = random_fixed_total(rng, int(rng.integers(0, 15)))
        res = evaluate(state, Witness("sv"), Engine.ORACLE)
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
    a = evaluate(state, Witness("sum", theta=theta), engine).value
    b = evaluate(state, Witness("sum", theta=theta + math.pi), engine).value
    assert abs(a - b) <= 1e-12


def test_sum_squeeze_theta_zero_equals_pi_on_coherent():
    state = coherent_product(0.8, 0.3 + 0.2j, 30)
    a = evaluate(state, Witness("sum", theta=0.0)).value
    b = evaluate(state, Witness("sum", theta=math.pi)).value
    assert abs(a - b) <= 1e-12


def test_literal_engine_rejected_for_grid_states():
    with pytest.raises(TypeError):
        evaluate(fock_pair(1, 1), Witness("sv"), Engine.LITERAL)


def test_default_engine_resolution():
    # fixed-total states default to the literal engine, grids to the oracle
    state = binomial_state(4, 0.5)
    assert evaluate(state, Witness("sv")).engine is Engine.LITERAL
    assert evaluate(fock_pair(1, 1), Witness("sv")).engine is Engine.ORACLE


# --- reference sign patterns ----------------------------------------------------

def test_hoa_negative_q_antibunches_near_half():
    values = {}
    for p in np.linspace(0.35, 0.65, 13):
        state = ngbs(NGBSParams(10, float(p), -0.01))
        res = evaluate(state, Witness("hoa", l=9, m=1), Engine.ORACLE)
        values[float(p)] = res.value
    assert min(values.values()) < 0


def test_hoa_positive_q_shows_no_antibunching():
    for p in np.linspace(0.05, 0.95, 19):
        state = ngbs(NGBSParams(10, float(p), 0.01))
        res = evaluate(state, Witness("hoa", l=9, m=1), Engine.ORACLE)
        assert res.value >= -1e-12


def test_quadrature_literal_goes_negative_somewhere():
    values = [
        evaluate(ngbs(NGBSParams(10, float(p), -0.01)), Witness("quadx"), Engine.LITERAL).value
        for p in np.linspace(0.3, 0.7, 21)
    ]
    assert min(values) < 0


def test_sum_squeeze_literal_theta_ordering():
    # theta = 0 and pi coincide and sit at or below pi/6 and pi/3
    for p in (0.4, 0.5, 0.6):
        state = ngbs(NGBSParams(10, p, -0.01))
        s0 = evaluate(state, Witness("sum", theta=0.0), Engine.LITERAL).value
        s6 = evaluate(state, Witness("sum", theta=math.pi / 6), Engine.LITERAL).value
        s3 = evaluate(state, Witness("sum", theta=math.pi / 3), Engine.LITERAL).value
        spi = evaluate(state, Witness("sum", theta=math.pi), Engine.LITERAL).value
        assert abs(s0 - spi) <= 1e-12
        assert s0 <= s6 + 1e-12
        assert s0 <= s3 + 1e-12


def test_sv_literal_negative_region_exists():
    values = [
        evaluate(ngbs(NGBSParams(10, float(p), 0.01)), Witness("sv"), Engine.LITERAL).value
        for p in np.linspace(0.01, 0.99, 50)
    ]
    assert min(values) < 0


def test_strict_zero_guard_scales_with_magnitude():
    # binomial states satisfy the su11 inequality with exact equality; large
    # M amplifies rounding noise well past 1e-12, and the flag must not flip
    for p in np.linspace(0.05, 0.95, 19):
        res = evaluate(binomial_state(20, float(p)), Witness("su11"))
        assert abs(res.value) <= 1e-9
        assert not res.nonclassical


def test_su11_is_the_uncertainty_product_of_jx_and_jy(rng):
    # with Jx = (a1^dag a2 + a2^dag a1)/2, Jy = (a1^dag a2 - a2^dag a1)/(2i) and
    # Jz = (n1 - n2)/2, su11 is 16 Var(Jx) Var(Jy) - 4<Jz>^2, which the
    # Robertson relation Var(Jx) Var(Jy) >= <Jz>^2 / 4 keeps non-negative on
    # every state: SU(1,1) can never certify entanglement
    states = [random_fixed_total(rng, total) for total in range(1, 12) for _ in range(14)]
    states += [random_grid_state(rng, 3, 4) for _ in range(146)]
    for state in states:
        def moment(*exponents):
            return moment_oracle(state, MomentSpec(*exponents))
        n1, n2, n1n2 = moment(1, 1, 0, 0).real, moment(0, 0, 1, 1).real, moment(1, 1, 1, 1).real
        swap, twist = moment(1, 0, 0, 1), moment(2, 0, 0, 2).real  # <a1^dag a2>, <a1^dag2 a2^2>
        jx_sq = (2 * twist + 2 * n1n2 + n1 + n2) / 4
        jy_sq = (-2 * twist + 2 * n1n2 + n1 + n2) / 4
        jz = (n1 - n2) / 2
        expected = 16 * (jx_sq - swap.real ** 2) * (jy_sq - swap.imag ** 2) - 4 * jz ** 2
        res = evaluate(state, Witness("su11"), Engine.ORACLE)
        assert abs(res.value - expected) <= 1e-13 * max(1.0, res.scale), state
        assert not res.nonclassical, state


# --- separable states ----------------------------------------------------------------

_FOCK_PAIRS = [(n1, n2) for n1 in range(6) for n2 in range(6)]


def _product_states(rng):
    """The 36 Fock pairs |n1, n2> with n1, n2 <= 5 (in ``_FOCK_PAIRS``
    order), four coherent products, and 300 seeded random complex products
    ``u (x) v`` of one to six levels a mode, each a ``TwoModeState`` grid."""
    def unit(levels):
        vec = rng.standard_normal(levels) + 1j * rng.standard_normal(levels)
        return vec / np.linalg.norm(vec)

    states = [fock_pair(n1, n2) for n1, n2 in _FOCK_PAIRS]
    states += [coherent_product(a1, a2, 40)
               for a1, a2 in ((0.5, 0.5), (1.0, 1j), (1.5, -0.3), (0.2 + 0.7j, 2.0))]
    states += [TwoModeState(np.outer(unit(rng.integers(1, 7)), unit(rng.integers(1, 7))))
               for _ in range(300)]
    return states


def test_entanglement_witnesses_on_product_states(rng):
    # an entanglement witness must never flag a product state: su11 (which
    # Robertson's relation keeps >= 0 on every state) and epr:variance hold
    # to that; sv and epr:literal are the declared class whose forms fire on
    # separable states, so their flags are no evidence of entanglement
    states = _product_states(rng)
    fired, values = {}, {}
    for token in ("su11", "epr:variance", "sv", "epr:literal"):
        witness, = Witness.parse(token)
        results = [evaluate(state, witness, Engine.ORACLE) for state in states]
        assert all(result.status == "ok" for result in results), token
        fired[token] = {index for index, result in enumerate(results) if result.nonclassical}
        values[token] = [result.value for result in results]
    assert not fired["su11"]
    assert not fired["epr:variance"]
    fock = range(len(_FOCK_PAIRS))
    # (<n1> - 1/2)(<n2> - 1/2) < 0 exactly when one mode is empty and the other is not
    assert {_FOCK_PAIRS[i] for i in fired["sv"] if i in fock} == {
        (n1, n2) for n1, n2 in _FOCK_PAIRS if (n1 == 0) != (n2 == 0)}
    assert values["sv"][_FOCK_PAIRS.index((0, 1))] == pytest.approx(-0.25, abs=1e-12)
    # the literal form's unphysical -1 at the vacuum is its only Fock-pair flag
    assert {_FOCK_PAIRS[i] for i in fired["epr:literal"] if i in fock} == {(0, 0)}
    assert values["epr:literal"][_FOCK_PAIRS.index((0, 0))] == pytest.approx(-1.0, abs=1e-12)
    # and both fire on random products too, not only on the Fock pairs
    assert max(fired["sv"]) >= len(_FOCK_PAIRS) and max(fired["epr:literal"]) >= len(_FOCK_PAIRS)


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
    "token", ["hoa:1,2", "hoa:x,y", "nope", "epr:odd", "quadx:3", "sum:nan", "sum:inf", "sum:-inf",
              "hoa:2", "hoa:2,1,1", "sum:0.5,1", "epr:literal,variance", "sv:1",
              "sv:", "hoa:", "sum:", "epr:"]
)
def test_witness_parse_rejects_bad_tokens(token):
    with pytest.raises(ValueError):
        Witness.parse(token)


def test_witness_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown witness kind 'nope'$"):
        Witness("nope")


def test_witness_is_not_equal_to_its_kind_name():
    # __eq__ gives way to the other operand, and str has no equality with a Witness
    assert (Witness("sv") == "sv") is False
    assert Witness("sv") != "sv"


# the moment arguments each kind's reduction takes, after the witness
_MOMENTS_PER_KIND = {"hoa": 4, "quadx": 8, "quady": 8, "epr": 8, "sum": 5, "sv": 4,
                     "su11": 5, "cs": 3}


def test_each_witness_kind_declares_the_moments_its_reduction_takes():
    import inspect

    from twomode.witnesses import _KINDS

    assert set(_KINDS) == set(_MOMENTS_PER_KIND)
    for kind, entry in _KINDS.items():
        takes = len(inspect.signature(entry.reduction).parameters) - 1  # the witness first
        assert takes == _MOMENTS_PER_KIND[kind], kind
    variants = [witness for kind in _KINDS for witness in Witness.parse(kind)]
    variants += [Witness("hoa", l=l, m=m) for l, m in ((2, 1), (2, 2), (5, 1), (9, 1), (9, 9))]
    variants += [Witness("epr", form="variance"), Witness("sum", theta=-0.0),
                 Witness("sum", theta=0.5), Witness("sum", theta=-2.5),
                 Witness("sum", theta=np.float64(0.5)), Witness("hoa", l=np.int64(9), m=1)]
    for witness in variants:
        assert len(witness.specs) == _MOMENTS_PER_KIND[witness.kind], witness
        assert all(isinstance(spec, MomentSpec) for spec in witness.specs), witness
        # the label is the witness's token: it parses back to the witness
        assert Witness.parse(witness.label()) == [witness], witness


def test_a_kind_with_parameters_is_one_table_entry(monkeypatch):
    # a kind declares its parameters and bare token in its entry alone:
    # a copy of sum's entry under another name checks, labels and parses
    from twomode.witnesses import _KINDS

    monkeypatch.setitem(_KINDS, "twin", _KINDS["sum"])
    assert len(Witness.parse("twin")) == 4
    assert Witness("twin", theta=0.5).label() == "twin:0.5"
    assert Witness.parse("twin:0.5") == [Witness("twin", theta=0.5)]
    with pytest.raises(ValueError, match="twin requires theta"):
        Witness("twin")
    with pytest.raises(ValueError, match="twin takes no l"):
        Witness("twin", l=1, theta=0.5)


def test_witness_requires_valid_orders():
    with pytest.raises(ValueError):
        Witness("hoa", l=1, m=2)
    with pytest.raises(ValueError):
        Witness("hoa", l=2, m=0)
    with pytest.raises(ValueError):
        Witness("sum")


@pytest.mark.parametrize("kind, field, value", [
    ("sv", "theta", 1.0), ("sum", "l", 2), ("epr", "m", 1), ("hoa", "form", "literal"),
    ("cs", "form", "variance"), ("su11", "theta", 0.0), ("quadx", "l", 1),
])
def test_witness_rejects_a_parameter_of_another_kind(kind, field, value):
    # sv with a theta would be a second sv witness, with the sv label
    required = {"hoa": {"l": 2, "m": 1}, "sum": {"theta": 0.5}, "epr": {"form": "literal"}}
    with pytest.raises(ValueError, match=f"takes no {field}"):
        Witness(kind, **{**required.get(kind, {}), field: value})


@pytest.mark.parametrize("kind, params, field", [
    ("hoa", {"l": 2.5, "m": 1}, "l"), ("hoa", {"l": 3, "m": 1.5}, "m"),
    ("epr", {"form": 1}, "form"), ("sum", {"theta": "0.5"}, "theta"),
])
def test_witness_rejects_a_parameter_its_parser_changes(kind, params, field):
    # hoa l=2.5 would label hoa:2,1 and fail inside the series
    with pytest.raises(ValueError, match=f"{kind} takes {field} as "):
        Witness(kind, **params)


@pytest.mark.parametrize("theta", [math.nan, np.float64(math.nan), 1e308])
def test_witness_rejects_a_nonfinite_theta_or_double_theta(theta):
    # NaN != NaN: a NaN is not read as a value its parser changes
    with pytest.raises(ValueError, match="theta must be finite, and so must 2[*]theta"):
        Witness("sum", theta=theta)


def test_witness_keeps_each_parameter_as_its_parser_value():
    state = ngbs(NGBSParams(6, 0.5, 0.0))
    for given, parsed in ((Witness("hoa", l=2.0, m=np.int64(1)), Witness("hoa", l=2, m=1)),
                          (Witness("sum", theta=np.float64(0.5)), Witness("sum", theta=0.5)),
                          (Witness("sum", theta=1), Witness("sum", theta=1.0))):
        assert given == parsed
        assert [type(getattr(given, field)) for field in ("l", "m", "theta")] == [
            type(getattr(parsed, field)) for field in ("l", "m", "theta")]
        assert evaluate(state, given) == evaluate(state, parsed)


def test_evaluate_dispatch_matches_direct_calls():
    # the dispatch through the kind table against each kind's formula written
    # out directly (_reference), under the default engine of a fixed-total state
    state = ngbs(NGBSParams(6, 0.5, 0.0))
    for witness in (Witness("sv"), Witness("hoa", l=2, m=1), Witness("sum", theta=0.2),
                    Witness("epr", form="variance"), Witness("quady"), Witness("su11"),
                    Witness("cs")):
        assert evaluate(state, witness).value == _reference(state, witness, Engine.LITERAL)[0]


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
                if is_valid(params):
                    cases.append(pytest.param(ngbs(params), both, id=f"ngbs-{total}-{p}-{q}"))
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 2), (3, 1)):
        cases.append(pytest.param(_fixed_total_fock(n1, n2), both, id=f"fock-{n1}-{n2}"))
    cases.append(pytest.param(coherent_product(0.8, 0.5j, 14), (Engine.ORACLE,), id="coherent"))
    return cases


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
            _assert_same(shared, evaluate(state, witness, engine))
            reference = _reference(state, witness, engine)
            if reference is None:
                assert shared.status == "degenerate"
            else:
                assert shared.status == "ok"
                assert (shared.value, shared.scale) == reference
        assert set(table) == {spec for witness in VARIANTS for spec in witness.specs}


# --- slice reductions ---------------------------------------------------------------
#
# The sweeps reduce each witness once over a slice's moment columns, under
# either engine (reduce_columns); every row must be the per-state result bit
# for bit.  These tests fail an array ``** 2`` (x*x, not libm pow), ``np.abs``
# on complex values, numpy's complex multiply loop, ``np.maximum`` for
# ``max(1.0, scale)`` and a slice that keys its results by witness alone.

BOTH = (Engine.LITERAL, Engine.ORACLE)


def _assert_identical(got, want):
    # repr tells the sign of a zero and NaN apart; type tells float from np.float64
    assert [(type(f), repr(f)) for f in got] == [(type(f), repr(f)) for f in want]


def _assert_slice_rows_equal_states(states):
    grid_slice = _LiteralSlice(states)
    for witness in VARIANTS:
        # engines alternate row by row, as they do in an --engine both sweep
        for state in states:
            for engine in BOTH:
                row = evaluate(state, witness, engine, grid_slice)
                _assert_identical(row, evaluate(state, witness, engine))
    # every row has read its results, so the slice keeps none
    assert not grid_slice._literal_results and not grid_slice._oracle_results


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
        for p, state, table in _grid_slice({}, "ngbs", total, q, p_values):
            # a point that failed to build holds its exception
            if not isinstance(state, Exception):
                for engine in BOTH:
                    fresh = {}
                    for witness in VARIANTS:
                        row = evaluate(state, witness, engine, table)
                        _assert_identical(row, evaluate(state, witness, engine, fresh))


_ANY_STATE = _fixed_total_fock(1, 1)  # a table that holds every spec is never asked


def _random_columns(rng, witness, rows):
    """Columns of random moments of every magnitude, one per spec of ``witness``.

    Parts are 0.0 or -0.0 a fifth of the time, and a tenth of the values
    are Python ``0j``, the value a single state's empty plan gives: a
    column may be any sequence, not only the engines' ``complex128``
    arrays.  A spec taken twice (``hoa:1,1`` takes ``<n1 n2>`` twice) gets
    one column.
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
    # the engine only stamps the results; the slice tests cover both
    results = reduce_columns(witness, columns, Engine.LITERAL)
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
    hoa_results = reduce_columns(Witness("hoa", l=2, m=1), [num, num, den, zero], Engine.LITERAL)
    assert [r.status for r in hoa_results] == ["degenerate"] * 4 + ["ok"] * 2
    _assert_columns_reduce_like_rows(Witness("hoa", l=2, m=1), [num, num, den, zero])
    # sum squeezing divides by <n1> + <n2> + 1
    n1 = [np.complex128(-1.0), np.complex128(-0.5), np.complex128(-1.0 + 1e-14),
          np.complex128(-0.9)]
    n2 = [0j, np.complex128(-0.5), 0j, 0j]
    rest = [[np.complex128(0.5 - 0.25j)] * 4 for _ in range(3)]
    for theta in DEFAULT_THETAS:
        witness = Witness("sum", theta=theta)
        results = reduce_columns(witness, [n1, n2, *rest], Engine.LITERAL)
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
        (result,) = reduce_columns(Witness("quadx"), columns, Engine.LITERAL)
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


def test_a_slice_reduces_each_signed_zero_theta_once(monkeypatch):
    # 0.0 == -0.0, yet sum:0.0 and sum:-0.0 are two witnesses: a slice keys
    # and reduces each once, and each row's result carries its own witness
    import twomode.sweep as sweep

    reductions = Counter()
    reduce = sweep.reduce_columns

    def counted(witness, columns, engine):
        reductions[(witness.label(), engine)] += 1
        return reduce(witness, columns, engine)

    monkeypatch.setattr(sweep, "reduce_columns", counted)
    pair = (Witness("sum", theta=-0.0), Witness("sum", theta=0.0))
    assert pair[0] != pair[1] and len({*pair}) == 2
    p_values = tuple(np.linspace(0.1, 0.9, 9).tolist())
    for p, state, table in _grid_slice({}, "ngbs", 10, -0.01, p_values):
        for witness in pair:
            for engine in BOTH:
                result = evaluate(state, witness, engine, table)
                assert result.witness.label() == witness.label()
    assert reductions == Counter((witness.label(), engine) for witness in pair for engine in BOTH)


# --- roundoff guard margin at large M ------------------------------------------------

@pytest.mark.parametrize("total", [100, 200, 400])
def test_guard_margin_on_the_q0_line_at_large_m(total):
    # su11 and cs vanish identically on the q = 0 binomial line; measured
    # worst |value| / (1e-12 max(1, scale)) over the standard p grid: 0.0028,
    # 0.0039 and 0.0092 at M = 100, 200 and 400
    p_values = tuple(np.linspace(*STANDARD_P_GRID).tolist())
    worst = 0.0
    for p, state, table in _grid_slice({}, "ngbs", total, 0.0, p_values):
        for witness in (Witness("su11"), Witness("cs")):
            result = evaluate(state, witness, Engine.LITERAL, table)
            assert result.status == "ok" and not result.nonclassical
            worst = max(worst, abs(result.value) / (STRICT_ZERO * max(1.0, result.scale)))
    assert 0.0 < worst < 0.1
