import copy
import dataclasses
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import twomode.fock as fock
import twomode.moments as moments
from twomode import (
    FixedTotalState,
    MomentBatch,
    MomentSpec,
    NGBSParams,
    TwoModeState,
    compare_engines,
    fock_pair,
    moment_oracle,
    ngbs,
)
from twomode.sweep import _DIAGNOSTIC_SPECS, STANDARD_Q

from conftest import (
    apply_ladder,
    assert_column_rows,
    inner_product,
    is_valid,
    random_fixed_total,
    random_grid_state,
    signed_zero_states,
    to_two_mode,
)


def test_log_factorial_base_cases():
    table = fock._log_factorials(10)
    assert len(table) >= 11
    assert table[0] == 0.0
    assert table[1] == 0.0
    assert math.isclose(table[10], math.log(3628800), rel_tol=1e-12)
    assert fock._log_factorials(0)[0] == 0.0


@pytest.mark.parametrize("n", [2, 5, 17, 50, 171, 333, 500])
def test_log_factorial_matches_exact_integer_factorial(n):
    exact = math.log(math.factorial(n))
    table = fock._log_factorials(n)
    assert math.isclose(table[n], exact, rel_tol=1e-12)
    assert table[:n + 1] == tuple(math.lgamma(i + 1) for i in range(n + 1))
    # one table: a smaller n reads the same one
    assert fock._log_factorials(n // 2) is table


def test_annihilate_vacuum_gives_zero_state():
    out = apply_ladder(fock_pair(0, 0), 1, "annihilate")
    assert np.all(out.amps == 0)


def test_create_mode2_on_vacuum():
    out = apply_ladder(fock_pair(0, 0), 2, "create")
    assert out.amps.shape == (1, 2)
    assert out.amps[0, 1] == 1.0
    assert out.amps[0, 0] == 0.0


def test_annihilate_two_photons():
    out = apply_ladder(fock_pair(2, 0), 1, "annihilate")
    assert np.isclose(out.amps[1, 0], math.sqrt(2))
    assert np.count_nonzero(out.amps) == 1


def test_apply_ladder_argument_validation():
    with pytest.raises(ValueError):
        apply_ladder(fock_pair(0, 0), 3, "create")
    with pytest.raises(ValueError):
        apply_ladder(fock_pair(0, 0), 1, "destroy")


def test_inner_product_basis_kets():
    assert inner_product(fock_pair(1, 1), fock_pair(1, 1)) == 1.0
    assert inner_product(fock_pair(1, 0), fock_pair(0, 1)) == 0.0


def test_inner_product_pads_to_common_cutoffs():
    assert inner_product(fock_pair(3, 1), fock_pair(3, 1)) == 1.0
    assert inner_product(fock_pair(0, 0), fock_pair(2, 5)) == 0.0


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(20):
        x = random_grid_state(rng, 3, 4)
        y = random_grid_state(rng, 3, 4)
        assert inner_product(x, y) == pytest.approx(inner_product(y, x).conjugate())


def test_ladder_adjointness(rng):
    # <a^dag phi | psi> == <phi | a psi> for both modes
    for mode in (1, 2):
        for _ in range(20):
            phi = random_grid_state(rng, 4, 3)
            psi = random_grid_state(rng, 5, 4)
            lhs = inner_product(apply_ladder(phi, mode, "create"), psi)
            rhs = inner_product(phi, apply_ladder(psi, mode, "annihilate"))
            assert abs(lhs - rhs) <= 1e-12


def test_oracle_number_moment_of_single_photon():
    assert moment_oracle(fock_pair(1, 1), MomentSpec(1, 1, 0, 0)) == pytest.approx(1.0)


def test_oracle_second_factorial_moment():
    val = moment_oracle(fock_pair(2, 0), MomentSpec(2, 2, 0, 0))
    assert val == pytest.approx(2.0, abs=1e-12)


def test_oracle_identity_spec_is_norm():
    assert moment_oracle(fock_pair(3, 2), MomentSpec(0, 0, 0, 0)) == pytest.approx(1.0)


def _ladder_chain_oracle(state, spec):
    """The oracle as ladder images: bra a1^j then a2^r, ket a1^k then a2^s."""
    bra = ket = state
    for _ in range(spec.j):
        bra = apply_ladder(bra, 1, "annihilate")
    for _ in range(spec.r):
        bra = apply_ladder(bra, 2, "annihilate")
    for _ in range(spec.k):
        ket = apply_ladder(ket, 1, "annihilate")
    for _ in range(spec.s):
        ket = apply_ladder(ket, 2, "annihilate")
    return inner_product(bra, ket)


@pytest.mark.parametrize("kind", ["grid", "fixed_total"])
@given(
    st.integers(0, 20),
    st.integers(0, 20),
    st.tuples(*[st.integers(0, 6)] * 4),
    st.integers(0, 2**32 - 1),
)
def test_oracle_equals_ladder_chain_exactly(kind, n1, n2, exponents, seed):
    # exact equality: the engine discrepancy report holds rounding residue
    # that must come out the same bit for bit
    rng = np.random.default_rng(seed)
    if kind == "grid":
        state = random_grid_state(rng, n1, n2)
    else:
        state = random_fixed_total(rng, n1)
    spec = MomentSpec(*exponents)
    assert moment_oracle(state, spec) == _ladder_chain_oracle(state, spec)


@given(
    st.integers(0, 24),
    st.tuples(*[st.integers(0, 8)] * 4).filter(lambda e: e[0] - e[1] + e[2] - e[3] != 0),
    st.integers(0, 2**32 - 1),
)
def test_oracle_selection_rule_equals_grid_value_exactly(total, exponents, seed):
    # the oracle answers a number-changing moment of a fixed-total state
    # without its grids; the answer must be the grid value, sign of zero
    # included, also when amplitudes hold -0.0 parts
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(total + 1) + 1j * rng.standard_normal(total + 1)
    amps.real[rng.random(total + 1) < 0.3] = -0.0
    amps.imag[rng.random(total + 1) < 0.3] = -0.0
    if not np.any(amps):
        amps[0] = complex(-0.0, 1.0)
    state = FixedTotalState(total, amps / np.linalg.norm(amps))
    spec = MomentSpec(*exponents)
    got = moment_oracle(state, spec)
    want = _ladder_chain_oracle(state, spec)
    assert got == want
    for part in ("real", "imag"):
        sign = math.copysign(1.0, getattr(got, part))
        assert sign == math.copysign(1.0, getattr(want, part)), part


def test_oracle_builds_no_grid_for_number_changing_moments(monkeypatch):
    calls = []   # (spec, fixed-total) per oracle call
    builds = []  # the spec of the oracle call that built each scatter grid
    oracle = moments.moment_oracle

    def counted_oracle(state, spec):
        calls.append((spec, isinstance(state, FixedTotalState)))
        return oracle(state, spec)

    class CountingNumpy:
        """numpy, with each 2-d ``zeros`` (an image's grid) counted."""

        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, *args, **kwargs):
            if np.ndim(shape) == 1 and len(shape) == 2:
                builds.append(calls[-1][0])
            return np.zeros(shape, *args, **kwargs)

    monkeypatch.setattr(moments, "moment_oracle", counted_oracle)
    monkeypatch.setattr(fock, "np", CountingNumpy())
    specs = [MomentSpec(d, low, 0, 0) for d, low in _DIAGNOSTIC_SPECS]
    specs += [MomentSpec(0, 0, d, low) for d, low in _DIAGNOSTIC_SPECS]
    for total in (10, 20):
        for q in STANDARD_Q:
            params = NGBSParams(total, 0.5, q)
            if is_valid(params):
                compare_engines(ngbs(params), specs)

    assert calls and all(fixed for _, fixed in calls)
    assert any(not spec.conserving for spec, _ in calls)
    # one grid when bra and ket are the same image, else two; none at all
    # for a number-changing spec
    expected = Counter()
    for spec, _ in calls:
        if spec.conserving:
            expected[spec] += 1 if (spec.j, spec.r) == (spec.k, spec.s) else 2
    assert Counter(builds) == expected


_SPECS_TO_3 = [MomentSpec(*e) for e in itertools.product(range(4), repeat=4)]


def _assert_batch_rows_equal_states(states):
    batch = MomentBatch.stack(states)
    for spec in _SPECS_TO_3:
        assert_column_rows(moment_oracle(batch, spec),
                           [moment_oracle(state, spec) for state in states], context=spec)


@pytest.mark.parametrize("total", [0, 5, 20, 100])
def test_batch_oracle_rows_equal_states_on_ngbs_stacks(total):
    # the stacks the sweeps build: states of one M, real amplitudes
    states = [ngbs(NGBSParams(total, p, q)) for q in STANDARD_Q
              for p in np.linspace(0.01, 0.99, 9) if is_valid(NGBSParams(total, p, q))]
    _assert_batch_rows_equal_states(states)


@pytest.mark.parametrize("total", [0, 5, 20, 100])
@given(rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batch_oracle_rows_equal_states_on_complex_stacks(total, rows, seed):
    # complex amplitudes with +0.0 and -0.0 parts
    states = signed_zero_states(np.random.default_rng(seed), total, rows, True)
    _assert_batch_rows_equal_states(states)


def test_ladder_plan_cells_are_the_flat_cells_the_reference_fills():
    # the cells of a1^mode1 a2^mode2 on |n>|M-n> are the nonzero cells of the
    # reference chain's image, row * (M+1) + col; the bra and ket of a
    # conserving spec lower the same photon count and fill the same cells
    exponents = range(5)
    for total in range(31):
        grid = np.zeros((total + 1, total + 1))
        grid[np.arange(total + 1), total - np.arange(total + 1)] = 1.0
        plans = {}
        for mode1, mode2 in itertools.product(exponents, repeat=2):
            image = TwoModeState(grid)
            for mode, count in ((1, mode1), (2, mode2)):
                for _ in range(count):
                    image = apply_ladder(image, mode, "annihilate")
            rows, cols = np.nonzero(image.amps)
            n, cells, _ = fock._ladder_plan(total, mode1, mode2)
            assert cells.tolist() == (rows * (total + 1) + cols).tolist(), (total, mode1, mode2)
            assert n.tolist() == (rows + mode1).tolist()
            plans[mode1, mode2] = cells.tolist()
        for (j, r), (k, s) in itertools.product(plans, repeat=2):
            if j + r == k + s:
                assert plans[j, r] == plans[k, s], (total, j, k, r, s)


def test_selection_rule_randomized(rng):
    # number-changing moments vanish identically on fixed-total states
    for _ in range(200):
        total = int(rng.integers(0, 21))
        state = random_fixed_total(rng, total)
        while True:
            j, k, r, s = (int(x) for x in rng.integers(0, 11, size=4))
            spec = MomentSpec(j, k, r, s)
            if not spec.conserving:
                break
        assert abs(moment_oracle(state, spec)) <= 1e-12


def test_oracle_hermiticity(rng):
    for _ in range(50):
        total = int(rng.integers(0, 13))
        state = random_fixed_total(rng, total)
        j, k, r, s = (int(x) for x in rng.integers(0, 5, size=4))
        spec = MomentSpec(j, k, r, s)
        lhs = moment_oracle(state, spec)
        # the spec of the Hermitian-conjugate operator string
        rhs = moment_oracle(state, MomentSpec(spec.k, spec.j, spec.s, spec.r))
        assert abs(lhs - rhs.conjugate()) <= 1e-12


def test_oracle_diagonal_positivity(rng):
    for _ in range(50):
        total = int(rng.integers(0, 13))
        state = random_fixed_total(rng, total)
        j, r = (int(x) for x in rng.integers(0, 6, size=2))
        val = moment_oracle(state, MomentSpec(j, j, r, r))
        assert abs(val.imag) <= 1e-12
        assert val.real >= -1e-12


@given(st.integers(0, 8), st.integers(0, 8))
def test_fixed_total_embedding_is_lossless(n1, pad):
    total = n1 + pad
    amps = np.zeros(total + 1)
    amps[n1] = 1.0
    grid = to_two_mode(FixedTotalState(total, amps))
    assert grid.amps.shape == (total + 1, total + 1)
    assert grid.amps[n1, total - n1] == 1.0
    assert np.count_nonzero(grid.amps) == 1


def test_fixed_total_rejects_unnormalized(rng):
    with pytest.raises(ValueError):
        FixedTotalState(1, np.array([1.0, 1.0]))
    # the check reads np.linalg.norm's value, on either side of the tolerance
    for total in (0, 1, 20, 400):
        for complex_amps in (False, True):
            vec = random_fixed_total(rng, total, complex_amps).amplitudes
            if not complex_amps:
                vec = vec.real
            for scale in (1.0, 1.0 + 0.9e-10, 1.0 - 0.9e-10, 1.0 + 1.1e-10, 1.0 - 1.1e-10, 2.0):
                amps = vec * scale
                nrm = np.linalg.norm(amps.astype(complex))
                if abs(nrm - 1.0) <= 1e-10:
                    FixedTotalState(total, amps)
                    continue
                with pytest.raises(ValueError) as raised:
                    FixedTotalState(total, amps)
                assert str(raised.value) == f"state not normalized: |c| = {nrm!r}"


def test_fixed_total_rejects_nonfinite():
    with pytest.raises(ValueError):
        FixedTotalState(1, np.array([np.nan, 1.0]))


def test_two_mode_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        TwoModeState(np.array([[np.inf, 0.0]]))


def test_two_mode_state_is_immutable():
    state = fock_pair(1, 1)
    with pytest.raises(ValueError):
        state.amps[0, 0] = 5.0


def test_states_are_slotted_frozen_and_replaceable():
    # no instance dict per state, and the dataclass contract stays
    fixed = FixedTotalState(1, np.array([0.6, 0.8]))
    for state, field in ((fixed, "amplitudes"), (fock_pair(1, 1), "amps")):
        assert not hasattr(state, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.extra = 1
        # a copy is rebuilt frozen, not handed a writeable array
        for twin in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
            assert type(twin) is type(state)
            assert np.array_equal(getattr(twin, field), getattr(state, field))
            assert not getattr(twin, field).flags.writeable
    moved = dataclasses.replace(fixed, amplitudes=[0.8, 0.6])
    assert moved.total == 1 and moved.amplitudes.tolist() == [0.8, 0.6]
    assert not moved.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        dataclasses.replace(fixed, total=2)


def test_moment_spec_validation_and_imbalance():
    spec = MomentSpec(2, 1, 0, 1)
    assert spec.imbalance == 0
    assert spec.conserving
    assert MomentSpec(1, 0, 0, 0).imbalance == 1
    with pytest.raises(ValueError):
        MomentSpec(-1, 0, 0, 0)


def test_moment_spec_hash_equality_and_repr():
    # the hash is computed once per spec; it must agree with equality, follow
    # dataclasses.replace, and stay out of repr and the fields
    spec = MomentSpec(1, 1, 0, 0)
    twin = MomentSpec(1, 1, 0, 0)
    assert spec == twin and spec is not twin
    assert hash(spec) == hash(twin) == hash((1, 1, 0, 0))
    assert {spec: "n1"}[twin] == "n1"
    assert spec != MomentSpec(1, 1, 0, 1)
    moved = dataclasses.replace(spec, s=2)
    assert moved == MomentSpec(1, 1, 0, 2) and hash(moved) == hash((1, 1, 0, 2))
    assert repr(spec) == "MomentSpec(j=1, k=1, r=0, s=0)"
    assert [f.name for f in dataclasses.fields(MomentSpec)] == ["j", "k", "r", "s"]


def test_norm_of_a_grid_state():
    # the raw constructor keeps an unnormalized grid as it is given
    assert np.linalg.norm(TwoModeState(np.array([[3.0, 4.0]])).amps) == 5.0
    assert np.linalg.norm(TwoModeState(np.zeros((2, 2))).amps) == 0.0
