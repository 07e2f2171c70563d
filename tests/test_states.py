import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from twomode import (
    InvalidParams,
    MomentSpec,
    NGBSParams,
    NormalizationAnomaly,
    TruncationInadequate,
    binomial_state,
    coherent_product,
    fock_pair,
    moment_oracle,
    log_factorial,
    ngbs,
)

VALID_Q = (-0.01, -0.005, 0.0, 0.005, 0.01, 0.1)


def test_ngbs_p_one_is_all_photons_in_mode_one():
    state = ngbs(NGBSParams(2, 1.0, 0.0))
    assert np.allclose(state.amplitudes, [0.0, 0.0, 1.0], atol=1e-12)


def test_ngbs_symmetric_binomial_point():
    state = ngbs(NGBSParams(2, 0.5, 0.0))
    expected = [0.5, 1.0 / math.sqrt(2), 0.5]
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_ngbs_negative_q_point_normalized():
    state = ngbs(NGBSParams(10, 0.5, -0.01))
    assert state.amplitudes.shape == (11,)
    total = np.sum(np.abs(state.amplitudes) ** 2)
    assert abs(total - 1.0) <= 1e-10


def test_binomial_vacuum_limit():
    assert np.allclose(binomial_state(3, 0.0).amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_binomial_single_photon_superposition():
    amps = binomial_state(1, 0.5).amplitudes
    assert np.allclose(amps, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_binomial_equals_ngbs_q0_bitwise():
    a = binomial_state(20, 0.3).amplitudes
    b = ngbs(NGBSParams(20, 0.3, 0.0)).amplitudes
    assert np.array_equal(a, b)


@given(st.integers(1, 25), st.floats(0.0, 1.0, allow_nan=False))
def test_binomial_reduction_identity(total, p):
    a = binomial_state(total, p).amplitudes
    b = ngbs(NGBSParams(total, p, 0.0)).amplitudes
    assert np.array_equal(a, b)


@pytest.mark.parametrize("total", [1, 5, 10, 20])
def test_boundary_collapse(total):
    top = ngbs(NGBSParams(total, 1.0, 0.0)).amplitudes
    bottom = ngbs(NGBSParams(total, 0.0, 0.0)).amplitudes
    expected_top = np.zeros(total + 1)
    expected_top[total] = 1.0
    expected_bottom = np.zeros(total + 1)
    expected_bottom[0] = 1.0
    assert np.max(np.abs(top - expected_top)) <= 1e-12
    assert np.max(np.abs(bottom - expected_bottom)) <= 1e-12


def test_abel_normalization_over_validation_grid():
    checked = 0
    for total in (5, 10, 20):
        for q in VALID_Q:
            for p in np.arange(0.05, 0.951, 0.05):
                params = NGBSParams(total, float(p), q)
                if not params.is_valid():
                    continue
                amps = ngbs(params).amplitudes
                assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-8
                checked += 1
    assert checked > 200


@given(
    st.integers(1, 30),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(-0.02, 0.12, allow_nan=False),
)
@example(total=1, p=1.0, q=-2.220446049250313e-16)
def test_ngbs_amplitudes_real_nonnegative(total, p, q):
    params = NGBSParams(total, p, q)
    assume(params.is_valid())
    amps = ngbs(params).amplitudes
    assert np.all(amps.imag == 0)
    assert np.all(amps.real >= 0)


@pytest.mark.parametrize(
    "total,p,q",
    [
        (10, 1.5, 0.0),       # p above 1
        (10, -0.1, 0.0),      # p below 0
        (10, 0.5, -0.2),      # 1 + M q <= 0
        (10, 0.05, -0.01),    # p + M q < 0
        (20, 0.95, -0.01),    # p exceeds 1 + M q
        (-1, 0.5, 0.0),       # negative photon number
        (10, math.nan, 0.0),  # non-finite p or q: NaN fails no comparison
        (10, 0.5, math.nan),
        (10, math.inf, 0.0),
        (10, 0.5, math.inf),  # 1 + M q = inf would make it the product state
    ],
)
def test_invalid_params_rejected(total, p, q):
    with pytest.raises(InvalidParams):
        ngbs(NGBSParams(total, p, q))


def _ngbs_squares_scalar_loop(m, p, q):
    """``ngbs``'s squared coefficients as its loop computed them before the
    log-factorials came from a per-M table."""
    theta = 1.0 / (1.0 + m * q)
    x = p * theta
    c_sq = np.zeros(m + 1)
    c_sq[0] = max((1.0 - x) ** m, 0.0)
    if x > 0.0:
        log_x = math.log(x)
        for n in range(1, m + 1):
            base = max((p + n * q) * theta, 0.0)
            tail = max(1.0 - (p + n * q) * theta, 0.0)
            log_term = log_x + log_factorial(m) - log_factorial(n) - log_factorial(m - n)
            if n - 1 > 0:
                if base == 0.0:
                    continue
                log_term += (n - 1) * math.log(base)
            if m - n > 0:
                if tail == 0.0:
                    continue
                log_term += (m - n) * math.log(tail)
            c_sq[n] = math.exp(log_term)
    return c_sq


@pytest.mark.parametrize("total", [10, 20, 101, 400])
def test_ngbs_amplitudes_equal_scalar_loop_exactly(total):
    checked = 0
    for q in VALID_Q:
        for p in [0.0, *np.linspace(0.01, 0.99, 25), 1.0]:
            params = NGBSParams(total, float(p), q)
            if not params.is_valid():
                continue
            c_sq = _ngbs_squares_scalar_loop(total, float(p), q)
            if abs(float(c_sq.sum()) - 1.0) > 1e-8:
                with pytest.raises(NormalizationAnomaly):
                    ngbs(params)
                continue
            assert np.array_equal(ngbs(params).amplitudes, np.sqrt(c_sq))
            checked += 1
    assert checked >= 4 * 27


def test_boundary_parameter_point_is_valid():
    # p + M q lands exactly on 0 up to rounding; must not be rejected
    state = ngbs(NGBSParams(20, 0.2, -0.01))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10


def test_fock_pair_examples():
    vac = fock_pair(0, 0)
    assert vac.amps.shape == (1, 1) and vac.amps[0, 0] == 1.0
    pair = fock_pair(2, 5)
    assert pair.amps.shape == (3, 6) and pair.amps[2, 5] == 1.0
    with pytest.raises(ValueError):
        fock_pair(-1, 0)


def test_coherent_alpha_zero_is_vacuum():
    state = coherent_product(0.0, 0.0, 5)
    assert state.amps[0, 0] == 1.0
    assert np.count_nonzero(state.amps) == 1


def test_coherent_mean_photon_number():
    state = coherent_product(1.0, 1.0, 30)
    n1 = moment_oracle(state, MomentSpec(1, 1, 0, 0)).real
    assert abs(n1 - 1.0) <= 1e-9


def test_coherent_complex_amplitude_phases():
    alpha = 0.4 + 0.3j
    state = coherent_product(alpha, 0.0, 25)
    a1 = moment_oracle(state, MomentSpec(0, 1, 0, 0))
    assert abs(a1 - alpha) <= 1e-9


def test_coherent_truncation_guard():
    with pytest.raises(TruncationInadequate):
        coherent_product(3.0, 0.0, 10)


def test_coherent_normalized_after_truncation():
    state = coherent_product(0.5, 0.5, 30)
    assert abs(state.norm - 1.0) <= 1e-12
