import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_fixed_total(rng, total: int, complex_amps: bool = True):
    """Random normalized amplitude vector over |n>|M-n>."""
    from twomode import FixedTotalState

    vec = rng.standard_normal(total + 1)
    if complex_amps:
        vec = vec + 1j * rng.standard_normal(total + 1)
    vec = vec / np.linalg.norm(vec)
    return FixedTotalState(total, vec)


def random_grid_state(rng, n1: int, n2: int):
    """Random normalized two-mode amplitude grid."""
    from twomode import TwoModeState

    grid = rng.standard_normal((n1 + 1, n2 + 1)) + 1j * rng.standard_normal((n1 + 1, n2 + 1))
    return TwoModeState(grid / np.linalg.norm(grid))


def signed_zero_states(rng, total, rows, complex_amps):
    """Random fixed-total states with some parts set to +0.0 or -0.0."""
    from twomode import FixedTotalState

    states = []
    for _ in range(rows):
        vec = rng.standard_normal(total + 1)
        if complex_amps:
            vec = vec + 1j * rng.standard_normal(total + 1)
        zeros = rng.random(total + 1) < 0.3
        zeros[rng.integers(total + 1)] = False  # keep one amplitude nonzero
        sign = np.where(rng.random(total + 1) < 0.5, -0.0, 0.0)
        if complex_amps:
            vec.real[zeros] = sign[zeros]
            vec.imag[rng.random(total + 1) < 0.3] = -0.0
        else:
            vec[zeros] = sign[zeros]
        states.append(FixedTotalState(total, vec / np.linalg.norm(vec)))
    return states
