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


def is_valid(params) -> bool:
    """Whether ``params.validate()`` accepts the parameter point."""
    from twomode import InvalidParams

    try:
        params.validate()
    except InvalidParams:
        return False
    return True


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


def assert_column_rows(column, singles, dtype=np.complex128, context=None):
    """``column`` is a ``dtype`` array of shape ``(len(singles),)`` whose row i
    is ``singles[i]``, the single-state call's value, bit for bit: ``repr``
    of the Python number tells the sign of a zero in either part."""
    convert = complex if dtype == np.complex128 else float
    assert isinstance(column, np.ndarray), context
    assert (column.dtype, column.shape) == (dtype, (len(singles),)), context
    for row, (got, want) in enumerate(zip(column, singles)):
        assert repr(convert(got)) == repr(convert(want)), (context, row)


# --- the oracle's reference: single ladder operators on grid states ----------------

def to_two_mode(state):
    """Embed a FixedTotalState into a TwoModeState grid with entry (n, M-n) = c[n]."""
    from twomode import TwoModeState

    m = state.total
    grid = np.zeros((m + 1, m + 1), dtype=complex)
    grid[np.arange(m + 1), m - np.arange(m + 1)] = state.amplitudes
    return TwoModeState(grid)


def as_grid(state):
    """The grid state of ``state``: a FixedTotalState embedded, a TwoModeState as is."""
    from twomode import FixedTotalState

    if isinstance(state, FixedTotalState):
        return to_two_mode(state)
    return state


def apply_ladder(state, mode: int, kind: str):
    """Apply a single creation or annihilation operator to one mode.

    Standard actions ``a|n> = sqrt(n)|n-1>`` and ``a^dag|n> = sqrt(n+1)|n+1>``
    applied entrywise to the grid; creation grows the grid by one row or
    column, so no amplitude is lost.  The result is an unnormalized
    TwoModeState.  ``mode`` is 1 or 2, ``kind`` ``"create"`` or
    ``"annihilate"``.
    """
    from twomode import TwoModeState

    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    grid = as_grid(state).amps
    axis = mode - 1
    if axis == 1:
        grid = grid.T
    n_max = grid.shape[0] - 1

    if kind == "annihilate":
        out = np.zeros_like(grid)
        if n_max >= 1:
            weights = np.sqrt(np.arange(1, n_max + 1, dtype=float))
            out[:-1, :] = grid[1:, :] * weights[:, None]
    else:
        out = np.zeros((n_max + 2, grid.shape[1]), dtype=complex)
        weights = np.sqrt(np.arange(1, n_max + 2, dtype=float))
        out[1:, :] = grid * weights[:, None]

    if axis == 1:
        out = out.T
    return TwoModeState(out)


def inner_product(bra, ket) -> complex:
    """Return ``<bra|ket>`` with grids zero-padded to common cutoffs."""
    a = as_grid(bra).amps
    b = as_grid(ket).amps
    rows = max(a.shape[0], b.shape[0])
    cols = max(a.shape[1], b.shape[1])
    if a.shape != (rows, cols):
        a = np.pad(a, ((0, rows - a.shape[0]), (0, cols - a.shape[1])))
    if b.shape != (rows, cols):
        b = np.pad(b, ((0, rows - b.shape[0]), (0, cols - b.shape[1])))
    return complex(np.vdot(a, b))


# --- ngbs's reference: its loop on a numpy array, with max clamps ----------------

def reference_ngbs(params, branches=None):
    """``twomode.ngbs`` as it ran with its coefficients in a numpy array,
    ``max``-clamped factors and ``== 0.0`` tests; the list-built loop must
    give the same state bit for bit, or raise the same exception.
    ``branches``, a Counter, counts the terms that each ``continue`` skips,
    as ``"zero base"`` and ``"zero tail"``.  (``FixedTotalState``'s own
    checks are held to ``np.linalg.norm`` in ``tests/test_fock.py``.)"""
    import math

    from twomode import FixedTotalState, NormalizationAnomaly
    from twomode.fock import _log_factorials

    params.validate()
    m, p, q = params.total, params.p, params.q
    theta = 1.0 / (1.0 + m * q)
    x = p * theta

    c_sq = np.zeros(m + 1)
    c_sq[0] = max((1.0 - x) ** m, 0.0)
    if x > 0.0:
        lf = _log_factorials(m)
        log_head = math.log(x) + lf[m]
        for n in range(1, m + 1):
            share = (p + n * q) * theta
            base = max(share, 0.0)
            tail = max(1.0 - share, 0.0)
            log_term = log_head - lf[n] - lf[m - n]
            if n - 1 > 0:
                if base == 0.0:
                    if branches is not None:
                        branches["zero base"] += 1
                    continue
                log_term += (n - 1) * math.log(base)
            if m - n > 0:
                if tail == 0.0:
                    if branches is not None:
                        branches["zero tail"] += 1
                    continue
                log_term += (m - n) * math.log(tail)
            c_sq[n] = math.exp(log_term)

    total = float(c_sq.sum())
    if abs(total - 1.0) > 1e-8:
        raise NormalizationAnomaly(
            f"coefficients sum to {total!r} for M={m}, p={p!r}, q={q!r}"
        )
    return FixedTotalState(m, np.sqrt(c_sq))
