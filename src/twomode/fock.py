"""Finite-dimensional two-mode bosonic Fock states and the ladder-operator moment oracle.

Two state containers are provided:

- ``TwoModeState``: a complex amplitude grid ``amps[n1, n2]`` on a truncated
  two-mode Fock lattice.
- ``FixedTotalState``: an amplitude vector over the fixed-total-photon basis
  ``|n>|M-n>``; it embeds losslessly into a ``TwoModeState``.

``moment_oracle`` evaluates an arbitrary normally ordered moment
``<a1^dag^j a1^k a2^dag^r a2^s>`` by splitting the operator string at the
dagger boundary and taking the inner product of two annihilation-only images
of the state.  No creation operators are ever applied, so the result is exact
up to floating-point rounding for any finite state; no dense operator
matrices are built.

The oracle scales the stored amplitudes by ``sqrt(n)`` one ladder step at a
time instead of building a validated ``TwoModeState`` per step, then takes
the same grid ``np.vdot`` as :func:`inner_product`.  It is equal, bit for
bit, to chaining :func:`apply_ladder` and :func:`inner_product`, which stay
as public API and as its test reference: the engine discrepancy report of
``twomode figures`` holds rounding residue (up to about 1e-6), and its
values reproduce only if every product and the BLAS reduction layout of the
sum stay the same.

On a fixed-total state a number-changing moment is zero by the total-photon
selection rule, and ``moment_oracle`` returns ``0j`` for it without building
either grid; the grid ``np.vdot`` would give the same ``0j``.  Every other
moment, and every moment of a ``TwoModeState``, goes through the grids.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FixedTotalState",
    "MomentSpec",
    "TwoModeState",
    "apply_ladder",
    "inner_product",
    "log_factorial",
    "moment_oracle",
]

NORMALIZATION_TOL = 1e-10


def log_factorial(n: int) -> float:
    """Return ln(n!) for a non-negative integer n.

    Exact 0.0 for n in {0, 1}; relative error at the lgamma level
    (well below 1e-12) for n up to several hundred.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return math.lgamma(n + 1)


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Amplitude grid ``amps[n1, n2]`` with 0 <= n_i <= cutoff_i.

    The raw constructor only checks finiteness; use :meth:`normalized` (or a
    state constructor from :mod:`twomode.states`) for unit-norm states.
    Ladder operations intentionally produce unnormalized grids.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError(f"amplitude grid must be 2-d, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitude grid contains non-finite entries")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, amps: np.ndarray) -> "TwoModeState":
        """Construct a state normalized to unit norm."""
        amps = np.asarray(amps, dtype=complex)
        nrm = np.linalg.norm(amps)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero grid")
        return cls(amps / nrm)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.norm - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class FixedTotalState:
    """State ``sum_n c[n] |n>|M-n>`` with M total photons shared by two modes.

    Parameters
    ----------
    total : int
        Total photon number M (>= 0).
    amplitudes : array_like
        Length M+1 vector; entry n weights the basis ket ``|n>|M-n>``.
        Must be normalized to within ``NORMALIZATION_TOL``.
    """

    total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.total < 0:
            raise ValueError("total photon number must be non-negative")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.total + 1,):
            raise ValueError(
                f"expected {self.total + 1} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contain non-finite entries")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state not normalized: |c| = {nrm!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def to_two_mode(self) -> TwoModeState:
        """Embed into a TwoModeState grid with entry (n, M-n) = c[n]."""
        m = self.total
        grid = np.zeros((m + 1, m + 1), dtype=complex)
        grid[np.arange(m + 1), m - np.arange(m + 1)] = self.amplitudes
        return TwoModeState(grid)


@dataclass(frozen=True)
class MomentSpec:
    """Exponent quadruple (j, k, r, s) for ``<a1^dag^j a1^k a2^dag^r a2^s>``."""

    j: int
    k: int
    r: int
    s: int

    def __post_init__(self):
        if min(self.j, self.k, self.r, self.s) < 0:
            raise ValueError(f"exponents must be non-negative: {self}")
        # specs key every moment table; hashing once here spares the
        # generated __hash__ rebuilding the tuple on each lookup
        object.__setattr__(self, "_hash", hash((self.j, self.k, self.r, self.s)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def imbalance(self) -> int:
        """Net total-photon change (j - k) + (r - s); 0 for number-conserving."""
        return (self.j - self.k) + (self.r - self.s)

    @property
    def conserving(self) -> bool:
        return self.imbalance == 0

    def adjoint(self) -> "MomentSpec":
        """Spec of the Hermitian-conjugate operator string."""
        return MomentSpec(self.k, self.j, self.s, self.r)


def _as_grid(state) -> TwoModeState:
    if isinstance(state, FixedTotalState):
        return state.to_two_mode()
    return state


def apply_ladder(
    state: TwoModeState,
    mode: int,
    kind: str,
) -> TwoModeState:
    """Apply a single creation or annihilation operator to one mode.

    Standard actions ``a|n> = sqrt(n)|n-1>`` and ``a^dag|n> = sqrt(n+1)|n+1>``
    applied entrywise to the grid; creation grows the grid by one row or
    column, so no amplitude is lost.  The result is unnormalized.

    Parameters
    ----------
    mode : int
        1 or 2.
    kind : str
        ``"create"`` or ``"annihilate"``.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    grid = _as_grid(state).amps
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
    a = _as_grid(bra).amps
    b = _as_grid(ket).amps
    rows = max(a.shape[0], b.shape[0])
    cols = max(a.shape[1], b.shape[1])
    if a.shape != (rows, cols):
        a = np.pad(a, ((0, rows - a.shape[0]), (0, cols - a.shape[1])))
    if b.shape != (rows, cols):
        b = np.pad(b, ((0, rows - b.shape[0]), (0, cols - b.shape[1])))
    return complex(np.vdot(a, b))


@functools.lru_cache(maxsize=1024)
def _ladder_plan(total: int, mode1: int, mode2: int):
    """Support, target cells and per-step ``sqrt(n)`` weights of
    ``a1^mode1 a2^mode2`` on the fixed-total basis; shared by every state of
    that M.  ``np.sqrt`` is correctly rounded, so these are the weights
    :func:`apply_ladder` computes.
    """
    n = np.arange(mode1, total - mode2 + 1)
    cells = (n, n - mode1, total - n - mode2)
    steps = tuple(np.sqrt((n - t).astype(float)) for t in range(mode1))
    steps += tuple(np.sqrt((total - n - t).astype(float)) for t in range(mode2))
    for array in cells + steps:
        array.flags.writeable = False
    return cells, steps


def _lowered_grid(state, mode1: int, mode2: int) -> np.ndarray:
    """Grid of ``a1^mode1 a2^mode2 |psi>``, as :func:`apply_ladder` builds it.

    The stored amplitudes are scaled one ladder step at a time by
    ``sqrt(n)``, all mode-1 steps before the mode-2 steps, which is the
    product sequence of repeated :func:`apply_ladder` calls; a complex value
    times a real weight rounds the same in any numpy loop, so each entry is
    the same float.  Only the support is scaled (the anti-diagonal of a
    fixed-total state), and no intermediate state is built or validated.
    The result sits in a zero grid of the state's own shape, so the caller's
    ``np.vdot`` runs the same reduction as :func:`inner_product`.
    """
    if isinstance(state, FixedTotalState):
        m = state.total
        (n, rows, cols), steps = _ladder_plan(m, mode1, mode2)
        vals = state.amplitudes[n]
        for weights in steps:
            vals = vals * weights
        grid = np.zeros((m + 1, m + 1), dtype=complex)
        grid[rows, cols] = vals
        return grid
    vals = state.amps
    for _ in range(mode1):
        vals = vals[1:, :] * np.sqrt(np.arange(1, vals.shape[0], dtype=float))[:, None]
    for _ in range(mode2):
        vals = vals[:, 1:] * np.sqrt(np.arange(1, vals.shape[1], dtype=float))[None, :]
    grid = np.zeros(state.amps.shape, dtype=complex)
    grid[:vals.shape[0], :vals.shape[1]] = vals
    return grid


def moment_oracle(state, spec: MomentSpec) -> complex:
    """Evaluate ``<a1^dag^j a1^k a2^dag^r a2^s>`` by direct operator application.

    The normally ordered string is split at the dagger boundary:
    the daggered factors act leftward on the bra, so the value is
    ``<a1^j a2^r psi | a1^k a2^s psi>``.  Only annihilation operators are
    applied, hence no cutoff growth and no truncation error for finite
    states.

    The value equals, bit for bit, ``inner_product`` of two chains of
    ``apply_ladder(..., "annihilate")`` calls (bra j then r, ket k then s),
    for the reason given in the module docstring.  The route shares nothing
    with the log-factorial weights of the literal series, which keeps it an
    independent check on them.

    A number-changing spec on a :class:`FixedTotalState` returns ``0j``
    without building a grid: the two images lie on different anti-diagonals
    (the total-photon selection rule), so the ``np.vdot`` adds only exact
    zeros to accumulators that start at +0 and gives ``0j`` too.
    """
    if not spec.conserving and isinstance(state, FixedTotalState):
        return 0j
    bra = _lowered_grid(state, spec.j, spec.r)
    if (spec.k, spec.s) == (spec.j, spec.r):
        ket = bra
    else:
        ket = _lowered_grid(state, spec.k, spec.s)
    return complex(np.vdot(bra, ket))
