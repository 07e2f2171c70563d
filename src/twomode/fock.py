"""Finite-dimensional two-mode bosonic Fock states and the ladder-operator moment oracle.

Two state containers are provided:

- ``TwoModeState``: a complex amplitude grid ``amps[n1, n2]`` on a truncated
  two-mode Fock lattice.
- ``FixedTotalState``: an amplitude vector over the fixed-total-photon basis
  ``|n>|M-n>``.

``moment_oracle`` evaluates an arbitrary normally ordered moment
``<a1^dag^j a1^k a2^dag^r a2^s>`` by splitting the operator string at the
dagger boundary and taking the inner product of two annihilation-only images
of the state.  No creation operators are ever applied, so the result is exact
up to floating-point rounding for any finite state; no dense operator
matrices are built.

The oracle scales the stored amplitudes by ``sqrt(n)`` one ladder step at a
time, then reduces the two images with one grid ``np.vdot``.  Its test
reference is a chain of single ladder operators on validated grid states and
a zero-padded inner product (``tests/conftest.py``), and it equals that
chain bit for bit: the engine discrepancy report of ``twomode figures``
holds rounding residue (up to about 1e-6), and its values reproduce only if
every product and the BLAS reduction layout of the sum stay the same.

``moment_oracle`` also takes a :class:`MomentBatch`, the ``(P, M+1)`` stack
of P fixed-total states of one M, and returns a ``complex128`` array of
shape ``(P,)``: row i holds the float and sign of zero of the call on state
i alone.  A single fixed-total state goes through the same code as a
one-row batch.  The support of the whole stack is scaled by the cached
ladder weights at once (a complex value times a real weight rounds the same
in any numpy loop; the per-row rule in :mod:`twomode.moments` lists which
operations do not), then each row is put into one reused ``(M+1, M+1)``
image per distinct side and reduced by the grid ``np.vdot``: only one image
per side is ever allocated, not one per row.  Each image is filled through
one flat cell index, and the two images of a conserving spec share it:
both lie on the same anti-diagonal.  A number-changing spec gives zeros
without any image: by the total-photon selection rule the two images lie
on different anti-diagonals, and the ``np.vdot`` would add only exact zeros
to accumulators that start at +0.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FixedTotalState",
    "MomentBatch",
    "MomentSpec",
    "TwoModeState",
    "moment_oracle",
]

NORMALIZATION_TOL = 1e-10


_LOG_FACTORIALS = (0.0,)


def _log_factorials(total: int) -> tuple[float, ...]:
    """``ln(n!)`` as ``math.lgamma(n + 1)`` for n = 0 up to at least
    ``total``: the only source of log-factorials for the series weights and
    the state families.  There is one table, rebuilt longer when a larger n
    is asked for, so a sweep whose states differ in size (a ``coherent``
    cutoff changes with p) holds one table, not one per size.

    Exact 0.0 for n in {0, 1}; relative error at the lgamma level (well
    below 1e-12) for n up to several hundred.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= total:
        # the caller gets the table built for it, even if another thread
        # stores a shorter one meanwhile
        table = _LOG_FACTORIALS = tuple(math.lgamma(n + 1) for n in range(total + 1))
    return table


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Amplitude grid ``amps[n1, n2]`` with 0 <= n_i <= cutoff_i.

    The raw constructor only checks finiteness; a state constructor from
    :mod:`twomode.states` gives unit-norm states.  Unnormalized grids are
    allowed: a ladder operator produces one.
    """

    # declared here, not by slots=True, which builds a second class that the
    # frozen __setattr__ does not name: assigning a non-field then raised
    # TypeError instead of FrozenInstanceError
    __slots__ = ("amps",)
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError(f"amplitude grid must be 2-d, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitude grid contains non-finite entries")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which validates
        # and freezes a fresh grid
        return type(self), (self.amps,)


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

    __slots__ = ("total", "amplitudes")  # as TwoModeState's
    total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.total < 0:
            raise ValueError("total photon number must be non-negative")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.total + 1,):
            raise ValueError(
                f"expected {self.total + 1} amplitudes, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes contain non-finite entries")
        # np.linalg.norm's own sum for a complex vector, without its wrapper
        re, im = amps.real, amps.imag
        nrm = np.sqrt(re.dot(re) + im.dot(im))
        if abs(nrm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state not normalized: |c| = {nrm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def __reduce__(self):  # as TwoModeState's
        return type(self), (self.total, self.amplitudes)


class MomentBatch(NamedTuple):
    """A stack of fixed-total states that share the total photon number M.

    Row i of ``amplitudes``, shape ``(P, M+1)``, holds the ``c_n`` of state
    i.  :func:`moment_oracle`, :func:`twomode.moments.literal_moment` and the
    series functions take a batch in place of a state and return a
    ``complex128`` array of shape ``(P,)``, row i the value state i alone
    gives: same float, same sign of zero.
    """

    total: int
    amplitudes: np.ndarray

    @classmethod
    def stack(cls, states) -> "MomentBatch":
        """Stack fixed-total states of one M, in order."""
        totals = {state.total for state in states}
        if len(totals) != 1:
            raise ValueError(f"a batch needs states of one total, got {sorted(totals)}")
        return cls(totals.pop(), np.stack([state.amplitudes for state in states]))


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


@functools.lru_cache(maxsize=1024)
def _ladder_plan(total: int, mode1: int, mode2: int):
    """Support, target cells and per-step ``sqrt(n)`` weights of
    ``a1^mode1 a2^mode2`` on the fixed-total basis; shared by every state of
    that M.  ``np.sqrt`` is correctly rounded, so these are the weights a
    single ladder operator of the test reference chain applies.

    ``cells`` holds the flat index of cell ``(n - mode1, M - n - mode2)`` in
    the ``(M+1, M+1)`` image.  It depends on ``mode1 + mode2`` alone, so the
    bra and ket of a number-conserving spec (j + r = k + s) fill the same
    cells.
    """
    n = np.arange(mode1, total - mode2 + 1)
    cells = (n - mode1) * total + (total - mode1 - mode2)
    steps = tuple(np.sqrt((n - t).astype(float)) for t in range(mode1))
    steps += tuple(np.sqrt((total - n - t).astype(float)) for t in range(mode2))
    for array in (n, cells) + steps:
        array.flags.writeable = False
    return n, cells, steps


def _lowered_support(amplitudes: np.ndarray, total: int, mode1: int, mode2: int):
    """The support values of ``a1^mode1 a2^mode2`` on fixed-total amplitudes,
    scaled along the last axis, and the flat image cells they go to.

    The amplitudes are scaled one ladder step at a time by ``sqrt(n)``, all
    mode-1 steps before the mode-2 steps, which is the product sequence of
    the test reference's chain of single ladder operators; a complex value
    times a real weight rounds the same in any numpy loop, so each entry is
    the same float for a ``(P, M+1)`` stack as for one state.
    """
    n, cells, steps = _ladder_plan(total, mode1, mode2)
    vals = amplitudes[..., n]
    for weights in steps:
        vals = vals * weights
    return vals, cells


def _lowered_grid(state: TwoModeState, mode1: int, mode2: int) -> np.ndarray:
    """Grid of ``a1^mode1 a2^mode2 |psi>`` for a grid state, as the test
    reference's chain of single ladder operators builds it.

    No intermediate state is built or validated.  The result sits in a zero
    grid of the state's own shape, so the caller's ``np.vdot`` runs the same
    reduction as the reference's inner product.
    """
    vals = state.amps
    for _ in range(mode1):
        vals = vals[1:, :] * np.sqrt(np.arange(1, vals.shape[0], dtype=float))[:, None]
    for _ in range(mode2):
        vals = vals[:, 1:] * np.sqrt(np.arange(1, vals.shape[1], dtype=float))[None, :]
    grid = np.zeros(state.amps.shape, dtype=complex)
    grid[:vals.shape[0], :vals.shape[1]] = vals
    return grid


def _batch_oracle(batch: MomentBatch, spec: MomentSpec) -> np.ndarray:
    """:func:`moment_oracle` on each row of a batch (module docstring)."""
    values = np.zeros(len(batch.amplitudes), dtype=complex)
    if not spec.conserving:
        return values
    m = batch.total
    # bra side first; a diagonal spec has one side and one image
    images = [(np.zeros((m + 1, m + 1), dtype=complex),
               *_lowered_support(batch.amplitudes, m, mode1, mode2))
              for mode1, mode2 in dict.fromkeys([(spec.j, spec.r), (spec.k, spec.s)])]
    bra, ket = images[0][0], images[-1][0]
    for row in range(len(values)):
        # every row fills the same cells, so the rest of each image stays zero
        for image, vals, cells in images:
            image.put(cells, vals[row])
        values[row] = np.vdot(bra, ket)
    return values


def moment_oracle(state, spec: MomentSpec):
    """Evaluate ``<a1^dag^j a1^k a2^dag^r a2^s>`` by direct operator application.

    The normally ordered string is split at the dagger boundary:
    the daggered factors act leftward on the bra, so the value is
    ``<a1^j a2^r psi | a1^k a2^s psi>``.  Only annihilation operators are
    applied, hence no cutoff growth and no truncation error for finite
    states.

    The value equals, bit for bit, the inner product of two chains of single
    annihilation operators (bra j then r, ket k then s), the test reference
    in ``tests/conftest.py``, for the reason given in the module docstring.
    The route shares nothing with the log-factorial weights of the literal
    series, which keeps it an independent check on them.

    A :class:`MomentBatch` in place of the state gives a ``complex128``
    array with one value per row, each the value of that row's state.  A
    :class:`FixedTotalState` is reduced as a one-row batch, so a
    number-changing spec gives ``0j`` without building a grid.
    """
    if isinstance(state, MomentBatch):
        return _batch_oracle(state, spec)
    if isinstance(state, FixedTotalState):
        return complex(_batch_oracle(MomentBatch(state.total, state.amplitudes[None]), spec)[0])
    bra = _lowered_grid(state, spec.j, spec.r)
    if (spec.k, spec.s) == (spec.j, spec.r):
        ket = bra
    else:
        ket = _lowered_grid(state, spec.k, spec.s)
    return complex(np.vdot(bra, ket))
