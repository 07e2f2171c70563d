"""Closed-form moment sums for fixed-total states and the dual-engine machinery.

For a state ``sum_n c_n |n>|M-n>`` the single-mode moments have closed-form
series

    <a1^dag^k a1^l> = sum_n c_n c_(n-l+k) [n! (n-l+k)! / ((n-l)!)^2]^(1/2)
    <a2^dag^k a2^l> = sum_n c_n c_(n+l-k) [(M-n)! (M-n-l+k)! / ((M-n-l)!)^2]^(1/2)

with mode-1 bounds n = l..M (l >= k) or n = l..M-(k-l) (l < k), and mode-2
bounds n = 0..M-l (l >= k) or n = k-l..M-l (l < k).  Taken literally these
sums assign nonzero values to number-changing moments such as <a1>, which the
total-photon selection rule forces to zero; the operator oracle in
:mod:`twomode.fock` therefore disagrees with them off the diagonal.  Both
evaluation routes are kept:

- ``Engine.ORACLE``: every moment via :func:`twomode.fock.moment_oracle`,
  which answers a number-changing moment of a fixed-total state with ``0j``
  by the selection rule and takes every other moment from its Fock grids.
- ``Engine.LITERAL``: single-mode moments from the closed-form series;
  cross-mode number-conserving moments from the exact one-index closed form
  (identical to the oracle); cross-mode number-changing moments factorized
  into a product of the two single-mode series.

``compare_engines`` quantifies the disagreement per moment.

All three series run through one vectorised kernel, ``_series``: a plan of
(bra index, ket index, weight) per (M, exponents), cached, and a gather of
``conj(c[bra]) * c[ket] * w`` summed in index order.  The discrepancy report
of ``twomode figures`` holds differences at the rounding level (up to about
1e-6), so its values are reproducible only if every float of the series is.
Three choices keep them so:

- weights come from the scalar ``math.exp`` of the log-factorial expression
  of each term (``np.exp`` rounds differently on a few percent of inputs),
  computed once per plan, which is why plans are cached;
- terms are added one after the other with ``cumsum``, in the order of the
  scalar loop; ``np.sum`` adds pairwise and moves the last bits;
- a complex amplitude times a real weight rounds the same in any loop.

For real amplitudes, which every state family in :mod:`twomode.states`
produces, the result is the scalar loop's float for float.  For complex
amplitudes numpy's vector complex multiply may fuse a multiply-add where the
scalar product does not, so ``conj(c[bra]) * c[ket]`` can differ from a
scalar loop in the last bit on CPUs with FMA.

The kernel works on the last axis, so the literal engine also takes a
:class:`MomentBatch`, the ``(P, M+1)`` stack of P states of one M, and gives
one value per row; the sweeps use it to compute each moment once per q slice
of their p grid.  Row i is the value, type (``np.complex128``, or Python
``0j`` for an empty series) and sign of zero of the call on state i alone:

- the plan and its weights do not depend on the amplitudes;
- the gather and both products are elementwise, and the same numpy loops
  run over a stack as over one row (checked exactly, complex rows included,
  in ``tests/test_moments.py``);
- ``cumsum(axis=-1)`` adds each row in index order, as the 1-D ``cumsum``
  does, and the ``0j`` start is added per row;
- the product of two single-mode series for a number-changing cross moment
  is taken row by row with the scalar ``*``: numpy's vector complex
  multiply gives other bits on complex amplitudes.
"""

import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from .fock import FixedTotalState, MomentSpec, log_factorial, moment_oracle

__all__ = [
    "Engine",
    "MomentBatch",
    "MomentReport",
    "compare_engines",
    "cross_moment",
    "expectation",
    "literal_moment",
    "mode1_moment",
    "mode1_sum_empty",
    "mode2_moment",
    "mode2_sum_empty",
]


class Engine(enum.Enum):
    """Moment evaluation route."""

    LITERAL = "literal"
    ORACLE = "oracle"

    @classmethod
    def parse(cls, text: str) -> "Engine":
        key = text.strip().lower()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown engine {text!r}; expected 'literal' or 'oracle'")


def _half_log_ratio(a: int, b: int, c: int) -> float:
    """0.5 * ln(a! b! / (c!)^2); caller guarantees non-negative arguments."""
    return 0.5 * (log_factorial(a) + log_factorial(b) - 2.0 * log_factorial(c))


def mode1_sum_empty(total: int, daggers: int, lowers: int) -> bool:
    """True when the mode-1 series has crossing bounds (empty sum)."""
    hi = total if lowers >= daggers else total - (daggers - lowers)
    return lowers > hi


def mode2_sum_empty(total: int, daggers: int, lowers: int) -> bool:
    """True when the mode-2 series has crossing bounds (empty sum)."""
    lo = 0 if lowers >= daggers else daggers - lowers
    return lo > total - lowers


class MomentBatch(NamedTuple):
    """A stack of fixed-total states that share the total photon number M.

    Row i of ``amplitudes``, shape ``(P, M+1)``, holds the ``c_n`` of state
    i.  :func:`literal_moment` and the series functions take a batch in
    place of a state and return a list with one value per row, each the
    value the state alone gives: same float, same type, same sign of zero.
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


@functools.lru_cache(maxsize=1024)
def _series_plan(kind: str, total: int, exponents: tuple[int, ...]):
    """Index pairs and weights ``(bra, ket, w)`` of one series, in sum order.

    ``kind`` is ``"mode1"`` or ``"mode2"`` (exponents ``(daggers, lowers)``)
    or ``"cross"`` (exponents ``(j, k, r, s)`` of a number-conserving spec).
    Weights are scalar ``math.exp`` values, term by term (module docstring).
    """
    m = total
    bra, ket, w = [], [], []
    if kind == "mode1":
        k, l = exponents
        hi = m if l >= k else m - (k - l)
        for n in range(l, hi + 1):
            partner = n - l + k
            if partner < 0 or partner > m:
                continue
            bra.append(n)
            ket.append(partner)
            w.append(math.exp(_half_log_ratio(n, partner, n - l)))
    elif kind == "mode2":
        k, l = exponents
        lo = 0 if l >= k else k - l
        for n in range(lo, m - l + 1):
            partner = n + l - k
            if partner < 0 or partner > m:
                continue
            bra.append(n)
            ket.append(partner)
            w.append(math.exp(_half_log_ratio(m - n, m - n - l + k, m - n - l)))
    else:
        j, k, r, s = exponents
        d = k - j
        for n in range(m + 1):
            left = n - d
            if left < 0 or left > m:
                continue
            if n - k < 0 or left - j < 0:
                continue
            if m - n - s < 0 or m - left - r < 0:
                continue
            log_w = 0.5 * (
                log_factorial(n) - log_factorial(n - k)
                + log_factorial(left) - log_factorial(left - j)
                + log_factorial(m - n) - log_factorial(m - n - s)
                + log_factorial(m - left) - log_factorial(m - left - r)
            )
            bra.append(left)
            ket.append(n)
            w.append(math.exp(log_w))
    plan = (np.array(bra, dtype=np.intp), np.array(ket, dtype=np.intp), np.array(w))
    for array in plan:
        array.flags.writeable = False
    return plan


def _zero(state):
    """The value of an empty series: ``0j``, or a list of one per row of a batch."""
    if isinstance(state, MomentBatch):
        return [0.0 + 0.0j] * len(state.amplitudes)
    return 0.0 + 0.0j


def _series(state, kind: str, exponents: tuple[int, ...]):
    """Sum ``conj(c[bra]) * c[ket] * w`` over a cached plan, in index order.

    Works on the last axis of the amplitudes, so a :class:`MomentBatch`
    gives a list of one value per row, each the value its row alone gives.
    Adding the ``cumsum`` total to ``0j`` gives a running sum started at
    ``0j``, so even an all-zero sum has the sign of the scalar loop's.
    """
    bra, ket, w = _series_plan(kind, state.total, exponents)
    if not len(w):
        return _zero(state)
    c = state.amplitudes
    sums = (0.0 + 0.0j) + (np.conj(c[..., bra]) * c[..., ket] * w).cumsum(axis=-1)[..., -1]
    return list(sums) if isinstance(state, MomentBatch) else sums


def mode1_moment(state, daggers: int, lowers: int):
    """Closed-form series for ``<a1^dag^daggers a1^lowers>``.

    Empty sums (e.g. lowers > M) return 0; terms whose factorial arguments
    would be negative are zero by convention.
    """
    if daggers < 0 or lowers < 0:
        raise ValueError("exponents must be non-negative")
    return _series(state, "mode1", (daggers, lowers))


def mode2_moment(state, daggers: int, lowers: int):
    """Closed-form series for ``<a2^dag^daggers a2^lowers>`` (mirror of mode 1)."""
    if daggers < 0 or lowers < 0:
        raise ValueError("exponents must be non-negative")
    return _series(state, "mode2", (daggers, lowers))


def cross_moment(state, spec: MomentSpec):
    """Exact closed form for a number-conserving moment on a fixed-total state.

    With d = k - j = r - s the operator maps basis index n to n - d, so the
    expectation collapses to a single sum

        sum_n conj(c_(n-d)) c_n * w1(n-d, j) w1(n, k) w2(M-n+d, r) w2(M-n, s)

    where w1/w2 are square roots of falling factorials.  Number-changing
    specs return exactly 0 (orthogonal total-photon sectors).
    """
    if not spec.conserving:
        return _zero(state)
    return _series(state, "cross", (spec.j, spec.k, spec.r, spec.s))


def literal_moment(state, spec: MomentSpec):
    """Literal-engine value of an arbitrary moment on a fixed-total state.

    Pure single-mode specs use the closed-form series of their mode; mixed
    number-conserving specs use the exact joint closed form; mixed
    number-changing specs factorize into the product of the two single-mode
    series (the only nonzero value the series machinery can assign them).
    A :class:`MomentBatch` in place of the state gives a list of one value
    per row, each the value of that row's state.
    """
    if not isinstance(state, (FixedTotalState, MomentBatch)):
        raise TypeError("the literal engine requires a fixed-total state")
    pure1 = spec.r == 0 and spec.s == 0
    pure2 = spec.j == 0 and spec.k == 0
    if pure1:
        return mode1_moment(state, spec.j, spec.k)
    if pure2:
        return mode2_moment(state, spec.r, spec.s)
    if spec.conserving:
        return cross_moment(state, spec)
    first = mode1_moment(state, spec.j, spec.k)
    second = mode2_moment(state, spec.r, spec.s)
    if isinstance(state, MomentBatch):
        # scalar products, row by row, as the states alone multiply them
        return [a * b for a, b in zip(first, second)]
    return first * second


def expectation(state, spec: MomentSpec, engine: Engine) -> complex:
    """Evaluate a moment under the chosen engine.

    The oracle accepts any state; the literal engine is only defined for
    fixed-total states.
    """
    if engine is Engine.ORACLE:
        return moment_oracle(state, spec)
    return literal_moment(state, spec)


class MomentReport(NamedTuple):
    """Side-by-side literal/oracle values for one moment."""

    spec: MomentSpec
    literal_value: complex
    oracle_value: complex
    abs_discrepancy: float
    degenerate: bool


def compare_engines(state: FixedTotalState, specs, tables=None) -> list[MomentReport]:
    """Compare both engines on a list of single-mode moment specs.

    Only pure single-mode specs (j,k,0,0) or (0,0,r,s) are accepted, since
    those are the ones the literal series define directly.  The degenerate
    flag marks specs whose series bounds cross (empty sum returned as 0).

    ``tables`` maps each engine to the caller's moment table for this state,
    the table :func:`twomode.witnesses.evaluate` takes: specs missing from
    the literal and the oracle table are computed and stored, the others are
    read back.  An engine without a table in ``tables`` gets a new one there.
    Without ``tables`` every moment is computed afresh.
    """
    if tables is None:
        tables = {}
    literal = tables.setdefault(Engine.LITERAL, {})
    oracle = tables.setdefault(Engine.ORACLE, {})
    reports = []
    for spec in specs:
        pure1 = spec.r == 0 and spec.s == 0
        pure2 = spec.j == 0 and spec.k == 0
        if not (pure1 or pure2):
            raise ValueError(f"compare_engines expects single-mode specs, got {spec}")
        lit = literal.get(spec)
        if lit is None:
            lit = literal[spec] = literal_moment(state, spec)
        ora = oracle.get(spec)
        if ora is None:
            ora = oracle[spec] = moment_oracle(state, spec)
        if pure1:
            degenerate = mode1_sum_empty(state.total, spec.j, spec.k)
        else:
            degenerate = mode2_sum_empty(state.total, spec.r, spec.s)
        reports.append(MomentReport(spec, lit, ora, abs(lit - ora), degenerate))
    return reports
