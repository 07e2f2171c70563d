"""Closed-form moment sums for fixed-total states and the dual-engine machinery.

For a state ``sum_n c_n |n>|M-n>`` the single-mode moments have closed-form
series

    <a1^dag^k a1^l> = sum_n c_n c_(n-l+k) [n! (n-l+k)! / ((n-l)!)^2]^(1/2)
    <a2^dag^k a2^l> = sum_n c_n c_(n+l-k) [(M-n)! (M-n-l+k)! / ((M-n-l)!)^2]^(1/2)

with mode-1 bounds n = l..M (l >= k) or n = l..M-(k-l) (l < k).  Mode 2 holds
M - n photons where mode 1 holds n, so its series is the mode-1 series
mirrored by n -> M - n: the same weights, term for term, taken from the top
index down (bounds n = 0..M-l, or k-l..M-l for l < k).  Taken literally these
sums assign nonzero values to number-changing moments such as <a1>, which the
total-photon selection rule forces to zero; the operator oracle in
:mod:`twomode.fock` therefore disagrees with them off the diagonal.  Both
evaluation routes are kept:

- ``Engine.ORACLE``: every moment via :func:`twomode.fock.moment_oracle`,
  which answers a number-changing moment of a fixed-total state with ``0j``
  by the selection rule and takes every other moment from its Fock grids;
  it takes a :class:`MomentBatch` too.
- ``Engine.LITERAL``: every moment via :func:`literal_moment`, the one entry
  to the series.  A spec ``(j, k, 0, 0)``, the identity ``(0, 0, 0, 0)``
  included, takes the mode-1 series; a spec ``(0, 0, r, s)`` the mode-2
  series; a mixed number-conserving spec the exact one-index cross series
  (identical to the oracle); and a mixed number-changing spec the product of
  its mode-1 and mode-2 series.  ``_single_mode`` is the one home of the
  single-mode rule, read by :func:`literal_moment` and ``compare_engines``.

``compare_engines`` quantifies the disagreement per moment, on one state or
on a :class:`MomentBatch`.

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
:class:`MomentBatch`, the ``(P, M+1)`` stack of P states of one M, and
returns a ``complex128`` array of shape ``(P,)``; the sweeps use it to
compute each moment once per q slice of their p grid.  Row i holds the float
and sign of zero of the call on state i alone:

- the plan and its weights do not depend on the amplitudes;
- the gather and both products are elementwise, and the same numpy loops
  run over a stack as over one row (checked exactly, complex rows included,
  in ``tests/test_moments.py``);
- ``cumsum(axis=-1)`` adds each row in index order, as the 1-D ``cumsum``
  does, and the ``0j`` start is added per row; an empty series gives
  ``+0.0+0.0j`` rows, the single call's ``0j``;
- the product of two single-mode series for a number-changing cross moment
  is ``_cmul``, and ``compare_engines``' gap is ``_cabs`` of the difference
  (a vector complex subtraction is exact in each component).

This module is the one home of the per-row rule, which the witness
reductions of :mod:`twomode.witnesses` follow too.  Elementwise
``+ - * /``, ``sqrt``, ``abs`` of a float and a real scalar times a complex
array round alike as numpy arrays and as scalars, so they run vectorised.
Three operations run one row at a time with the scalar operator, through
``_per_row``, because numpy's loops round them differently (counts on 10^6
normal samples, x86_64 with FMA, numpy 2.4): the square ``x ** 2``
(``_square``) is libm ``pow``, which differs from numpy's ``x*x`` on 865
(``np.power`` with an array exponent: 27,018); complex ``abs`` (``_cabs``;
``np.abs``: 349,610); and the complex product (``_cmul``; numpy's loop:
437,552).  Each takes scalars, or arrays whose last operand comes from the
moments, and gives the scalar result or an array of a fixed dtype, so a
0-row batch keeps its dtype.

A single state's moments are numpy scalars, and the scalar operator runs on
them.  On columns the operator runs on the Python floats and complexes of
each column's ``tolist()``, a scalar operand repeated per row (operands of
unequal length raise ``ValueError``), which costs less than numpy's scalar
types and rounds as they do: both are IEEE doubles; ``x ** 2`` is libm
``pow`` for both (Python takes the power of ``-x`` for a negative x, which
an even power does not change); complex ``abs`` is libm ``hypot`` for both;
and both multiply complex numbers with the same four products and two sums,
none fused.  They part only where a result overflows: a Python square (or
complex ``abs``) raises ``OverflowError`` where numpy's scalar gives inf,
and so that column runs on numpy's scalars instead.  Two sets of tests gate
the rule: ``tests/test_moments.py`` holds each helper on columns to its loop
over numpy scalars bit for bit, 1e-300 to 1e300, signed zeros and
subnormals included, and the row-vs-state tests of ``tests/test_moments.py``
and ``tests/test_witnesses.py`` hold each batch or slice row to the single
state's value.
"""

import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from .fock import FixedTotalState, MomentBatch, MomentSpec, _log_factorials, moment_oracle

__all__ = [
    "Engine",
    "MomentBatch",
    "MomentReport",
    "cached_expectation",
    "compare_engines",
    "expectation",
    "literal_moment",
]


def _per_row(op, dtype):
    """``op`` on scalars, or on 1-d arrays row by row, on the Python scalars
    of ``tolist()`` with a scalar operand repeated, into a ``dtype`` array,
    where numpy's loop rounds differently (module docstring)."""
    def apply(*args):
        if not isinstance(args[-1], np.ndarray):  # the operand from the moments
            return op(*args)
        rows = len(args[-1])
        operands = [arg.tolist() if isinstance(arg, np.ndarray) else [arg] * rows
                    for arg in args]
        if any(len(operand) != rows for operand in operands):
            raise ValueError(f"operands of {[len(operand) for operand in operands]} rows")
        try:
            return np.array(list(map(op, *operands)), dtype=dtype)
        except OverflowError:  # where numpy's scalars give inf (module docstring)
            return np.array([op(*row) for row in np.broadcast(*args)], dtype=dtype)
    return apply


_square = _per_row(lambda x: x ** 2, float)     # libm pow; numpy's array ** 2 is x*x
_cabs = _per_row(abs, float)                    # np.abs rounds complex moduli differently
_cmul = _per_row(lambda a, b: a * b, complex)  # numpy's complex multiply loop may fuse


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


@functools.lru_cache(maxsize=1024)
def _series_plan(kind: str, total: int, exponents: tuple[int, ...]):
    """Index pairs and weights ``(bra, ket, w)`` of one series, in sum order.

    ``kind`` is ``"mode1"`` or ``"mode2"`` (exponents ``(daggers, lowers)``)
    or ``"cross"`` (exponents ``(j, k, r, s)`` of a number-conserving spec).
    With d = k - j = r - s the cross operator maps basis index n to n - d,
    so its expectation is the one-index sum

        sum_n conj(c_(n-d)) c_n * w1(n-d, j) w1(n, k) w2(M-n+d, r) w2(M-n, s)

    where w1/w2 are square roots of falling factorials.
    Weights are scalar ``math.exp`` values, term by term (module docstring),
    of log-factorials from the one table of :mod:`twomode.fock`.
    """
    m = total
    lf = _log_factorials(m)
    bra, ket, w = [], [], []
    if kind in ("mode1", "mode2"):
        k, l = exponents
        # n - l + k stays in 0..M over these bounds
        for n in range(l, (m if l >= k else m - (k - l)) + 1):
            bra.append(n)
            ket.append(n - l + k)
            w.append(math.exp(0.5 * (lf[n] + lf[n - l + k] - 2.0 * lf[n - l])))
        if kind == "mode2":
            # the mode-1 terms mirrored by n -> M - n (module docstring)
            bra, ket, w = [m - n for n in bra[::-1]], [m - n for n in ket[::-1]], w[::-1]
    else:
        j, k, r, s = exponents
        d = k - j
        # j + r = k + s, so n - d - j = n - k and M - (n - d) - r = M - n - s:
        # every factorial argument is non-negative exactly for n = k..M-s
        for n in range(k, m - s + 1):
            left = n - d
            log_w = 0.5 * (
                lf[n] - lf[n - k] + lf[left] - lf[left - j]
                + lf[m - n] - lf[m - n - s] + lf[m - left] - lf[m - left - r]
            )
            bra.append(left)
            ket.append(n)
            w.append(math.exp(log_w))
    plan = (np.array(bra, dtype=np.intp), np.array(ket, dtype=np.intp), np.array(w))
    for array in plan:
        array.flags.writeable = False
    return plan


def _single_mode(spec: MomentSpec):
    """``(kind, exponents)`` of the series that answers a single-mode spec:
    ``("mode1", (j, k))`` when mode 2 is untouched (the identity included),
    ``("mode2", (r, s))`` when mode 1 is, and None for a mixed spec."""
    if spec.r == 0 and spec.s == 0:
        return "mode1", (spec.j, spec.k)
    if spec.j == 0 and spec.k == 0:
        return "mode2", (spec.r, spec.s)
    return None


def _series(state, kind: str, exponents: tuple[int, ...]):
    """Sum ``conj(c[bra]) * c[ket] * w`` over a cached plan, in index order.

    Works on the last axis of the amplitudes, so a :class:`MomentBatch`
    gives an array of one value per row, each the value its row alone gives.
    Adding the ``cumsum`` total to ``0j`` gives a running sum started at
    ``0j``, so even an all-zero sum has the sign of the scalar loop's.  An
    empty series gives ``0j``, or a zero per row of a batch.
    """
    bra, ket, w = _series_plan(kind, state.total, exponents)
    if not len(w):
        if isinstance(state, MomentBatch):
            return np.zeros(len(state.amplitudes), dtype=complex)
        return 0.0 + 0.0j
    c = state.amplitudes
    return (0.0 + 0.0j) + (np.conj(c[..., bra]) * c[..., ket] * w).cumsum(axis=-1)[..., -1]


def literal_moment(state, spec: MomentSpec):
    """Literal-engine value of an arbitrary moment on a fixed-total state.

    Single-mode specs use the closed-form series of their mode (the identity
    the mode-1 series); mixed number-conserving specs use the exact joint
    closed form; mixed number-changing specs factorize into the product of
    the two single-mode series (the only nonzero value the series machinery
    can assign them).  Empty sums (e.g. lowers > M) give 0.
    A :class:`MomentBatch` in place of the state gives a ``complex128``
    array of one value per row, each the value of that row's state.
    """
    if not isinstance(state, (FixedTotalState, MomentBatch)):
        raise TypeError("the literal engine requires a fixed-total state")
    single = _single_mode(spec)
    if single is not None:
        return _series(state, *single)
    if spec.conserving:
        return _series(state, "cross", (spec.j, spec.k, spec.r, spec.s))
    return _cmul(_series(state, "mode1", (spec.j, spec.k)),
                 _series(state, "mode2", (spec.r, spec.s)))


def expectation(state, spec: MomentSpec, engine: Engine):
    """Evaluate a moment under the chosen engine.

    The oracle accepts any state; the literal engine is only defined for
    fixed-total states.  Both take a :class:`MomentBatch` and give an array.
    """
    if engine is Engine.ORACLE:
        return moment_oracle(state, spec)
    return literal_moment(state, spec)


def cached_expectation(table: dict, state, spec: MomentSpec, engine: Engine):
    """``table[spec]``, computed with :func:`expectation` and stored on first
    use.  ``table`` holds the moments of one (state, engine) pair."""
    value = table.get(spec)
    if value is None:
        value = table[spec] = expectation(state, spec, engine)
    return value


class MomentReport(NamedTuple):
    """Side-by-side literal/oracle values for one moment.

    For a :class:`MomentBatch` the two values are ``complex128`` arrays and
    ``abs_discrepancy`` a ``float64`` array, each of shape ``(P,)``; row i
    holds the float and sign of zero of the report on state i alone.
    ``degenerate`` depends only on M and the spec, so it stays one flag.
    """

    spec: MomentSpec
    literal_value: complex
    oracle_value: complex
    abs_discrepancy: float
    degenerate: bool


def compare_engines(state, specs, tables=None) -> list[MomentReport]:
    """Compare both engines on a list of single-mode moment specs.

    Only pure single-mode specs (j,k,0,0) or (0,0,r,s) are accepted, since
    those are the ones the literal series define directly.  The degenerate
    flag marks specs whose series bounds cross (empty sum returned as 0).
    A :class:`MomentBatch` in place of the state gives reports whose values
    are per-row arrays, row i the report of that row's state alone.

    ``tables`` maps each engine to the caller's moment table for this state
    (for a batch, a dict from spec to column): specs missing from the
    literal and the oracle table are computed and stored, the others are
    read back.  An engine without a table in ``tables`` gets a new one there.
    Without ``tables`` every moment is computed afresh.
    """
    if tables is None:
        tables = {}
    literal = tables.setdefault(Engine.LITERAL, {})
    oracle = tables.setdefault(Engine.ORACLE, {})
    reports = []
    for spec in specs:
        single = _single_mode(spec)
        if single is None:
            raise ValueError(f"compare_engines expects single-mode specs, got {spec}")
        lit = cached_expectation(literal, state, spec, Engine.LITERAL)
        ora = cached_expectation(oracle, state, spec, Engine.ORACLE)
        degenerate = not len(_series_plan(single[0], state.total, single[1])[2])
        reports.append(MomentReport(spec, lit, ora, _cabs(lit - ora), degenerate))
    return reports
