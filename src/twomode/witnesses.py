"""Nonclassicality and entanglement witnesses built from two-mode moments.

Every witness is declared as data: the tuple of normally ordered moments it
needs (:attr:`Witness.specs`, built once per witness) and a pure reduction
that turns their values into the witness value and its scale.  Antinormally
ordered building blocks are converted uniformly via
``<a a^dag> = <a^dag a> + 1`` and ``<a1 a1^dag a2 a2^dag> = <(n1+1)(n2+1)>``.

:func:`evaluate` fills a moment table, a dict from
:class:`~twomode.fock.MomentSpec` to value held by the caller, with the specs
the witness needs that are not in it yet, each through
:func:`~twomode.moments.expectation`, and then reduces.  A table belongs to
one (state, engine) pair, so the witnesses evaluated with it share their
moments; a moment's value does not depend on which witness asked first.

:func:`reduce_columns` runs the same reductions on the moment columns of a
slice of states, which the sweeps' literal tables use to reduce each witness
once per slice; row i is the per-state result bit for bit.  Elementwise
``+ - * /``, ``sqrt``, ``abs`` of a float and a real scalar times a complex
array round alike as numpy arrays and as scalars, so they run vectorised.
Three operations run one row at a time with the scalar operator, because
numpy's loops round them differently (counts on 10^6 normal samples, x86_64
with FMA, numpy 2.4): the square ``x ** 2`` is libm ``pow``, which differs
from numpy's ``x*x`` on 865 (``np.power`` with an array exponent: 27,018);
complex ``abs`` (``np.abs``: 349,610); and the complex product (numpy's
loop: 437,552).

Sign convention: a witness certifies its nonclassical property when its value
is strictly negative.  "Strictly" is enforced with a roundoff-aware guard:
``value < -1e-12 * max(1, scale)`` where ``scale`` collects the magnitudes of
the additive terms that formed the value.  Boundary states (vacuum, coherent
products, and for some witnesses the whole q = 0 binomial family) sit exactly
at zero, and the guard keeps accumulated rounding from flickering them into
false positives.

When a witness's denominator degenerates (for example antibunching on the
vacuum) the result carries ``status="degenerate"`` and a NaN value instead of
raising or returning an infinity.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FixedTotalState, MomentSpec
from .moments import Engine, expectation

__all__ = [
    "DEFAULT_THETAS",
    "EPR_FORMS",
    "STRICT_ZERO",
    "Witness",
    "WitnessResult",
    "cauchy_schwarz",
    "evaluate",
    "hoa",
    "reduce_columns",
    "epr",
    "quad_squeeze",
    "sum_squeeze",
    "sv",
    "su11",
]

STRICT_ZERO = 1e-12
DEGENERATE_DENOMINATOR = 1e-14

DEFAULT_THETAS = (0.0, math.pi / 6, math.pi / 3, math.pi)
EPR_FORMS = ("literal", "variance")

_KINDS = ("hoa", "quadx", "quady", "sum", "sv", "epr", "su11", "cs")

# the moments shared between witnesses; MomentSpec(j, k, r, s) stands for
# <a1^dag^j a1^k a2^dag^r a2^s>
_N1 = MomentSpec(1, 1, 0, 0)
_N2 = MomentSpec(0, 0, 1, 1)
_N1N2 = MomentSpec(1, 1, 1, 1)
_PAIR = MomentSpec(0, 1, 0, 1)  # <a1 a2>
_QUADRATURE = (
    _N1, _N2,
    MomentSpec(0, 1, 0, 0), MomentSpec(0, 0, 0, 1),  # <a1>, <a2>
    MomentSpec(0, 2, 0, 0), MomentSpec(0, 0, 0, 2),  # <a1^2>, <a2^2>
    MomentSpec(0, 1, 1, 0),                          # <a1 a2^dag>
    _PAIR,
)

# the moments each witness kind reduces, in the order its reduction takes them
_SPECS = {
    "quadx": _QUADRATURE,
    "quady": _QUADRATURE,
    "epr": _QUADRATURE,
    "sum": (_N1, _N2, _N1N2, MomentSpec(0, 2, 0, 2), _PAIR),
    "sv": (_N1, _N2, MomentSpec(1, 0, 1, 0), _PAIR),
    "su11": (_N1, _N2, _N1N2, MomentSpec(0, 2, 2, 0), MomentSpec(1, 0, 0, 1)),
    "cs": (MomentSpec(2, 2, 0, 0), MomentSpec(0, 0, 2, 2), _N1N2),
}


@dataclass(frozen=True)
class Witness:
    """A witness kind plus its parameters (when it has any).

    ``hoa`` carries orders (l, m) with l >= m >= 1, ``sum`` carries the
    phase angle theta, ``epr`` carries the form ("literal" or "variance").
    """

    kind: str
    l: int | None = None
    m: int | None = None
    theta: float | None = None
    form: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.kind == "hoa":
            if self.l is None or self.m is None:
                raise ValueError("hoa requires orders l and m")
            if not (self.l >= self.m >= 1):
                raise ValueError(f"hoa requires l >= m >= 1, got l={self.l}, m={self.m}")
        if self.kind == "sum" and self.theta is None:
            raise ValueError("sum requires the angle theta")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.kind == "epr" and self.form not in EPR_FORMS:
            raise ValueError(f"epr form must be one of {EPR_FORMS}, got {self.form!r}")
        # hashed once: witnesses key the sweeps' per-slice results
        object.__setattr__(self, "_hash", hash((self.kind, self.l, self.m, self.theta, self.form)))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def specs(self) -> tuple[MomentSpec, ...]:
        """The moments the witness reduces, in the order its reduction takes them."""
        if self.kind == "hoa":
            l, m = self.l, self.m
            return (
                MomentSpec(l + 1, l + 1, m - 1, m - 1), MomentSpec(m - 1, m - 1, l + 1, l + 1),
                MomentSpec(l, l, m, m), MomentSpec(m, m, l, l),
            )
        return _SPECS[self.kind]

    def label(self) -> str:
        if self.kind == "hoa":
            return f"hoa:{self.l},{self.m}"
        if self.kind == "sum":
            return f"sum:{self.theta!r}"
        if self.kind == "epr":
            return f"epr:{self.form}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> list["Witness"]:
        """Parse a witness token such as ``hoa:9,1``, ``sum:0.5`` or ``epr``.

        Returns a list because a bare ``sum`` expands to the default theta
        set.  A bare ``hoa`` means orders (1, 1); a bare ``epr`` means the
        literal form.
        """
        head, _, arg = text.strip().lower().partition(":")
        aliases = {"cauchy": "cs", "cauchy-schwarz": "cs", "sumsqueeze": "sum"}
        head = aliases.get(head, head)
        if head == "hoa":
            if arg:
                try:
                    l_txt, m_txt = arg.split(",")
                    return [cls("hoa", l=int(l_txt), m=int(m_txt))]
                except ValueError as exc:
                    raise ValueError(f"cannot parse hoa orders from {text!r}") from exc
            return [cls("hoa", l=1, m=1)]
        if head == "sum":
            if arg:
                return [cls("sum", theta=float(arg))]
            return [cls("sum", theta=t) for t in DEFAULT_THETAS]
        if head == "epr":
            return [cls("epr", form=arg or "literal")]
        if head in _KINDS and not arg:
            return [cls(head)]
        raise ValueError(f"cannot parse witness {text!r}")


class WitnessResult(NamedTuple):
    """One witness evaluation: value, classification flag and provenance."""

    witness: Witness
    value: float
    nonclassical: bool
    engine: Engine
    status: str = "ok"
    scale: float = 1.0


def _resolve_engine(state, engine: Engine | None) -> Engine:
    if engine is None:
        return Engine.LITERAL if isinstance(state, FixedTotalState) else Engine.ORACLE
    if engine is Engine.LITERAL and not isinstance(state, FixedTotalState):
        raise TypeError("the literal engine requires a fixed-total state")
    return engine


# --- exact helpers: one reduction serves scalars and columns (module doc) ---

def _per_row(op):
    """``op`` on scalars, or on arrays row by row, where numpy's loop rounds differently."""
    def apply(*args):
        if not isinstance(args[-1], np.ndarray):  # the operand from the moments
            return op(*args)
        return np.array([op(*row) for row in np.broadcast(*args)])
    return apply


_square = _per_row(lambda x: x ** 2)  # libm pow; numpy's array ** 2 is x*x
_cabs = _per_row(abs)                 # np.abs rounds complex moduli differently
_cmul = _per_row(lambda a, b: a * b)  # numpy's complex multiply loop may fuse


# --- reductions: (witness, *moments in spec order) -> (value, scale, degenerate).
# A degenerate denominator becomes 1.0 so that the division cannot fail; on
# scalars np.where gives a 0-d array, whose arithmetic gives the same floats.

def _hoa(witness, num1, num2, den1, den2):
    num = num1.real + num2.real
    den = den1.real + den2.real
    degenerate = den <= DEGENERATE_DENOMINATOR
    ratio = num / np.where(degenerate, 1.0, den)
    return ratio - 1.0, abs(ratio) + 1.0, degenerate


def _quadrature(witness, n1, n2, a1, a2, a1sq, a2sq, cross_mixed, cross_lower):
    anti = n1.real + n2.real + 2.0  # <a1 a1^dag + a2 a2^dag>
    if witness.kind == "quadx":
        term = (a1sq + a2sq + 2.0 * (cross_mixed + cross_lower)).real
        mean = 2.0 * _square((a1 + a2).real)
    else:
        term = -(a1sq + a2sq - 2.0 * (cross_mixed - cross_lower)).real
        mean = 2.0 * _square((a1 + a2).imag)
    return term + anti - mean - 2.0, abs(term) + anti + mean + 2.0, False


def _sum(witness, n1, n2, n1n2, pair_sq, pair):
    n1, n2 = n1.real, n2.real
    anti_pair = n1n2.real + n1 + n2 + 1.0  # <(n1+1)(n2+1)>
    den = n1 + n2 + 1.0
    degenerate = den <= DEGENERATE_DENOMINATOR
    den = np.where(degenerate, 1.0, den)
    theta = witness.theta
    phase2 = complex(math.cos(2 * theta), -math.sin(2 * theta))
    phase1 = complex(math.cos(theta), -math.sin(theta))
    t_anti = 2.0 * anti_pair
    t_sq = 2.0 * _cmul(phase2, pair_sq).real
    t_mean = 4.0 * _square(_cmul(phase1, pair).real)
    return ((t_anti + t_sq - t_mean) / den - 2.0,
            (abs(t_anti) + abs(t_sq) + t_mean) / den + 2.0, degenerate)


def _sv(witness, n1, n2, raise_pair, lower_pair):
    t_diag = (n1.real - 0.5) * (n2.real - 0.5)
    t_cross = _cmul(raise_pair, lower_pair).real
    return t_diag - t_cross, abs(t_diag) + abs(t_cross), False


def _epr(witness, n1, n2, a1, a2, a1sq, a2sq, cross_mixed, cross_lower):
    n1, n2 = n1.real, n2.real
    t1 = (a1sq + a2sq + 2.0 * cross_lower + 2.0 * cross_mixed).real
    t2 = (-a1sq - a2sq + 2.0 * cross_lower - 2.0 * cross_mixed).real
    re_sum = _square((a1 + a2).real)
    im_diff = _square((a1 - a2).imag)
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
    return i1 * i2 - 1.0, s1 * s2 + 1.0, False


def _su11(witness, n1, n2, n1n2, twist, swap):
    n1, n2 = n1.real, n2.real
    anti_pair = n1n2.real + n1 + n2 + 1.0
    base = 2.0 * anti_pair - (n1 + 1.0) - (n2 + 1.0)
    twist = 2.0 * twist.real  # 2 Re<a1^2 a2^dag^2>
    swap_re_sq, swap_im_sq = _square(swap.real), _square(swap.imag)
    bracket_plus = base + twist - 4.0 * swap_re_sq
    bracket_minus = base - twist - 4.0 * swap_im_sq
    imbalance_sq = _square(abs(n1 - n2))
    value = bracket_plus * bracket_minus - imbalance_sq
    s_base = 2.0 * abs(anti_pair) + n1 + n2 + 2.0 + abs(twist)
    scale = (s_base + 4.0 * swap_re_sq) * (s_base + 4.0 * swap_im_sq) + imbalance_sq
    return value, scale, False


def _cs(witness, auto1, auto2, cross):
    auto1, auto2 = auto1.real, auto2.real
    # max(auto, 0.0), which keeps NaN and -0.0
    geo = np.sqrt(np.where(auto1 < 0.0, 0.0, auto1) * np.where(auto2 < 0.0, 0.0, auto2))
    cross = _cabs(cross)
    return geo - cross, geo + cross, False


_REDUCTIONS = {
    "hoa": _hoa,
    "quadx": _quadrature,
    "quady": _quadrature,
    "sum": _sum,
    "sv": _sv,
    "epr": _epr,
    "su11": _su11,
    "cs": _cs,
}


def _nonclassical(value, scale):  # a NaN scale reads as 1.0, as in max(1.0, scale)
    return value < -STRICT_ZERO * np.where(scale > 1.0, scale, 1.0)


def evaluate(
    state, witness: Witness, engine: Engine | None = None, table: dict | None = None
) -> WitnessResult:
    """Evaluate a witness on a state.

    ``table`` is the caller's moment table for this (state, engine) pair:
    the specs of ``witness`` missing from it are computed and stored, the
    others are read back.  Pass the same dict for every witness of one state
    and engine to compute each distinct moment once; never share it between
    states or engines.  Without a table the moments are computed afresh.
    Any object whose ``get(spec)`` returns the value or None serves as a
    table; one with a ``result(witness)`` method answers with that instead.
    """
    engine = _resolve_engine(state, engine)
    if table is None:
        table = {}
    result = getattr(table, "result", None)
    if result is not None:
        return result(witness)
    values = []
    for spec in witness.specs:
        value = table.get(spec)
        if value is None:
            value = table[spec] = expectation(state, spec, engine)
        values.append(value)
    value, scale, degenerate = _REDUCTIONS[witness.kind](witness, *values)
    if degenerate:
        return WitnessResult(witness, math.nan, False, engine, "degenerate")
    return WitnessResult(witness, float(value), bool(_nonclassical(value, scale)), engine, "ok",
                         float(scale))


def reduce_columns(witness: Witness, columns) -> list:
    """The literal results of ``witness`` on the rows of ``columns``, one
    sequence of moment values per spec of ``witness`` in spec order: result i
    is, bit for bit, :func:`evaluate`'s with a table holding row i of each."""
    values, scales, degenerates = np.broadcast_arrays(
        *_REDUCTIONS[witness.kind](witness, *map(np.asarray, columns)))
    rows = zip(values.tolist(), scales.tolist(), _nonclassical(values, scales).tolist(),
               degenerates.tolist())
    return [WitnessResult(witness, math.nan, False, Engine.LITERAL, "degenerate") if degenerate
            else WitnessResult(witness, value, nonclassical, Engine.LITERAL, "ok", scale)
            for value, scale, nonclassical, degenerate in rows]


def hoa(state, l: int, m: int, engine: Engine | None = None) -> WitnessResult:
    """Higher-order two-mode antibunching of order (l, m).

    Value = N/D - 1 with
    N = <a1^dag^(l+1) a1^(l+1) a2^dag^(m-1) a2^(m-1)> + (modes swapped),
    D = <a1^dag^l a1^l a2^dag^m a2^m> + (modes swapped).
    Antibunched when negative.  All moments are number conserving, so both
    engines agree.
    """
    return evaluate(state, Witness("hoa", l=l, m=m), engine)


def quad_squeeze(state, engine: Engine | None = None) -> tuple[WitnessResult, WitnessResult]:
    """Two-mode quadrature squeezing factors (S_x, S_y).

    S_x = Re<a1^2 + a2^2 + 2(a1 a2^dag + a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Re^2<a1 + a2> - 2
    S_y = -Re<a1^2 + a2^2 - 2(a1 a2^dag - a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Im^2<a1 + a2> - 2

    A negative factor means the corresponding quadrature variance is below
    the vacuum level.
    """
    table = {}
    return (evaluate(state, Witness("quadx"), engine, table),
            evaluate(state, Witness("quady"), engine, table))


def sum_squeeze(state, theta: float, engine: Engine | None = None) -> WitnessResult:
    """Sum-squeezing degree for the two-mode operator
    ``(e^(i theta) a1^dag a2^dag + e^(-i theta) a1 a2) / 2``.

    Value = [2<a1 a1^dag a2 a2^dag> + 2 Re(e^(-2i theta) <a1^2 a2^2>)
             - 4 Re^2(e^(-i theta) <a1 a2>)] / <a1 a1^dag + a2 a2^dag - 1> - 2.
    Periodic in theta with period pi.
    """
    return evaluate(state, Witness("sum", theta=theta), engine)


def sv(state, engine: Engine | None = None) -> WitnessResult:
    """Moment-based inseparability value
    ``<n1 - 1/2><n2 - 1/2> - <a1^dag a2^dag><a1 a2>``; entangled when negative.
    """
    return evaluate(state, Witness("sv"), engine)


def epr(state, form: str = "literal", engine: Engine | None = None) -> WitnessResult:
    """Product-of-variances entanglement value I1 * I2 - 1.

    Two sign conventions ship.  ``form="literal"`` uses asymmetric number
    terms and adds the squared mean terms with positive sign; on the vacuum
    it yields exactly -1, an unphysical entanglement flag that is reported
    as-is.  ``form="variance"`` subtracts the squared means and symmetrizes
    the number terms, making I1 and I2 genuine variances of ``x1 + x2`` and
    ``p1 - p2`` (vacuum sits at 0, the physically sensible boundary).
    """
    return evaluate(state, Witness("epr", form=form), engine)


def su11(state, engine: Engine | None = None) -> WitnessResult:
    """Entanglement value from the uncertainty product of two-mode
    angular-momentum-like operators:

    [2<a1 a1^dag a2 a2^dag> - <a1 a1^dag> - <a2 a2^dag>
       + 2 Re<a1^2 a2^dag^2> - 4 Re^2<a1^dag a2>]
    x [same with - 2 Re<a1^2 a2^dag^2> and - 4 Im^2<a1^dag a2>]
    - |<a1 a1^dag - a2 a2^dag>|^2

    Entangled when negative.  All moments are number conserving, so both
    engines agree; the q = 0 binomial family sits identically at zero, which
    is why the roundoff-aware strict-zero guard matters here.
    """
    return evaluate(state, Witness("su11"), engine)


def cauchy_schwarz(state, engine: Engine | None = None) -> WitnessResult:
    """Two-mode intensity-correlation value
    ``sqrt(<a1^dag^2 a1^2><a2^dag^2 a2^2>) - |<a1^dag a1 a2^dag a2>|``.

    This is the intensity nonclassicality inequality in its standard
    literature form: negative means the classical intensity Cauchy-Schwarz
    bound is violated.  It is not an entanglement criterion.  All moments are
    number conserving, so for a fixed-total state ``sum_n c_n |n>|M-n>`` the
    value depends only on the photon-number distribution ``|c_n|^2``; a
    separable mixture with the same distribution gives the same value, and
    product Fock states such as ``|2>|2>`` violate it.  The ``table1`` row is
    tagged ``literature-standard`` because the paper's own formula is not
    given.
    """
    return evaluate(state, Witness("cs"), engine)
