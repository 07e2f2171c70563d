"""Nonclassicality and entanglement witnesses built from two-mode moments.

One public call evaluates a witness on a state,
``evaluate(state, Witness("hoa", l=9, m=1), engine)``; a kind has no function
of its own.  Every witness kind is declared once, as data, in one table,
``_KINDS``, of one ``_Kind`` per kind: the normally ordered moments its
reduction takes, in order (for ``hoa`` a function of its orders l, m); that
reduction, a pure function that turns their values into the witness value
and its scale; the parameters the kind takes, each a field of
:class:`Witness` and the parser of its token text, in token order; and the
parameter rows a bare token stands for.  Each reduction's docstring gives
its formula.  The parameter checks of :class:`Witness`,
:meth:`Witness.label` and :meth:`Witness.parse`, :attr:`Witness.specs`
(built once per witness), :func:`evaluate` and :func:`reduce_columns` all
read it, so a new kind, with parameters or without, is one entry plus its
reduction.  Antinormally ordered building
blocks are converted uniformly via ``<a a^dag> = <a^dag a> + 1`` and
``<a1 a1^dag a2 a2^dag> = <(n1+1)(n2+1)>``.

:func:`evaluate` fills a moment table, a dict from
:class:`~twomode.fock.MomentSpec` to value held by the caller, with the specs
the witness needs that are not in it yet, each through
:func:`~twomode.moments.cached_expectation`, and then reduces.  A table
belongs to one (state, engine) pair, so the witnesses evaluated with it share
their moments; a moment's value does not depend on which witness asked first.

:func:`reduce_columns` runs the same reductions on the moment columns of a
slice of states, under either engine, which the sweeps' tables use to reduce
each witness once per slice; row i is the per-state result bit for bit.
The reductions follow the per-row rule of :mod:`twomode.moments`, whose
docstring says which operations run vectorised and which run one row at a
time through its ``_square``, ``_cabs`` and ``_cmul``.

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
from typing import Callable, NamedTuple

import numpy as np

from .fock import FixedTotalState, MomentSpec
from .moments import Engine, _cabs, _cmul, _square, cached_expectation

__all__ = [
    "DEFAULT_THETAS",
    "EPR_FORMS",
    "STRICT_ZERO",
    "Witness",
    "WitnessResult",
    "evaluate",
    "reduce_columns",
]

STRICT_ZERO = 1e-12
DEGENERATE_DENOMINATOR = 1e-14

DEFAULT_THETAS = (0.0, math.pi / 6, math.pi / 3, math.pi)
EPR_FORMS = ("literal", "variance")

@dataclass(frozen=True)
class Witness:
    """A witness kind plus its parameters (when it has any).

    The kind's ``_KINDS`` entry declares which parameters it takes: ``hoa``
    carries orders (l, m) with l >= m >= 1, ``sum`` carries the phase angle
    theta, ``epr`` carries the form ("literal" or "variance").
    """

    kind: str
    l: int | None = None
    m: int | None = None
    theta: float | None = None
    form: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        # a parameter of another kind would make a second witness of one label
        takes = [field for field, _ in _KINDS[self.kind].params]
        for field in ("l", "m", "theta", "form"):
            value = getattr(self, field)
            if value is not None and field not in takes:
                raise ValueError(f"{self.kind} takes no {field}, got {field}={value!r}")
        missing = [field for field in takes if getattr(self, field) is None]
        if missing:
            raise ValueError(f"{self.kind} requires {' and '.join(missing)}")
        # each parameter is kept as its parser's value, which the label names
        # and the reduction takes (hoa l=2.0 as 2); a value the parser
        # changes (hoa l=2.5 to 2, theta '0.5' to 0.5) is not that value.  A
        # NaN is unequal to itself, and is left to the finiteness check
        for field, parser in _KINDS[self.kind].params:
            value = getattr(self, field)
            parsed = parser(value)
            if parsed != value and value == value:
                raise ValueError(f"{self.kind} takes {field} as {parser.__name__}, "
                                 f"got {field}={value!r}")
            object.__setattr__(self, field, parsed)
        # the reduction takes cos(2 theta), which fails on an infinite argument
        if self.theta is not None and not math.isfinite(2 * self.theta):
            raise ValueError(f"theta must be finite, and so must 2*theta, got {self.theta!r}")
        if self.l is not None and not (self.l >= self.m >= 1):
            raise ValueError(f"{self.kind} requires l >= m >= 1, got l={self.l}, m={self.m}")
        if self.form is not None and self.form not in EPR_FORMS:
            raise ValueError(f"{self.kind} form must be one of {EPR_FORMS}, got {self.form!r}")
        # keyed and hashed once: witnesses key the sweeps' per-slice results.
        # The key holds the sign of theta, so that sum:0.0 and sum:-0.0,
        # which the label and the CSV tell apart, are two witnesses.
        sign = None if self.theta is None else math.copysign(1.0, self.theta)
        key = (self.kind, self.l, self.m, self.theta, self.form, sign)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def specs(self) -> tuple[MomentSpec, ...]:
        """The moments the witness reduces, in the order its reduction takes them."""
        moments = _KINDS[self.kind].moments
        return moments(self.l, self.m) if callable(moments) else moments

    def label(self) -> str:
        """The witness's token, ``kind`` or ``kind:param,...``; it parses back to it."""
        values = ",".join(str(getattr(self, field)) for field, _ in _KINDS[self.kind].params)
        return f"{self.kind}:{values}" if values else self.kind

    @classmethod
    def parse(cls, text: str) -> list["Witness"]:
        """Parse a witness token such as ``hoa:9,1``, ``sum:0.5`` or ``epr``.

        The argument after the colon gives the kind's parameters in order,
        separated by commas; a colon with no argument after it (``sv:``) is
        rejected.  Returns a list because a bare token stands for its kind's
        ``bare`` rows: a bare ``sum`` expands to the default theta set, a
        bare ``hoa`` means orders (1, 1), a bare ``epr`` the literal form.
        """
        head, colon, arg = text.strip().lower().partition(":")
        aliases = {"cauchy": "cs", "cauchy-schwarz": "cs", "sumsqueeze": "sum"}
        head = aliases.get(head, head)
        if head not in _KINDS:
            raise ValueError(f"cannot parse witness {text!r}")
        params, rows = _KINDS[head].params, _KINDS[head].bare
        if colon:
            try:
                rows = [[parser(token) for (_, parser), token
                         in zip(params, arg.split(","), strict=True)]]
            except ValueError as exc:
                raise ValueError(f"cannot parse witness {text!r}") from exc
        return [cls(head, **{field: value for (field, _), value in zip(params, row)})
                for row in rows]


class WitnessResult(NamedTuple):
    """One witness evaluation: value, classification flag and provenance."""

    witness: Witness
    value: float
    nonclassical: bool
    engine: Engine
    status: str = "ok"
    scale: float = 1.0


# --- reductions: (witness, *moments in spec order) -> (value, scale, degenerate),
# on scalars or on columns alike (module doc).  A degenerate denominator
# becomes 1.0 so that the division cannot fail; on scalars np.where gives a
# 0-d array, whose arithmetic gives the same floats.

def _hoa_moments(l, m):  # the numerator's moments, then the denominator's (see _hoa)
    return (MomentSpec(l + 1, l + 1, m - 1, m - 1), MomentSpec(m - 1, m - 1, l + 1, l + 1),
            MomentSpec(l, l, m, m), MomentSpec(m, m, l, l))


def _hoa(witness, num1, num2, den1, den2):
    """Higher-order two-mode antibunching of order (l, m): N/D - 1 with

    N = <a1^dag^(l+1) a1^(l+1) a2^dag^(m-1) a2^(m-1)> + (modes swapped),
    D = <a1^dag^l a1^l a2^dag^m a2^m> + (modes swapped).

    Antibunched when negative.  All moments are number conserving, so both
    engines agree.
    """
    num = num1.real + num2.real
    den = den1.real + den2.real
    degenerate = den <= DEGENERATE_DENOMINATOR
    ratio = num / np.where(degenerate, 1.0, den)
    return ratio - 1.0, abs(ratio) + 1.0, degenerate


def _quadrature(witness, n1, n2, a1, a2, a1sq, a2sq, cross_mixed, cross_lower):
    """Two-mode quadrature squeezing factor S_x (``quadx``) or S_y (``quady``):

    S_x = Re<a1^2 + a2^2 + 2(a1 a2^dag + a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Re^2<a1 + a2> - 2
    S_y = -Re<a1^2 + a2^2 - 2(a1 a2^dag - a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Im^2<a1 + a2> - 2

    A negative factor means that quadrature's variance is below the vacuum
    level.
    """
    anti = n1.real + n2.real + 2.0  # <a1 a1^dag + a2 a2^dag>
    if witness.kind == "quadx":
        term = (a1sq + a2sq + 2.0 * (cross_mixed + cross_lower)).real
        mean = 2.0 * _square((a1 + a2).real)
    else:
        term = -(a1sq + a2sq - 2.0 * (cross_mixed - cross_lower)).real
        mean = 2.0 * _square((a1 + a2).imag)
    return term + anti - mean - 2.0, abs(term) + anti + mean + 2.0, False


def _sum(witness, n1, n2, n1n2, pair_sq, pair):
    """Sum-squeezing degree of ``(e^(i theta) a1^dag a2^dag + e^(-i theta) a1 a2) / 2``:

    [2<a1 a1^dag a2 a2^dag> + 2 Re(e^(-2i theta) <a1^2 a2^2>)
     - 4 Re^2(e^(-i theta) <a1 a2>)] / <a1 a1^dag + a2 a2^dag - 1> - 2.

    Periodic in theta with period pi.
    """
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
    """Shchukin-Vogel inseparability value
    ``<n1 - 1/2><n2 - 1/2> - <a1^dag a2^dag><a1 a2>``; entangled when negative."""
    t_diag = (n1.real - 0.5) * (n2.real - 0.5)
    t_cross = _cmul(raise_pair, lower_pair).real
    return t_diag - t_cross, abs(t_diag) + abs(t_cross), False


def _epr(witness, n1, n2, a1, a2, a1sq, a2sq, cross_mixed, cross_lower):
    """Product-of-variances (EPR, Mancini) entanglement value I1 * I2 - 1.

    Two sign conventions ship.  ``form="literal"`` uses asymmetric number
    terms and adds the squared mean terms with positive sign; on the vacuum
    it yields exactly -1, an unphysical entanglement flag that is reported
    as-is.  ``form="variance"`` subtracts the squared means and symmetrizes
    the number terms, making I1 and I2 genuine variances of ``x1 + x2`` and
    ``p1 - p2`` (vacuum sits at 0, the physically sensible boundary).
    """
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
    auto1, auto2 = auto1.real, auto2.real
    # max(auto, 0.0), which keeps NaN and -0.0
    geo = np.sqrt(np.where(auto1 < 0.0, 0.0, auto1) * np.where(auto2 < 0.0, 0.0, auto2))
    cross = _cabs(cross)
    return geo - cross, geo + cross, False


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

class _Kind(NamedTuple):
    """One witness kind, the whole of its declaration.

    ``moments``: the moments its reduction takes, in order, or for ``hoa``
    the function of (l, m) that gives them.  ``reduction``: the function of
    the witness and those moments' values.  ``params``: a (field, parser)
    pair per parameter, in token order; :class:`Witness` keeps each
    parameter as its parser's value, and rejects one the parser changes.
    ``bare``: the parameter rows a bare token stands for.
    """

    moments: tuple | Callable
    reduction: Callable
    params: tuple = ()
    bare: tuple = ((),)


_KINDS = {
    "hoa": _Kind(_hoa_moments, _hoa, (("l", int), ("m", int)), ((1, 1),)),
    "quadx": _Kind(_QUADRATURE, _quadrature),
    "quady": _Kind(_QUADRATURE, _quadrature),
    "sum": _Kind((_N1, _N2, _N1N2, MomentSpec(0, 2, 0, 2), _PAIR), _sum, (("theta", float),),
                 tuple((theta,) for theta in DEFAULT_THETAS)),
    "sv": _Kind((_N1, _N2, MomentSpec(1, 0, 1, 0), _PAIR), _sv),
    "epr": _Kind(_QUADRATURE, _epr, (("form", str),), (("literal",),)),
    "su11": _Kind((_N1, _N2, _N1N2, MomentSpec(0, 2, 2, 0), MomentSpec(1, 0, 0, 1)), _su11),
    "cs": _Kind((MomentSpec(2, 2, 0, 0), MomentSpec(0, 0, 2, 2), _N1N2), _cs),
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
    table.  One with a ``result(state, witness, engine)`` method, a sweep's
    grid slice, answers for ``state`` with that instead, and serves each of
    its states under every engine.
    """
    # the isinstance test first: on Python 3.11 each Engine member lookup
    # runs through EnumType's __getattr__ hook, which a fixed-total state skips
    if engine is None:
        engine = Engine.LITERAL if isinstance(state, FixedTotalState) else Engine.ORACLE
    elif not isinstance(state, FixedTotalState) and engine is Engine.LITERAL:
        raise TypeError("the literal engine requires a fixed-total state")
    if table is None:
        table = {}
    result = getattr(table, "result", None)
    if result is not None:
        return result(state, witness, engine)
    values = [cached_expectation(table, state, spec, engine) for spec in witness.specs]
    value, scale, degenerate = _KINDS[witness.kind].reduction(witness, *values)
    if degenerate:
        return WitnessResult(witness, math.nan, False, engine, "degenerate")
    return WitnessResult(witness, float(value), bool(_nonclassical(value, scale)), engine, "ok",
                         float(scale))


def reduce_columns(witness: Witness, columns, engine: Engine) -> list:
    """The results of ``witness`` on the rows of ``columns``, one sequence of
    moment values per spec of ``witness`` in spec order, each stamped with
    ``engine``, the engine that computed the columns: result i is, bit for
    bit, :func:`evaluate`'s with that engine and a table holding row i of
    each column."""
    values, scales, degenerates = np.broadcast_arrays(
        *_KINDS[witness.kind].reduction(witness, *map(np.asarray, columns)))
    rows = zip(values.tolist(), scales.tolist(), _nonclassical(values, scales).tolist(),
               degenerates.tolist())
    # each result built as namedtuple's own _make builds it, without the
    # frame of the generated __new__
    new = tuple.__new__
    degenerate_fields = (witness, math.nan, False, engine, "degenerate", 1.0)
    return [new(WitnessResult, degenerate_fields) if degenerate
            else new(WitnessResult, (witness, value, nonclassical, engine, "ok", scale))
            for value, scale, nonclassical, degenerate in rows]

