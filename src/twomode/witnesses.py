"""Nonclassicality and entanglement witnesses built from two-mode moments.

Every witness reduces to a scalar combination of normally ordered moments,
evaluated through an :class:`~twomode.moments.Engine`.  Antinormally ordered
building blocks are converted uniformly via ``<a a^dag> = <a^dag a> + 1`` and
``<a1 a1^dag a2 a2^dag> = <(n1+1)(n2+1)>``.

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

import math
from dataclasses import dataclass

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
        if self.kind == "epr" and self.form not in EPR_FORMS:
            raise ValueError(f"epr form must be one of {EPR_FORMS}, got {self.form!r}")

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


@dataclass(frozen=True)
class WitnessResult:
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


def _flag(value: float, scale: float) -> bool:
    return value < -STRICT_ZERO * max(1.0, scale)


class _Moments:
    """Moment accessor bound to one (state, engine) pair."""

    def __init__(self, state, engine: Engine):
        self.state = state
        self.engine = engine

    def __call__(self, j: int, k: int, r: int, s: int) -> complex:
        return expectation(self.state, MomentSpec(j, k, r, s), self.engine)

    def mean_n(self) -> tuple[float, float]:
        return self(1, 1, 0, 0).real, self(0, 0, 1, 1).real


def _result(witness, value, scale, engine, status="ok") -> WitnessResult:
    value = float(value)
    scale = float(scale)
    return WitnessResult(
        witness=witness,
        value=value,
        nonclassical=False if status != "ok" else bool(_flag(value, scale)),
        engine=engine,
        status=status,
        scale=scale,
    )


def _degenerate(witness, engine) -> WitnessResult:
    return _result(witness, float("nan"), 1.0, engine, status="degenerate")


def hoa(state, l: int, m: int, engine: Engine | None = None) -> WitnessResult:
    """Higher-order two-mode antibunching of order (l, m).

    Value = N/D - 1 with
    N = <a1^dag^(l+1) a1^(l+1) a2^dag^(m-1) a2^(m-1)> + (modes swapped),
    D = <a1^dag^l a1^l a2^dag^m a2^m> + (modes swapped).
    Antibunched when negative.  All moments are number conserving, so both
    engines agree.
    """
    witness = Witness("hoa", l=l, m=m)
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    num = mom(l + 1, l + 1, m - 1, m - 1).real + mom(m - 1, m - 1, l + 1, l + 1).real
    den = mom(l, l, m, m).real + mom(m, m, l, l).real
    if den <= DEGENERATE_DENOMINATOR:
        return _degenerate(witness, engine)
    value = num / den - 1.0
    scale = abs(num / den) + 1.0
    return _result(witness, value, scale, engine)


def quad_squeeze(state, engine: Engine | None = None) -> tuple[WitnessResult, WitnessResult]:
    """Two-mode quadrature squeezing factors (S_x, S_y).

    S_x = Re<a1^2 + a2^2 + 2(a1 a2^dag + a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Re^2<a1 + a2> - 2
    S_y = -Re<a1^2 + a2^2 - 2(a1 a2^dag - a1 a2)> + <a1 a1^dag + a2 a2^dag>
          - 2 Im^2<a1 + a2> - 2

    A negative factor means the corresponding quadrature variance is below
    the vacuum level.
    """
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    n1, n2 = mom.mean_n()
    a1, a2 = mom(0, 1, 0, 0), mom(0, 0, 0, 1)
    a1sq, a2sq = mom(0, 2, 0, 0), mom(0, 0, 0, 2)
    cross_mixed = mom(0, 1, 1, 0)   # <a1 a2^dag>
    cross_lower = mom(0, 1, 0, 1)   # <a1 a2>
    anti = n1 + n2 + 2.0            # <a1 a1^dag + a2 a2^dag>

    tx = (a1sq + a2sq + 2.0 * (cross_mixed + cross_lower)).real
    mx = 2.0 * ((a1 + a2).real ** 2)
    sx = tx + anti - mx - 2.0
    res_x = _result(Witness("quadx"), sx, abs(tx) + anti + mx + 2.0, engine)

    ty = -(a1sq + a2sq - 2.0 * (cross_mixed - cross_lower)).real
    my = 2.0 * ((a1 + a2).imag ** 2)
    sy = ty + anti - my - 2.0
    res_y = _result(Witness("quady"), sy, abs(ty) + anti + my + 2.0, engine)
    return res_x, res_y


def sum_squeeze(state, theta: float, engine: Engine | None = None) -> WitnessResult:
    """Sum-squeezing degree for the two-mode operator
    ``(e^(i theta) a1^dag a2^dag + e^(-i theta) a1 a2) / 2``.

    Value = [2<a1 a1^dag a2 a2^dag> + 2 Re(e^(-2i theta) <a1^2 a2^2>)
             - 4 Re^2(e^(-i theta) <a1 a2>)] / <a1 a1^dag + a2 a2^dag - 1> - 2.
    Periodic in theta with period pi.
    """
    witness = Witness("sum", theta=theta)
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    n1, n2 = mom.mean_n()
    anti_pair = mom(1, 1, 1, 1).real + n1 + n2 + 1.0  # <(n1+1)(n2+1)>
    pair_sq = mom(0, 2, 0, 2)                         # <a1^2 a2^2>
    pair = mom(0, 1, 0, 1)                            # <a1 a2>
    den = n1 + n2 + 1.0
    if den <= DEGENERATE_DENOMINATOR:
        return _degenerate(witness, engine)
    phase2 = complex(math.cos(2 * theta), -math.sin(2 * theta))
    phase1 = complex(math.cos(theta), -math.sin(theta))
    t_anti = 2.0 * anti_pair
    t_sq = 2.0 * (phase2 * pair_sq).real
    t_mean = 4.0 * ((phase1 * pair).real ** 2)
    value = (t_anti + t_sq - t_mean) / den - 2.0
    scale = (abs(t_anti) + abs(t_sq) + t_mean) / den + 2.0
    return _result(witness, value, scale, engine)


def sv(state, engine: Engine | None = None) -> WitnessResult:
    """Moment-based inseparability value
    ``<n1 - 1/2><n2 - 1/2> - <a1^dag a2^dag><a1 a2>``; entangled when negative.
    """
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    n1, n2 = mom.mean_n()
    raise_pair = mom(1, 0, 1, 0)
    lower_pair = mom(0, 1, 0, 1)
    t_diag = (n1 - 0.5) * (n2 - 0.5)
    t_cross = (raise_pair * lower_pair).real
    value = t_diag - t_cross
    scale = abs(t_diag) + abs(t_cross)
    return _result(Witness("sv"), value, scale, engine)


def epr(state, form: str = "literal", engine: Engine | None = None) -> WitnessResult:
    """Product-of-variances entanglement value I1 * I2 - 1.

    Two sign conventions ship.  ``form="literal"`` uses asymmetric number
    terms and adds the squared mean terms with positive sign; on the vacuum
    it yields exactly -1, an unphysical entanglement flag that is reported
    as-is.  ``form="variance"`` subtracts the squared means and symmetrizes
    the number terms, making I1 and I2 genuine variances of ``x1 + x2`` and
    ``p1 - p2`` (vacuum sits at 0, the physically sensible boundary).
    """
    if form not in EPR_FORMS:
        raise ValueError(f"epr form must be one of {EPR_FORMS}, got {form!r}")
    witness = Witness("epr", form=form)
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    n1, n2 = mom.mean_n()
    a1, a2 = mom(0, 1, 0, 0), mom(0, 0, 0, 1)
    a1sq, a2sq = mom(0, 2, 0, 0), mom(0, 0, 0, 2)
    cross_mixed = mom(0, 1, 1, 0)
    cross_lower = mom(0, 1, 0, 1)

    t1 = (a1sq + a2sq + 2.0 * cross_lower + 2.0 * cross_mixed).real
    t2 = (-a1sq - a2sq + 2.0 * cross_lower - 2.0 * cross_mixed).real
    re_sum = (a1 + a2).real ** 2
    im_diff = (a1 - a2).imag ** 2
    if form == "literal":
        i1 = t1 + (n1 + 1.0) + n2 + 2.0 * re_sum - 1.0
        i2 = t2 + (n1 + 1.0) + (n2 + 1.0) + 2.0 * im_diff - 1.0
        s1 = abs(t1) + n1 + 1.0 + n2 + 2.0 * re_sum + 1.0
        s2 = abs(t2) + n1 + n2 + 2.0 + 2.0 * im_diff + 1.0
    else:
        i1 = t1 + (n1 + 1.0) + (n2 + 1.0) - 2.0 * re_sum - 1.0
        i2 = t2 + (n1 + 1.0) + (n2 + 1.0) - 2.0 * im_diff - 1.0
        s1 = abs(t1) + n1 + n2 + 2.0 + 2.0 * re_sum + 1.0
        s2 = abs(t2) + n1 + n2 + 2.0 + 2.0 * im_diff + 1.0
    value = i1 * i2 - 1.0
    scale = s1 * s2 + 1.0
    return _result(witness, value, scale, engine)


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
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    n1, n2 = mom.mean_n()
    anti_pair = mom(1, 1, 1, 1).real + n1 + n2 + 1.0
    base = 2.0 * anti_pair - (n1 + 1.0) - (n2 + 1.0)
    twist = 2.0 * mom(0, 2, 2, 0).real   # 2 Re<a1^2 a2^dag^2>
    swap = mom(1, 0, 0, 1)               # <a1^dag a2>
    bracket_plus = base + twist - 4.0 * (swap.real ** 2)
    bracket_minus = base - twist - 4.0 * (swap.imag ** 2)
    imbalance_sq = abs(n1 - n2) ** 2
    value = bracket_plus * bracket_minus - imbalance_sq
    s_base = 2.0 * abs(anti_pair) + n1 + n2 + 2.0 + abs(twist)
    scale = (s_base + 4.0 * swap.real ** 2) * (s_base + 4.0 * swap.imag ** 2) + imbalance_sq
    return _result(Witness("su11"), value, scale, engine)


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
    engine = _resolve_engine(state, engine)
    mom = _Moments(state, engine)
    auto1 = max(mom(2, 2, 0, 0).real, 0.0)
    auto2 = max(mom(0, 0, 2, 2).real, 0.0)
    cross = abs(mom(1, 1, 1, 1))
    geo = math.sqrt(auto1 * auto2)
    value = geo - cross
    scale = geo + cross
    return _result(Witness("cs"), value, scale, engine)


def evaluate(state, witness: Witness, engine: Engine | None = None) -> WitnessResult:
    """Evaluate an arbitrary witness description against a state."""
    if witness.kind == "hoa":
        return hoa(state, witness.l, witness.m, engine)
    if witness.kind in ("quadx", "quady"):
        res_x, res_y = quad_squeeze(state, engine)
        return res_x if witness.kind == "quadx" else res_y
    if witness.kind == "sum":
        return sum_squeeze(state, witness.theta, engine)
    if witness.kind == "sv":
        return sv(state, engine)
    if witness.kind == "epr":
        return epr(state, witness.form, engine)
    if witness.kind == "su11":
        return su11(state, engine)
    if witness.kind == "cs":
        return cauchy_schwarz(state, engine)
    raise ValueError(f"unknown witness kind {witness.kind!r}")
