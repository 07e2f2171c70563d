"""Constructors for the state families used across the sweeps.

The central family is the two-mode generalized binomial state whose
coefficients follow an Abel-type generalized binomial distribution

    c_n^2 = x * binom(M, n) * (x + n*z)^(n-1) * (1 - x - n*z)^(M-n),

with x = p/(1+Mq) and z = q/(1+Mq).  Abel's binomial identity makes the
coefficients sum to (x + (1-x))^M = 1 exactly, so normalization is verified
rather than imposed.  The q = 0 slice is the ordinary binomial state; p = 1
and p = 0 collapse onto single Fock kets.

Fock pairs and truncated coherent-product states are provided as oracle
fixtures: the former are exact basis kets, the latter sit exactly on the
classical boundary of every witness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import FixedTotalState, TwoModeState, _log_factorials

__all__ = [
    "InvalidParams",
    "NGBSParams",
    "NormalizationAnomaly",
    "TruncationInadequate",
    "binomial_state",
    "coherent_product",
    "fock_pair",
    "ngbs",
]

# Slack for parameter points that sit exactly on a validity boundary
# (e.g. p + M*q == 0) but land a few ulps off after rounding.
_BOUNDARY_EPS = 1e-12

_NORM_ANOMALY_TOL = 1e-8


class InvalidParams(Exception):
    """State-family parameters violate a validity invariant."""


class NormalizationAnomaly(Exception):
    """Coefficient vector does not sum to a unit distribution."""


class TruncationInadequate(Exception):
    """Truncated grid loses more probability than allowed."""


@dataclass(frozen=True)
class NGBSParams:
    """Parameters of the generalized binomial state family.

    Attributes
    ----------
    total : int
        Total photon number M.
    p : float
        Probability parameter in [0, 1].
    q : float
        Cavity factor.  Validity requires 1 + M*q > 0 and, for every
        n in 0..M, 0 <= p + n*q <= 1 + M*q, which makes every factor
        under the square root real and non-negative.
    """

    total: int
    p: float
    q: float

    def validate(self) -> None:
        m, p, q = self.total, self.p, self.q
        if m < 0:
            raise InvalidParams(f"total photon number must be >= 0, got {m}")
        # every comparison below is False for NaN, so it would pass them all
        if not (math.isfinite(p) and math.isfinite(q)):
            raise InvalidParams(f"p and q must be finite, got p={p!r}, q={q!r}")
        if not (0.0 <= p <= 1.0):
            raise InvalidParams(f"p must lie in [0, 1], got {p!r}")
        if 1.0 + m * q <= 0.0:
            raise InvalidParams(f"need 1 + M*q > 0, got M={m}, q={q!r}")
        lo = min(p, p + m * q)
        hi = max(p, p + m * q)
        if lo < -_BOUNDARY_EPS:
            raise InvalidParams(
                f"p + n*q reaches {lo!r} < 0 for some n (M={m}, p={p!r}, q={q!r})"
            )
        if hi > 1.0 + m * q + _BOUNDARY_EPS:
            raise InvalidParams(
                f"p + n*q exceeds 1 + M*q for some n (M={m}, p={p!r}, q={q!r})"
            )


def ngbs(params: NGBSParams) -> FixedTotalState:
    """Build the generalized binomial state for the given parameters.

    Each squared coefficient is assembled in log space and exponentiated
    once, so the construction scales to M of order a few hundred without
    overflow.  The n = 0 factor p * (p/(1+Mq))^(-1) is cancelled
    analytically to c_0^2 = (1 - p/(1+Mq))^M, which keeps p = 0 well
    defined and is the value required by Abel's identity for the
    coefficients to sum to one.

    Raises
    ------
    InvalidParams
        If the parameter invariants fail.
    NormalizationAnomaly
        If the coefficients do not sum to 1 within 1e-8, signalling a
        regime where the distribution breaks down.
    """
    params.validate()
    m, p, q = params.total, params.p, params.q
    theta = 1.0 / (1.0 + m * q)
    x = p * theta

    # built as a list of Python floats, then taken as one array
    c_sq = [0.0] * (m + 1)
    # validate() lets p exceed 1 + M*q by up to _BOUNDARY_EPS, so x may
    # exceed 1 by as much; an odd power of 1 - x would then be negative
    c_sq[0] = max((1.0 - x) ** m, 0.0)
    if x > 0.0:
        lf = _log_factorials(m)
        log, exp = math.log, math.exp
        # the sum below runs left to right, so this prefix keeps every bit
        log_head = log(x) + lf[m]
        for n in range(1, m + 1):
            share = (p + n * q) * theta
            log_term = log_head - lf[n] - lf[m - n]
            # a share or tail at or below zero (below it only by rounding at
            # a boundary) leaves the coefficient at zero
            if n - 1 > 0:
                if share <= 0.0:
                    continue
                log_term += (n - 1) * log(share)
            if m - n > 0:
                tail = 1.0 - share
                if tail <= 0.0:
                    continue
                log_term += (m - n) * log(tail)
            c_sq[n] = exp(log_term)
    c_sq = np.array(c_sq)

    total = float(c_sq.sum())
    if abs(total - 1.0) > _NORM_ANOMALY_TOL:
        raise NormalizationAnomaly(
            f"coefficients sum to {total!r} for M={m}, p={p!r}, q={q!r}"
        )
    return FixedTotalState(m, np.sqrt(c_sq))


def binomial_state(total: int, p: float) -> FixedTotalState:
    """Binomial state c_n = sqrt(binom(M,n) p^n (1-p)^(M-n)).

    Evaluated through :func:`ngbs` with q = 0, so the reduction identity
    holds bit for bit.
    """
    return ngbs(NGBSParams(total, p, 0.0))


def fock_pair(n1: int, n2: int) -> TwoModeState:
    """Basis ket |n1, n2> as a minimal-cutoff grid."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"photon numbers must be non-negative, got {n1}, {n2}")
    grid = np.zeros((n1 + 1, n2 + 1), dtype=complex)
    grid[n1, n2] = 1.0
    return TwoModeState(grid)


def coherent_product(alpha1: complex, alpha2: complex, cutoff: int) -> TwoModeState:
    """Truncated product of coherent states |alpha1>|alpha2>.

    Amplitudes ``exp(-(|a1|^2+|a2|^2)/2) a1^n1 a2^n2 / sqrt(n1! n2!)`` on a
    square grid with the given per-mode cutoff, renormalized over the grid.

    Raises
    ------
    TruncationInadequate
        If the truncated grid loses more than 1e-10 of the norm, i.e. the
        cutoff is too small for the requested amplitudes.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    n = np.arange(cutoff + 1)
    log_fac = np.array(_log_factorials(cutoff)[:cutoff + 1])

    def mode_amps(alpha: complex) -> np.ndarray:
        alpha = complex(alpha)
        if alpha == 0:
            out = np.zeros(cutoff + 1, dtype=complex)
            out[0] = 1.0
            return out
        mag, phase = abs(alpha), np.angle(alpha)
        log_mag = n * math.log(mag) - 0.5 * log_fac - 0.5 * mag * mag
        return np.exp(log_mag) * np.exp(1j * phase * n)

    grid = np.outer(mode_amps(alpha1), mode_amps(alpha2))
    kept = float(np.sum(np.abs(grid) ** 2))
    deficit = max(1.0 - kept, 0.0)
    if deficit > 1e-10:
        raise TruncationInadequate(
            f"cutoff {cutoff} keeps only {kept!r} of the norm "
            f"(deficit {deficit:.3e} > 1e-10)"
        )
    return TwoModeState(grid / np.linalg.norm(grid))
