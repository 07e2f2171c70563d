"""Exact references for the state families, from the standard library only.

At a binary-float p and q every squared ``ngbs`` coefficient is a rational
number, which :class:`fractions.Fraction` holds exactly.
"""

from fractions import Fraction
from math import comb


def ngbs_probabilities(total: int, p: float, q: float) -> list:
    """The exact ``P(n) = c_n^2`` of ``ngbs(NGBSParams(total, p, q))``, n = 0..M.

    With x = p/(1+Mq) and z = q/(1+Mq), taken exactly from the floats p and
    q: P(0) = (1-x)^M and P(n) = x C(M,n) (x+nz)^(n-1) (1-x-nz)^(M-n).  For
    a valid point Abel's identity makes them sum to exactly 1.
    """
    scale = 1 + total * Fraction(q)
    x, z = Fraction(p) / scale, Fraction(q) / scale
    return [(1 - x) ** total] + [
        x * comb(total, n) * (x + n * z) ** (n - 1) * (1 - x - n * z) ** (total - n)
        for n in range(1, total + 1)
    ]
