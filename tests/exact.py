"""Exact references for the state families and their moments, from the
standard library only.

At a binary-float p and q every squared ``ngbs`` coefficient is a rational
number, which :class:`fractions.Fraction` holds exactly, and so is every
diagonal moment ``<a1^dag^a a1^a a2^dag^b a2^b>``, a sum of those squares
times integers.
"""

from fractions import Fraction
from math import comb, perm


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


def mixed_diagonal_moment(probabilities: list, a: int, b: int):
    """The exact ``<a1^dag^a a1^a a2^dag^b a2^b>`` of the fixed-total state
    whose photon-number distribution is ``probabilities``.

    Mode 1 holds n photons and mode 2 holds M - n with probability P(n), so
    the moment is sum_n P(n) n!/(n-a)! (M-n)!/(M-n-b)!, where a falling
    factorial of fewer photons than its order is 0.
    """
    total = len(probabilities) - 1
    return sum(share * perm(n, a) * perm(total - n, b) for n, share in enumerate(probabilities))


def factorial_moments(probabilities: list, k: int) -> tuple:
    """The exact ``<a1^dag^k a1^k>`` and ``<a2^dag^k a2^k>`` of the
    fixed-total state whose photon-number distribution is ``probabilities``.
    """
    return (mixed_diagonal_moment(probabilities, k, 0),
            mixed_diagonal_moment(probabilities, 0, k))
