"""The q-derivative operator on exact polynomials.

Acting on monomials, x^i maps to (1-q^i)/(1-q) * x^(i-1); coefficient-wise
this is e_i(D_q p) = (1-q^(i+1))/(1-q) * e_(i+1)(p), which agrees with the
divided-difference form (f(x) - f(qx))/((1-q)x) on polynomials and needs no
special case at x = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .qcore import RationalLike, as_q
from .qhyper import PolyExact


def q_bracket(i: int, q: RationalLike) -> Fraction:
    """The q-integer [i]_q = (1 - q^i)/(1 - q)."""
    qv = as_q(q)
    return (1 - qv**i) / (1 - qv)


def q_derivative(p: PolyExact, q: RationalLike) -> PolyExact:
    """Apply the q-derivative; constants map to the zero polynomial.

    With q = u/v, [i+1]_q = (v^(i+1) - u^(i+1)) / (v^i (v - u)), so over the
    common denominator den v^(deg-1) (v - u) the i-th coefficient is
    num_(i+1) (v^(i+1) - u^(i+1)) v^(deg-1-i): one integer pass, one
    reduction.
    """
    qv = as_q(q)
    u, v = qv.numerator, qv.denominator
    deg = p.degree
    if deg < 1:
        return PolyExact.zero()
    vpow = [1]
    for _ in range(deg):
        vpow.append(vpow[-1] * v)
    out = []
    upow = 1
    for i in range(deg):
        upow *= u
        out.append(p.num[i + 1] * (vpow[i + 1] - upow) * vpow[deg - 1 - i])
    return PolyExact.from_ints(out, p.den * vpow[deg - 1] * (v - u))
