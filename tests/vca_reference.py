"""The monomial-basis VCA isolator that the Bernstein-basis kernel replaced.

Kept as the differential reference for ``roots._vca``: each node holds the
monomial coefficients of a polynomial whose roots in (0, 1) are those of
f(+-2^k x) on the node's interval.  The Descartes test costs one Taylor
shift per node, and a split costs a second one for the right half.
"""

from fractions import Fraction

from qzeros.roots import _taylor_shift


def _descartes(a: list[int]) -> int:
    """Sign variations of (x+1)^n a(1/(x+1)): 0 or 1 is the exact number of
    roots of a in (0, 1); a larger count bounds it, with the same parity."""
    signs = [c > 0 for c in _taylor_shift(a[::-1]) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def vca_monomial(ints: tuple[int, ...], k: int) -> tuple[list[tuple[Fraction, Fraction]], Fraction | None]:
    """Isolating intervals of the real roots, all inside (-2^k, 2^k), of the
    integer polynomial f = ints, f(0) != 0, by Vincent-Collins-Akritas
    bisection.

    A node (c, j, a) stands for (c/2^j, (c+1)/2^j) and a polynomial a whose
    roots in (0, 1) are those of f(+-2^k x) there; its halves are
    2^n a(x/2) and the Taylor shift of that by 1.  Returns (intervals, None),
    or (intervals so far, r) as soon as a split point r is a root.
    """
    n = len(ints) - 1
    found = []
    for side in (1, -1):
        stack = [(0, 0, [c * side**i << k * i for i, c in enumerate(ints)])]
        while stack:
            c, j, a = stack.pop()
            v = _descartes(a)
            if v == 0:
                continue
            if v == 1:
                lo, hi = Fraction(c << k, 1 << j), Fraction((c + 1) << k, 1 << j)
                found.append((lo, hi) if side > 0 else (-hi, -lo))
                continue
            left = [coef << (n - i) for i, coef in enumerate(a)]
            right = _taylor_shift(left)
            if right[0] == 0:
                return found, Fraction(side * ((2 * c + 1) << k), 1 << (j + 1))
            stack.append((2 * c, j + 1, left))
            stack.append((2 * c + 1, j + 1, right))
    return found, None
