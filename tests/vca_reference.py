"""References for ``roots._vca`` and ``roots._isolate_squarefree``.

``vca_monomial`` is the monomial-basis VCA isolator that the Bernstein-basis
kernel replaced, kept as the differential reference for ``roots._vca``: each
node holds the monomial coefficients of a polynomial whose roots in (0, 1)
are those of f(+-2^k x) on the node's interval.  The Descartes test costs
one Taylor shift per node, and a split costs a second one for the right
half.

``isolate_real_roots_restarting`` is the isolation that one VCA pass per
square-free factor replaced: x = 0 is factored out first, and each split
point that is a root stops bisection, deflates the factor by it and
restarts VCA on the quotient from its root bound.
"""

from fractions import Fraction
from math import comb, lcm

from qzeros import PolyExact, RootEntry, RootSet, roots, square_free_decomposition
from qzeros.roots import _taylor_shift


def _descartes(a: list[int]) -> int:
    """Sign variations of (x+1)^n a(1/(x+1)): 0 or 1 is the exact number of
    roots of a in (0, 1); a larger count bounds it, with the same parity."""
    signs = [c > 0 for c in _taylor_shift(a[::-1]) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def vca_monomial(ints: tuple[int, ...], k: int) -> tuple[list[tuple[Fraction, Fraction]], list[Fraction]]:
    """Isolating intervals of the real roots, all inside (-2^k, 2^k), of the
    square-free integer polynomial f = ints, by Vincent-Collins-Akritas
    bisection.

    A node (c, j, a) stands for (c/2^j, (c+1)/2^j) and a polynomial a whose
    roots in (0, 1) are those of f(+-2^k x) there; its halves are
    2^n a(x/2) and the Taylor shift of that by 1.  A root at a node's end
    is a zero end coefficient of the shifted polynomial, which the sign count
    skips.  Returns (intervals, exact roots): the split points that are
    roots, and 0 when f(0) = 0, in the order found.
    """
    n = len(ints) - 1
    found, exact = [], ([] if ints[0] else [Fraction(0)])
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
                exact.append(Fraction(side * ((2 * c + 1) << k), 1 << (j + 1)))
            stack.append((2 * c, j + 1, left))
            stack.append((2 * c + 1, j + 1, right))
    return found, exact


def vca_until_root(ints: tuple[int, ...], k: int) -> tuple[list[tuple[Fraction, Fraction]], Fraction | None]:
    """The Bernstein-basis VCA with the early return of the restart loop,
    for f(0) != 0: (intervals, None), or (intervals so far, r) as soon as a
    split point r is a root.  The kernel functions are looked up on
    ``roots`` when called, so counting them counts this function's work too."""
    n = len(ints) - 1
    row = [comb(n, i) for i in range(n + 1)]
    scale = lcm(*row)
    found = []
    for side in (1, -1):
        shifted = roots._taylor_shift([c * side**i << k * i for i, c in enumerate(ints)][::-1])
        stack = [(0, 0, [shifted[n - i] * (scale // row[i]) for i in range(n + 1)])]
        while stack:
            c, j, b = stack.pop()
            v = roots._variations(b)
            if v == 0:
                continue
            if v == 1:
                lo, hi = Fraction(c << k, 1 << j), Fraction((c + 1) << k, 1 << j)
                found.append((lo, hi) if side > 0 else (-hi, -lo))
                continue
            left, right = roots._de_casteljau(b)
            if right[0] == 0:
                return found, Fraction(side * ((2 * c + 1) << k), 1 << (j + 1))
            stack.append((2 * c, j + 1, left))
            stack.append((2 * c + 1, j + 1, right))
    return found, None


def isolate_squarefree_restarting(f: PolyExact) -> list[RootEntry]:
    """Isolating entries (multiplicity 1) for all real roots of square-free f,
    f(0) != 0: a root found at a split point is recorded exactly, f is
    deflated by it and isolation restarts on the quotient."""
    entries: list[RootEntry] = []
    work = f.primitive()
    while work.degree > 1:
        found, root = vca_until_root(work.num, roots.root_bound(work))
        if root is None:
            return entries + [RootEntry(lo, hi, 1, work) for lo, hi in found]
        linear = PolyExact((-root, 1))
        entries.append(RootEntry(root, root, 1, linear))
        work = (work // linear).primitive()
    if work.degree == 1:
        r = Fraction(-work.num[0], work.num[1])
        entries.append(RootEntry(r, r, 1, work))
    return entries


def isolate_real_roots_restarting(p: PolyExact, eps: Fraction | None) -> RootSet:
    """``roots.isolate_real_roots`` with x = 0 factored out first and the
    restart loop per square-free factor; separation, refinement and snapping
    are the library's."""
    entries: list[RootEntry] = []
    zero_mult = 0
    while not p.num[zero_mult]:
        zero_mult += 1
    if zero_mult:
        entries.append(RootEntry(Fraction(0), Fraction(0), zero_mult, PolyExact.x()))
    reduced = PolyExact.from_ints(p.num[zero_mult:], p.den)
    for factor, mult in square_free_decomposition(reduced):
        for e in isolate_squarefree_restarting(factor):
            e.multiplicity = mult
            entries.append(e)
    roots._separate(entries)
    for e in entries:
        if eps is not None:
            e.refine_below(eps)
        roots._snap_to_rational(e)
    return RootSet(p, entries)
