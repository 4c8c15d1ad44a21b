"""Certified real-root isolation for exact-coefficient polynomials.

Every root set comes from :func:`isolate_real_roots`, which writes down
that of a polynomial of degree 0 or 1: no root, or the exact root -c_0/c_1.

Pipeline: split into square-free factors (Yun), and isolate each factor's
roots by Descartes-rule (Vincent-Collins-Akritas) bisection on its
primitive integer coefficients, over (-2^k, 0) and (0, 2^k) with 2^k a
Fujiwara bound strictly above every root, so every endpoint is dyadic.
Bisection runs in the Bernstein basis: each side is converted once, by one
Taylor shift, to integer Bernstein coefficients on (0, 1); the Descartes
test is their sign variations, and one de Casteljau pass of integer
additions gives both halves of a split.  A split point that is a root, and
0 when it is one, is recorded as an exact root, the width-0 interval
[r, r]; bisection goes on past it, and the factor is deflated once by the
exact roots, so no other interval ends on a root of its own factor.  The
entries are then sorted by the exact root comparison that the analysis
decisions use too; while two intervals overlap it refines the wider one
(both when equally wide; an exact root never narrows), by one halving a
round for four rounds and by doubling counts after, until they are
disjoint.  With ``eps=None`` isolation stops there; callers that compare
roots refine on demand.  With a rational eps every interval is further
refined by the halvings that bring its width below eps, as display output
needs.  Both take one path, quadratic interval refinement with a halving
fallback, which lands on the interval those halvings give.  No step budget
applies to either.  Last, the simplest rational in each interval
(Stern-Brocot) is tested; an exact zero there collapses the interval onto
it.  Every returned interval is therefore either a single rational root
(lo == hi) or carries an exact sign-change certificate.

All of it runs on integers: Taylor shifts, de Casteljau passes and bit
shifts of coefficient vectors, homogeneous integer Horner for every sign
test, and a continued-fraction descent on endpoint numerators and
denominators; no gcd runs per step.

Only this module reads an entry's integer frame; the analysis decisions
read intervals through the helpers beside :func:`_order`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import count
from math import comb, lcm
from operator import add

from .errors import InvalidParameterError, InvalidToleranceError
from .qcore import RationalLike, rat, rat_str
from .qhyper import PolyExact, square_free_decomposition

DEFAULT_EPS = Fraction(1, 2**100)


class RootEntry:
    """One distinct real root: isolating interval, multiplicity, certificate.

    ``factor`` is a square-free polynomial having this root as its only root
    in [lo, hi].  An exact root is the interval lo == hi, where the factor
    vanishes; otherwise factor(lo) and factor(hi) have opposite signs.

    The entry owns its interval: integer numerators over one denominator
    d 2^m, so a halving is a shift and one integer Horner, and comparisons
    cross-multiply the numerators.  ``lo``, ``hi``, ``width`` and ``exact``
    (the root when lo == hi, else None) are read-only Fraction views, built
    on each read; only :meth:`_refine` (a count of halvings, through
    :meth:`_halve`) and :meth:`pin` move the interval.  Every move keeps
    the factor's sign at lo, which :meth:`_frame` caches.
    """

    __slots__ = ("multiplicity", "factor", "_lo", "_hi", "_d", "_m", "_horner")

    def __init__(self, lo, hi, multiplicity: int, factor: PolyExact):
        self.multiplicity, self.factor = multiplicity, factor
        self._d = lcm(lo.denominator, hi.denominator)
        self._lo = lo.numerator * (self._d // lo.denominator)
        self._hi = hi.numerator * (self._d // hi.denominator)
        self._m = 0
        # the factor's coefficients times d^(deg-i), and whether it is positive at lo
        self._horner: tuple[list[int], bool] | None = None

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._d << self._m)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._d << self._m)

    @property
    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._d << self._m)

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self._lo == self._hi else None

    def copy(self) -> "RootEntry":
        return copy.copy(self)

    def pin(self, x: Fraction) -> None:
        """Collapse [lo, hi] onto x, a zero of the factor in it."""
        self._lo = self._hi = x.numerator
        self._d, self._m = x.denominator, 0

    def _frame(self) -> tuple[list[int], bool]:
        """``_horner``, built on first use; every move of lo keeps its sign."""
        if self._horner is None:
            n = len(self.factor.num) - 1
            scaled = [c * self._d ** (n - i) for i, c in enumerate(self.factor.num)]
            self._horner = scaled, _value(scaled, self._lo, self._m) > 0
        return self._horner

    def _halve(self, times: int) -> int:
        """Halve [lo, hi] ``times`` times, keeping the half that holds the
        root; a midpoint that is the root pins the entry and stops.  Returns
        the factor's :func:`_value` at the last midpoint, 0 when it pinned."""
        if self._lo == self._hi or not times:
            return 0
        scaled, positive_at_lo = self._frame()
        lo, hi, m = self._lo, self._hi, self._m
        for _ in range(times):
            mid = lo + hi
            lo <<= 1
            hi <<= 1
            m += 1
            v = _value(scaled, mid, m)
            if v == 0:
                self.pin(Fraction(mid, self._d << m))
                return 0
            if (v > 0) == positive_at_lo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi, self._m = lo, hi, m
        return v

    def refine_below(self, width: Fraction) -> None:
        """Refine until the interval is narrower than ``width`` or the root is
        found: :meth:`_refine` by the halvings that bring it below ``width``."""
        h = (self._hi - self._lo) * width.denominator
        self._refine((h // (width.numerator * self._d << self._m)).bit_length())

    def _refine(self, halvings: int) -> None:
        """Narrow to the interval that exactly ``halvings`` halvings give, or
        to the root, by quadratic interval refinement (Abbott 2006; Kerber
        and Sagraloff 2011), with no step budget.

        A step splits [lo, hi] into N = 2^k cells, one frame finer (over
        d 2^(m+k)), and tests the grid point nearest the secant of the
        exact endpoint values, and its neighbour on the root's side: a sign
        change keeps that cell, k of the halvings, and squares N; otherwise
        one :meth:`_halve` and N goes to its square root.  A grid point that
        is the root pins the entry.  Endpoint values carry across steps,
        shifted by k deg into the finer frame.  While the halvings left cost
        no more than one step's evaluations, it halves.  k never exceeds the
        halvings left, so every kept cell is one that halving passes through.
        """
        if halvings <= 4:  # the first step evaluates lo, hi and two grid points
            self._halve(halvings)
            return
        scaled, positive_at_lo = self._frame()
        n = len(scaled) - 1
        flo, fhi = _value(scaled, self._lo, self._m), _value(scaled, self._hi, self._m)
        k = 2
        while halvings > 2:  # a step evaluates at most two grid points
            k = min(k, halvings)
            cells = 1 << k
            h, m = self._hi - self._lo, self._m + k
            lo, hi = self._lo << k, self._hi << k
            al, ah = abs(flo), abs(fhi)
            t = (2 * cells * al + al + ah) // (2 * (al + ah))  # round(N f(lo) / (f(lo) - f(hi)))
            x = lo + min(max(t, 1), cells - 1) * h
            v = _value(scaled, x, m)
            above = (v > 0) == positive_at_lo  # the root lies above x
            y = x + h if above else x - h  # x's neighbour on the root's side
            w = flo << k * n if y == lo else fhi << k * n if y == hi else _value(scaled, y, m)
            if v == 0 or w == 0:
                self.pin(Fraction(x if v == 0 else y, self._d << m))
                return
            if ((w > 0) == positive_at_lo) != above:  # a sign change: keep that cell
                if above:
                    self._lo, self._hi, flo, fhi = x, y, v, w
                else:
                    self._lo, self._hi, flo, fhi = y, x, w, v
                self._m = m
                halvings -= k
                k *= 2
            else:
                v = self._halve(1)
                if not v:
                    return
                if (v > 0) == positive_at_lo:
                    flo, fhi = v, fhi << n
                else:
                    flo, fhi = flo << n, v
                halvings -= 1
                k = max(1, k // 2)
        self._halve(halvings)


@dataclass(frozen=True)
class RootSet:
    """Ordered certified real roots of ``poly``.

    Entries are sorted ascending with pairwise disjoint closed intervals,
    each containing exactly one distinct root.  A set is built from
    ``poly`` and ``roots`` alone: ``total_count`` (the roots counted with
    multiplicity) and ``certified_real_rooted`` (True exactly when that
    count equals the degree) are set from them once, on construction.  The
    fields cannot be rebound, but the entries narrow: the relation decisions
    refine them in place, and every refinement keeps each certificate, the
    order and disjointness.  :meth:`copy` keeps a set's intervals apart from
    later refinement.

    ``_mesh`` keeps the logarithmic-mesh sign pass of the analysis module
    per base: the zeros (reflected to positive), the zeros of the scaled
    copy and the exact signs, which no later narrowing can change.
    :meth:`copy`, :meth:`scaled` and ``dataclasses.replace`` start without it.
    """

    poly: PolyExact
    roots: list[RootEntry]
    total_count: int = field(init=False)
    certified_real_rooted: bool = field(init=False)
    _mesh: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = sum(e.multiplicity for e in self.roots)
        object.__setattr__(self, "total_count", total)
        object.__setattr__(self, "certified_real_rooted", total == self.poly.degree)

    def copy(self) -> "RootSet":
        """The same root set with every entry copied, refined apart from this one."""
        return replace(self, roots=[e.copy() for e in self.roots])

    def scaled(self, c: Fraction) -> "RootSet":
        """The root set of p(x/c), c != 0: each root maps to c*root.

        Each entry stays in its integer frame: with c = s/t, its numerators
        are multiplied by s (and swap when c < 0) and its denominator by t.
        Each distinct factor is rescaled once.  Certificates follow the map;
        the order reverses when c < 0.
        """
        s, t = c.numerator, c.denominator
        factors: dict[int, PolyExact] = {}
        entries = []
        for e in self.roots:
            f = e.copy()
            f._lo, f._hi = (s * e._lo, s * e._hi) if s > 0 else (s * e._hi, s * e._lo)
            f._d, f._horner = t * e._d, None
            if id(e.factor) not in factors:
                factors[id(e.factor)] = e.factor.scale_arg(1 / c)
            f.factor = factors[id(e.factor)]
            entries.append(f)
        if c < 0:
            entries.reverse()
        return replace(self, poly=self.poly.scale_arg(1 / c), roots=entries)

    def lambdas(self) -> list[RootEntry]:
        """The zeros in increasing order with multiplicity: one entry per zero."""
        out = []
        for e in self.roots:
            out.extend([e] * e.multiplicity)
        return out


def root_bound(f: PolyExact) -> int:
    """A k >= 0 with |root| < 2**k for every root of f.

    Fujiwara's bound 2 max_i |c_(n-i)/c_n|^(1/i), by bit lengths: each ratio
    is below 2^e_i with e_i = bits(c_(n-i)) - bits(c_n) + 1.
    """
    ints = f.num
    lead = ints[-1].bit_length()
    exps = [-((lead - abs(c).bit_length() - 1) // i) for i, c in enumerate(reversed(ints[:-1]), 1) if c]
    return max(1 + max(exps, default=0), 0)


def _simplest(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of the rational of smallest
    denominator (then numerator) in [a/b, c/d], for b, d > 0 and
    a/b <= c/d, reduced or not.

    Continued-fraction descent: for 0 < a/b <= c/d, the answer is
    ceil(a/b) when that is <= c/d, else t + 1/y with t = floor(a/b) and y
    the answer for [d/(c - td), b/(a - tb)].  Every step keeps the values,
    so unreduced endpoints give the same descent.  The steps compose into
    one unimodular matrix (p, p1; r, r1), applied at the end, so the result
    is in lowest terms.
    """
    if a <= 0 <= c:
        return 0, 1
    sign = 1
    if c < 0:
        sign, a, b, c, d = -1, -c, d, -a, b
    p, p1, r, r1 = 1, 0, 0, 1
    while -(-a // b) * d > c:  # no integer in [a/b, c/d]
        t = a // b
        a, b, c, d = d, c - t * d, b, a - t * b
        p, p1, r, r1 = p * t + p1, p, r * t + r1, r
    y = -(-a // b)
    return sign * (p * y + p1), r * y + r1


def simplest_rational_between(lo: RationalLike, hi: RationalLike) -> Fraction:
    """The rational of smallest denominator (then numerator) in [lo, hi]."""
    lov, hiv = sorted((rat(lo), rat(hi)))
    return Fraction(*_simplest(lov.numerator, lov.denominator, hiv.numerator, hiv.denominator))


def _taylor_shift(a: list[int]) -> list[int]:
    """The coefficients of a(x + 1), by n(n+1)/2 integer additions."""
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _variations(b: list[int]) -> int:
    """Sign variations of b, zeros skipped, counted up to 2."""
    count, last = 0, 0
    for c in b:
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    return 2
            last = c
    return count


def _de_casteljau(w: list[int]) -> tuple[list[int], list[int]]:
    """Split scaled Bernstein coefficients on (0, 1) at 1/2: the scaled
    Bernstein coefficients of 2^n a(x/2) and 2^n a((x+1)/2) for a the
    polynomial that ``w`` stands for.

    One de Casteljau pass without its halvings, w_i <- w_i + w_(i+1) for
    r = 1..n, gives left_r = w_0^(r) 2^(n-r) and right_i = w_i^(n-i) 2^i,
    by n(n+1)/2 integer additions; left[n] = right[0] is 2^n a(1/2) times
    the scale.
    """
    n = len(w) - 1
    left, right = [w[0] << n], [w[n] << n]
    for r in range(n - 1, -1, -1):
        w = list(map(add, w, w[1:]))
        left.append(w[0] << r)
        right.append(w[-1] << r)
    right.reverse()
    return left, right


def _vca(ints: tuple[int, ...], k: int) -> tuple[list[tuple[Fraction, Fraction]], list[Fraction]]:
    """Isolating intervals of the real roots, all inside (-2^k, 2^k), of the
    square-free integer polynomial f = ints, by Vincent-Collins-Akritas
    bisection in the Bernstein basis (Rouillier and Zimmermann 2004).

    A node (c, j, b) stands for (c/2^j, (c+1)/2^j) and a polynomial a of
    degree n whose roots in (0, 1) are those of f(+-2^k x) there; b holds
    a's Bernstein coefficients on (0, 1), a = sum B_i C(n,i) x^i (1-x)^(n-i),
    times L = lcm_i C(n,i): b_i = L B_i, an integer.  Each side converts
    once: B_i C(n,i) is the coefficient of x^(n-i) in (x+1)^n a(1/(x+1)),
    one Taylor shift.  That is the polynomial whose sign variations
    Descartes' rule counts, and b_i is its coefficient times L/C(n,i) > 0,
    so the signs are equal and the variations of b are the Descartes count:
    0 or 1 is the exact number of roots in (0, 1); a larger count bounds
    it, with the same parity.  A split is one :func:`_de_casteljau` pass, giving both
    halves 2^n a(x/2) and 2^n a((x+1)/2) at once, in the same scale; the
    split point is a root exactly when their shared end coefficient is 0.
    The halves are the polynomials of monomial-basis bisection, so every
    count, the tree and its order are those of that method, with one pass
    per split instead of one per node and one per split.

    A root at an end of a node needs no deflation.  With b_0 = 0, a = x g
    and b_i = (i/n) L G_(i-1) for g's Bernstein coefficients G, positive
    multiples; with b_n = 0 the multiples are (n-i)/n.  The variations of
    b, zeros skipped, are then g's Descartes count, so both halves of a
    split at a root go on, and 0 and 1 stay exact counts.  Returns
    (intervals, exact roots): the split points that are roots, and 0 when
    f(0) = 0, in the order found.
    """
    n = len(ints) - 1
    row = [comb(n, i) for i in range(n + 1)]
    scale = lcm(*row)
    found, exact = [], ([] if ints[0] else [Fraction(0)])
    for side in (1, -1):
        shifted = _taylor_shift([c * side**i << k * i for i, c in enumerate(ints)][::-1])
        stack = [(0, 0, [shifted[n - i] * (scale // row[i]) for i in range(n + 1)])]
        while stack:
            c, j, b = stack.pop()
            v = _variations(b)
            if v == 0:
                continue
            if v == 1:
                lo, hi = Fraction(c << k, 1 << j), Fraction((c + 1) << k, 1 << j)
                found.append((lo, hi) if side > 0 else (-hi, -lo))
                continue
            left, right = _de_casteljau(b)
            if right[0] == 0:
                exact.append(Fraction(side * ((2 * c + 1) << k), 1 << (j + 1)))
            stack.append((2 * c, j + 1, left))
            stack.append((2 * c + 1, j + 1, right))
    return found, exact


def _isolate_squarefree(f: PolyExact) -> list[RootEntry]:
    """Isolating entries (multiplicity 1) for all real roots of square-free f.

    One :func:`_vca` pass when deg f >= 2.  Each exact root r it finds is an
    entry with factor x - r; the others take as factor f deflated once by
    all exact roots, which vanishes at none of their ends (split points, 0,
    +-2^k) and changes sign across each.  A quotient of degree 1 gives its
    root exactly.
    """
    work = f.primitive()
    found, exact = _vca(work.num, root_bound(work)) if work.degree > 1 else ([], [])
    entries = [RootEntry(r, r, 1, PolyExact((-r, 1))) for r in exact]
    if exact:
        work = (work // PolyExact.from_roots(exact)).primitive()
    if work.degree == 1:
        return entries + [_linear_entry(work)]
    return entries + [RootEntry(lo, hi, 1, work) for lo, hi in found]


def _linear_entry(f: PolyExact) -> RootEntry:
    """The exact entry of the root -c_0/c_1 of a primitive f of degree 1,
    with f as its factor."""
    r = Fraction(-f.num[0], f.num[1])
    return RootEntry(r, r, 1, f)


def _value(scaled: list[int], x: int, m: int) -> int:
    """(d 2^m)^deg f(x / (d 2^m)) for ``scaled`` the coefficients of f times
    d^(deg-i): Horner with coefficient i shifted by m(deg-i).  Its sign is
    the sign of f at x / (d 2^m); the same point in the frame m + k, x 2^k,
    has this value shifted by k deg."""
    n = len(scaled) - 1
    acc = scaled[n]
    for i in range(n - 1, -1, -1):
        acc = acc * x + (scaled[i] << m * (n - i))
    return acc


def _root_vs_point(entry: RootEntry, pt: Fraction) -> int:
    """Exact sign of (root - pt) by at most one sign evaluation, leaving the
    entry unchanged: [lo, hi] holds one simple root, so a point inside lies
    below it exactly when the factor has its sign at lo there."""
    x, den = pt.numerator * (entry._d << entry._m), pt.denominator
    if x < entry._lo * den:
        return 1
    if x > entry._hi * den:
        return -1
    v = entry.factor._homogeneous(pt.numerator, den)[0]
    if not v:
        return 0
    return 1 if (v > 0) == entry._frame()[1] else -1


def _order(ea: RootEntry, eb: RootEntry) -> int:
    """-1 or +1 when ea's interval lies below or above eb's, 0 if they meet."""
    da, db = ea._d << ea._m, eb._d << eb._m
    if ea._hi * db < eb._lo * da:
        return -1
    return 1 if eb._hi * da < ea._lo * db else 0


def _overlap(ea: RootEntry, eb: RootEntry) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends lo and hi of two meeting intervals' overlap, each as its
    entry's (numerator, denominator d 2^m)."""
    da, db = ea._d << ea._m, eb._d << eb._m
    lo = (ea._lo, da) if ea._lo * db >= eb._lo * da else (eb._lo, db)
    hi = (ea._hi, da) if ea._hi * db <= eb._hi * da else (eb._hi, db)
    return lo, hi


def _ratio_ends(ea: RootEntry, eb: RootEntry) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends lo_a / hi_b and hi_a / lo_b of ea's interval over eb's, a
    positive one, each as an integer (numerator, denominator)."""
    da, db = ea._d << ea._m, eb._d << eb._m
    return (ea._lo * db, eb._hi * da), (ea._hi * db, eb._lo * da)


def _compare_roots(ea: RootEntry, eb: RootEntry, coincide=None) -> int:
    """Exact sign of (root_a - root_b), refining the entries in place; a
    nonzero sign leaves the two intervals disjoint.

    ``coincide(ea, eb)`` tells whether overlapping intervals hold one shared
    root; without it the roots must be distinct.  It is asked once, at the
    first overlap: both intervals only shrink, so every later overlap lies
    inside the first one, where no shared root was found.  While the
    intervals overlap, the wider one is refined, or both when their widths
    are equal; an exact root, of width 0, never refines.  Overlapping round
    r takes 2^max(r-4, 0) halvings through :meth:`RootEntry._refine`: one a
    round for four rounds, where most pairs separate, then 2, 4, 8, ...,
    so roots 2^-N apart separate in about log2 N rounds.  It ends: the
    larger width at least halves every two rounds, and a width-0 entry
    leaves the other one to narrow every round, so distinct roots separate;
    the gcd sign test proves a shared root at the first overlap, a point
    overlap at an exact root included.  Without ``coincide`` the roots are
    distinct, so two width-0 entries, which cannot narrow, never meet.
    """
    for r in count(1):
        c = _order(ea, eb)
        if c:
            return c
        if coincide is not None:
            if coincide(ea, eb):
                return 0
            coincide = None
        wa = (ea._hi - ea._lo) * (eb._d << eb._m)
        wb = (eb._hi - eb._lo) * (ea._d << ea._m)
        if wa >= wb:
            ea._refine(1 << max(r - 4, 0))
        if wb >= wa:
            eb._refine(1 << max(r - 4, 0))


def _separate(entries: list[RootEntry]) -> None:
    """Sort entries of distinct roots by :func:`_compare_roots`.  A comparison
    sort compares every pair it leaves adjacent, so the intervals come out
    ascending and pairwise disjoint."""
    entries.sort(key=cmp_to_key(_compare_roots))


def _snap_to_rational(e: RootEntry) -> None:
    """Pin the entry to the simplest rational in its interval when that is
    the root.  By the rational root theorem, n/d in lowest terms is a root of
    the factor's integer coefficients only if n divides the constant one and
    d the leading one, so only such a candidate is evaluated, by homogeneous
    Horner on n and d.  The descent runs on the entry's integers, lo and hi
    over d 2^m, and a Fraction is built only for a root it finds."""
    if e._lo == e._hi:
        return
    den = e._d << e._m
    n, d = _simplest(e._lo, den, e._hi, den)
    coeffs = e.factor.num
    if n and coeffs[0] % n == 0 and coeffs[-1] % d == 0 and not e.factor._homogeneous(n, d)[0]:
        e.pin(Fraction(n, d))


def isolate_real_roots(p: PolyExact, eps: RationalLike | None = DEFAULT_EPS) -> RootSet:
    """Isolate all real roots of p with certified intervals.

    Rational roots found on the way come back with exact values; every
    other root gets a sign-certified interval, of width < eps when eps is
    given, or just disjoint from the others when eps is None; a linear p
    gets the exact entry of -c_0/c_1 with factor ``p.primitive()``.  The
    result is certified real-rooted exactly when the roots found (with
    multiplicity) account for the full degree.
    """
    epsv = None if eps is None else rat(eps)
    if epsv is not None and epsv <= 0:
        raise InvalidToleranceError(f"eps must be > 0, got {rat_str(epsv)}")
    if p.is_zero:
        raise InvalidParameterError("cannot isolate roots of the zero polynomial")

    if p.degree <= 1:  # no root, or the exact root -c_0/c_1
        entries = [_linear_entry(p.primitive())] if p.degree == 1 else []
    else:
        entries = []
        for factor, mult in square_free_decomposition(p):
            for e in _isolate_squarefree(factor):
                e.multiplicity = mult
                entries.append(e)
        _separate(entries)
        for e in entries:
            if epsv is not None:
                e.refine_below(epsv)
            _snap_to_rational(e)
    return RootSet(p, entries)
