"""Certified real-root isolation for exact-coefficient polynomials.

Pipeline: factor out x = 0 exactly, split into square-free factors (Yun),
isolate each factor's roots by bisection on Sturm sign-variation counts,
starting from [-B, B] with B the least power of two at or above the Cauchy
bound, so that every bisection point is a dyadic rational.  A bisection
point that hits a root exactly is recorded as an exact rational root (the
factor is deflated and isolation restarts).  Intervals of different factors
are then bisected until they are pairwise disjoint.  With ``eps=None``
isolation stops there; callers that compare roots refine on demand (the
analysis module does so for every decision).  With a rational eps every
interval is further refined by sign bisection until its width drops below
eps, as display output needs.  Last, the simplest rational in each interval
(Stern-Brocot) is tested; an exact zero there upgrades the interval to an
exact root.  Every returned interval therefore carries either an exact
rational root or an exact sign-change certificate.

Every sign test (Sturm variations, bisection, exact-root checks) goes
through :meth:`PolyExact.sign_at`, which evaluates the polynomial's integer
coefficients by homogeneous integer Horner: no rational arithmetic and no
gcd per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InvalidParameterError, InvalidToleranceError, RefinementFailureError
from .qcore import RationalLike, rat
from .qhyper import PolyExact, square_free_decomposition

DEFAULT_EPS = Fraction(1, 2**100)
DEFAULT_BUDGET = 10_000


@dataclass
class RootEntry:
    """One distinct real root: isolating interval, multiplicity, certificate.

    ``factor`` is a square-free polynomial having this root as its only root
    in [lo, hi]; for a non-exact entry factor(lo) and factor(hi) have opposite
    signs.  ``exact`` is set when the root is a known rational, in which case
    lo == hi == exact.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int
    exact: Fraction | None
    factor: PolyExact
    _sign_lo: int = field(default=0, repr=False)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def copy(self) -> "RootEntry":
        return RootEntry(self.lo, self.hi, self.multiplicity, self.exact, self.factor, self._sign_lo)

    def bisect_once(self) -> None:
        """One refinement step; may discover the root exactly."""
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        s = self.factor.sign_at(mid)
        if s == 0:
            self.exact = mid
            self.lo = self.hi = mid
            return
        if self._sign_lo == 0:
            self._sign_lo = self.factor.sign_at(self.lo)
        if s == self._sign_lo:
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width: Fraction, budget: int = DEFAULT_BUDGET) -> None:
        steps = 0
        while self.exact is None and self.width >= width:
            if steps >= budget:
                raise RefinementFailureError(
                    f"exceeded {budget} bisections refining toward width {width}"
                )
            self.bisect_once()
            steps += 1


@dataclass(frozen=True)
class RootSet:
    """Ordered certified real roots of ``poly``.

    Entries are sorted ascending with pairwise disjoint closed intervals,
    each containing exactly one distinct root.  ``total_count`` counts roots
    with multiplicity; ``certified_real_rooted`` is True exactly when that
    count equals the degree.  The fields cannot be rebound; code that refines
    entries works on :meth:`copy` or :meth:`scaled`.
    """

    poly: PolyExact
    roots: list[RootEntry]
    total_count: int
    certified_real_rooted: bool

    def copy(self) -> "RootSet":
        """The same root set with every entry copied, free to refine."""
        return replace(self, roots=[e.copy() for e in self.roots])

    def scaled(self, c: Fraction) -> "RootSet":
        """The root set of p(x/c), c != 0: each root maps to c*root.

        Intervals and certificates follow the map; the order reverses when
        c < 0.
        """
        entries = []
        for e in self.roots:
            lo, hi = (c * e.lo, c * e.hi) if c > 0 else (c * e.hi, c * e.lo)
            exact = None if e.exact is None else c * e.exact
            entries.append(RootEntry(lo, hi, e.multiplicity, exact, e.factor.scale_arg(1 / c)))
        if c < 0:
            entries.reverse()
        return replace(self, poly=self.poly.scale_arg(1 / c), roots=entries)

    def lambdas(self) -> list[RootEntry]:
        """The zeros in increasing order with multiplicity: one entry per zero."""
        out = []
        for e in self.roots:
            out.extend([e] * e.multiplicity)
        return out


class SturmChain:
    """Sturm sequence of a square-free polynomial, primitive-normalized."""

    def __init__(self, f: PolyExact):
        self.f = f
        # chain elements may be rescaled by positive constants only
        chain = [f.primitive(positive_leading=False), f.derivative().primitive(positive_leading=False)]
        while chain[-1].degree > 0:
            rem = (chain[-2] % chain[-1])
            if rem.is_zero:
                break
            chain.append((-rem).primitive(positive_leading=False))
        if chain[-1].is_zero:
            chain.pop()
        self.chain = chain
        self._cache: dict[Fraction, int] = {}

    def variations(self, x: Fraction) -> int:
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        signs = [p.sign_at(x) for p in self.chain]
        count = 0
        prev = 0
        for s in signs:
            if s == 0:
                continue
            if prev != 0 and s != prev:
                count += 1
            prev = s
        self._cache[x] = count
        return count

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi]; call with non-root endpoints."""
        if hi <= lo:
            return 0
        return self.variations(lo) - self.variations(hi)


def cauchy_bound(f: PolyExact) -> Fraction:
    """B = 1 + max |e_i / e_n|; every root satisfies |root| < B strictly."""
    if f.degree < 1:
        raise InvalidParameterError("root bound needs degree >= 1")
    lead = abs(f.coeffs[-1])
    return 1 + max(abs(c) / lead for c in f.coeffs[:-1])


def _ceil_log2(x: Fraction) -> int:
    """The least k >= 0 with 2**k >= x, for x > 0."""
    ceil_x = -(-x.numerator // x.denominator)
    return max(ceil_x - 1, 0).bit_length()


def simplest_rational_between(lo: RationalLike, hi: RationalLike) -> Fraction:
    """The rational of smallest denominator (then numerator) in [lo, hi]."""
    lov, hiv = rat(lo), rat(hi)
    if hiv < lov:
        lov, hiv = hiv, lov
    if lov <= 0 <= hiv:
        return Fraction(0)
    if lov > 0:
        return _simplest_positive(lov, hiv)
    return -_simplest_positive(-hiv, -lov)


def _simplest_positive(lo: Fraction, hi: Fraction) -> Fraction:
    # 0 < lo <= hi; continued-fraction descent
    floor_lo = lo.numerator // lo.denominator
    if floor_lo >= lo:  # lo is an integer
        return Fraction(floor_lo)
    if floor_lo + 1 <= hi:
        return Fraction(floor_lo + 1)
    frac = _simplest_positive(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


def _isolate_squarefree(f: PolyExact) -> list[RootEntry]:
    """Isolating entries (multiplicity 1) for all real roots of square-free f."""
    entries: list[RootEntry] = []
    work = f.primitive()
    while True:
        if work.degree <= 0:
            return entries
        if work.degree == 1:
            r = -work.coeffs[0] / work.coeffs[1]
            entries.append(RootEntry(r, r, 1, r, work))
            return entries
        chain = SturmChain(work)
        # a power of two strictly above every root keeps all midpoints dyadic
        bound = Fraction(2 ** _ceil_log2(cauchy_bound(work)))
        stack = [(-bound, bound)]
        found: list[tuple[Fraction, Fraction]] = []
        deflated = False
        steps = 0
        while stack:
            steps += 1
            if steps > DEFAULT_BUDGET * max(work.degree, 1):
                raise RefinementFailureError("root isolation did not terminate")
            lo, hi = stack.pop()
            c = chain.count(lo, hi)
            if c == 0:
                continue
            if c == 1:
                found.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if work.sign_at(mid) == 0:
                entries.append(RootEntry(mid, mid, 1, mid, PolyExact((-mid, 1))))
                work = (work // PolyExact((-mid, 1))).primitive()
                deflated = True
                break
            stack.append((lo, mid))
            stack.append((mid, hi))
        if not deflated:
            entries.extend(RootEntry(lo, hi, 1, None, work) for lo, hi in found)
            return entries


def _overlap(a: RootEntry, b: RootEntry) -> bool:
    return a.hi >= b.lo and b.hi >= a.lo


def _separate(entries: list[RootEntry]) -> None:
    """Refine until all closed intervals are pairwise disjoint."""
    steps = 0
    while True:
        entries.sort(key=lambda e: (e.lo, e.hi))
        clashing = [
            (entries[i], entries[i + 1])
            for i in range(len(entries) - 1)
            if _overlap(entries[i], entries[i + 1])
        ]
        if not clashing:
            return
        for a, b in clashing:
            a.bisect_once()
            b.bisect_once()
        steps += 1
        if steps > DEFAULT_BUDGET:
            raise RefinementFailureError("could not separate root intervals")


def _snap_to_rational(e: RootEntry) -> None:
    if e.exact is not None or e.lo == e.hi:
        return
    candidate = simplest_rational_between(e.lo, e.hi)
    if e.factor.sign_at(candidate) == 0:
        e.exact = candidate
        e.lo = e.hi = candidate


def isolate_real_roots(p: PolyExact, eps: RationalLike | None = DEFAULT_EPS) -> RootSet:
    """Isolate all real roots of p with certified intervals.

    Zero roots and rational roots found on the way come back with exact
    values; everything else gets a sign-certified interval, of width < eps
    when eps is given, or just disjoint from the others when eps is None.
    The result is certified real-rooted exactly when the roots found (with
    multiplicity) account for the full degree.
    """
    epsv = None if eps is None else rat(eps)
    if epsv is not None and epsv <= 0:
        raise InvalidToleranceError(f"eps must be > 0, got {epsv}")
    if p.is_zero:
        raise InvalidParameterError("cannot isolate roots of the zero polynomial")

    entries: list[RootEntry] = []
    zero_mult = 0
    while zero_mult < len(p.coeffs) and p.coeffs[zero_mult] == 0:
        zero_mult += 1
    if zero_mult:
        entries.append(RootEntry(Fraction(0), Fraction(0), zero_mult, Fraction(0), PolyExact.x()))
    reduced = PolyExact(p.coeffs[zero_mult:])

    for factor, mult in square_free_decomposition(reduced):
        for e in _isolate_squarefree(factor):
            e.multiplicity = mult
            entries.append(e)

    _separate(entries)
    for e in entries:
        if epsv is not None:
            e.refine_below(epsv)
        _snap_to_rational(e)
    entries.sort(key=lambda e: e.lo)

    total = sum(e.multiplicity for e in entries)
    return RootSet(
        poly=p,
        roots=entries,
        total_count=total,
        certified_real_rooted=(total == p.degree),
    )
