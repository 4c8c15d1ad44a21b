"""Zero interlacing, the zero-wise partial order, and the logarithmic mesh.

All relation decisions are exact.  Intervals are compared through the
roots module, the one owner of an entry's integer frame: its overlap and
ratio helpers give the interval ends that the coincidence test and the
lmesh enclosure need, as integers.  Two isolated roots are compared by the
one root comparison of the roots module, which isolation also sorts by: it
refines the wider of two overlapping certified intervals (both when equally
wide), by one halving a round and then by doubling counts of halvings,
until they separate, and here it is given a coincidence test for roots
that never separate, a sign change of the square-free part of the gcd of
the two polynomials across the overlap.  The test runs once per
comparison, at the first overlap; later overlaps lie inside that one.  A
root is compared with a rational point, exact roots included, by at most
one sign evaluation of its factor at the point, with no refinement.  Every
decision runs until it is decided; no step budget applies.

The logarithmic mesh has one decision path: the signs of
lambda_j - q*lambda_(j+1) for consecutive zeros, each a root comparison of p
against its scaled copy p(x/q), after reflecting a negative zero set to
positive.  ``in_lmesh_class`` reads those signs directly, and ``lmesh``
reads its enclosure of max lambda_j/lambda_(j+1) off the interval pairs they
separated, with no further refinement, so lmesh(p) = q is decided exactly
through gcd(p(x), p(x/q)).  The sign pass is kept on the root set per
base, so a repeated ``lmesh`` or ``in_lmesh_class`` call on the same (set,
base) scales nothing, tests no sign and builds no gcd; ``copy()`` and
``scaled()`` start without it.  Decisions narrow the caller's root sets in
place: every refinement keeps each entry's certificate, the ascending order
and disjointness, so a later decision on the same set starts where the last
one stopped, and an ``lmesh`` call made after other decisions reads its
enclosure off the kept pairs, which those decisions may have narrowed.
Pass ``rs.copy()`` to keep the intervals as they were.  No epsilon
thresholds enter any decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import LmeshDomainError, ShapeError, UndefinedLmeshError
from .qcore import RationalLike, as_q, rat
from .qhyper import PolyExact, poly_gcd, square_free_part
from .roots import RootEntry, RootSet, _compare_roots, _overlap, _ratio_ends, _root_vs_point


class Relation(enum.Enum):
    STRICT_INTERLACE = "StrictInterlace"
    WEAK_INTERLACE = "WeakInterlace"
    DOMINATES = "Dominates"
    NONE = "None"


class DegreePattern(enum.Enum):
    EQUAL_DEGREE = "EqualDegree"
    DEGREE_MINUS_ONE = "DegreeMinusOne"


@dataclass(frozen=True)
class InterlacingReport:
    """Outcome of an interlacing test between two zero sets.

    ``witness`` is the position in the alternating inequality chain where the
    requirement first fails (None when the relation holds).  StrictInterlace
    with equal degrees implies the zero-wise order, reported as Dominates
    when interlacing itself fails but the order still holds.
    """

    relation: Relation
    degree_pattern: DegreePattern | None
    witness: int | None


@dataclass(frozen=True)
class LmeshResult:
    """Enclosure of max_j lambda_j / lambda_(j+1) and its comparison with q."""

    value_lo: Fraction
    value_hi: Fraction
    argmax_index: int
    exact_equals_q: bool
    q: Fraction

    def compare_to_q(self) -> int:
        """-1, 0, +1 for lmesh < q, = q, > q; always decided."""
        if self.exact_equals_q:
            return 0
        return -1 if self.value_hi < self.q else 1


@dataclass(frozen=True)
class ZerowiseReport:
    """lambda_k(p) <= lambda_k(r) for all k, with strict-movement detail."""

    holds: bool
    witness: int | None
    any_strict: bool


# -- root comparison ---------------------------------------------------------


class _PairContext:
    """The square-free part g of gcd(pa, pb), computed on first use."""

    def __init__(self, pa: PolyExact, pb: PolyExact):
        self._pa = pa
        self._pb = pb
        self._g: PolyExact | None = None

    def coincide(self, ea: RootEntry, eb: RootEntry) -> bool:
        """Whether overlapping entries of pa and pb hold the same root.

        The overlap [lo, hi] holds at most one distinct root of pa, since
        root intervals are separated; so g, which divides pa, has at most
        one simple root there, and has it exactly when g(lo) g(hi) <= 0.  A
        point overlap at an exact root, lo == hi, asks whether g(lo) == 0.
        Each end comes as integers from :func:`roots._overlap`, and g's sign
        there is one homogeneous Horner.
        """
        if self._g is None:
            self._g = square_free_part(poly_gcd(self._pa, self._pb))
        g = self._g
        if g.degree < 1:
            return False
        lo, hi = _overlap(ea, eb)
        at_lo, at_hi = g._homogeneous(*lo)[0], g._homogeneous(*hi)[0]
        return not at_lo or not at_hi or (at_lo > 0) != (at_hi > 0)


def compare_root_to_point(entry: RootEntry, point: RationalLike) -> int:
    """Exact sign of (root - point) for a rational point, by at most one sign
    evaluation; ``entry`` is left unchanged."""
    return _root_vs_point(entry, rat(point))


def _require_certified(rs: RootSet, what: str) -> None:
    if not rs.certified_real_rooted:
        raise ShapeError(f"{what} requires certified real-rooted input")


# -- interlacing and the partial order --------------------------------------


def interlace(rs_p: RootSet, rs_r: RootSet) -> InterlacingReport:
    """Decide whether the zeros of r interlace the zeros of p (p before r).

    StrictInterlace when every inequality of the alternating chain is strict,
    WeakInterlace when the chain holds with some tie, Dominates when the
    equal-degree zero-wise order holds but interlacing fails, None otherwise.
    Zero counts may be equal or r one lower; a gap of two or more is a shape
    error.  Both root sets are narrowed in place.
    """
    _require_certified(rs_p, "interlace")
    _require_certified(rs_r, "interlace")
    n, m = rs_p.total_count, rs_r.total_count
    if abs(n - m) >= 2:
        raise ShapeError(f"zero counts differ by {abs(n - m)}; interlacing needs gap <= 1")
    if m == n + 1:
        return InterlacingReport(Relation.NONE, None, None)
    pattern = DegreePattern.EQUAL_DEGREE if m == n else DegreePattern.DEGREE_MINUS_ONE
    lam_p, lam_r = rs_p.lambdas(), rs_r.lambdas()
    # the alternating chain lam_p[0] <= lam_r[0] <= lam_p[1] <= lam_r[1] <= ...
    pairs = []
    for k in range(m):
        pairs.append((lam_p[k], lam_r[k]))
        if k + 1 < n:
            pairs.append((lam_r[k], lam_p[k + 1]))
    coincide = _PairContext(rs_p.poly, rs_r.poly).coincide
    cmps = [_compare_roots(a, b, coincide) for a, b in pairs]
    if all(c < 0 for c in cmps):
        return InterlacingReport(Relation.STRICT_INTERLACE, pattern, None)
    if all(c <= 0 for c in cmps):
        return InterlacingReport(Relation.WEAK_INTERLACE, pattern, None)
    witness = next(i for i, c in enumerate(cmps) if c > 0)
    if pattern is DegreePattern.EQUAL_DEGREE:
        # chain positions 0, 2, 4, ... are the zero-wise comparisons
        if all(c <= 0 for i, c in enumerate(cmps) if i % 2 == 0):
            return InterlacingReport(Relation.DOMINATES, pattern, witness)
    return InterlacingReport(Relation.NONE, pattern, witness)


def zerowise_compare(rs_p: RootSet, rs_r: RootSet) -> ZerowiseReport:
    """Decide lambda_k(p) <= lambda_k(r) for all k (equal zero counts); both
    root sets are narrowed in place."""
    _require_certified(rs_p, "zero-wise comparison")
    _require_certified(rs_r, "zero-wise comparison")
    if rs_p.total_count != rs_r.total_count:
        raise ShapeError("zero-wise order needs equal zero counts")
    coincide = _PairContext(rs_p.poly, rs_r.poly).coincide
    cmps = [_compare_roots(ea, eb, coincide) for ea, eb in zip(rs_p.lambdas(), rs_r.lambdas())]
    witness = next((k for k, c in enumerate(cmps) if c > 0), None)
    return ZerowiseReport(witness is None, witness, any(c < 0 for c in cmps))


def dominates(rs_p: RootSet, rs_r: RootSet) -> bool:
    """True when every k-th smallest zero of p is <= the k-th smallest zero of r."""
    return zerowise_compare(rs_p, rs_r).holds


# -- logarithmic mesh --------------------------------------------------------


def _one_signed(rs: RootSet) -> int:
    """+1 (all roots positive) or -1 (all negative); rs is left unchanged."""
    signs = set()
    for e in rs.roots:
        s = compare_root_to_point(e, 0)
        if s == 0:
            raise LmeshDomainError("logarithmic mesh undefined for a zero at the origin")
        signs.add(s)
    if len(signs) != 1:
        raise LmeshDomainError("logarithmic mesh needs zeros of one sign")
    return signs.pop()


def _mesh_signs(rs: RootSet, q: Fraction) -> tuple[list[RootEntry], list[RootEntry], list[int]]:
    """The zeros of p (reflected to positive), the zeros of p(x/q), and
    sign(lambda_j - q*lambda_(j+1)).

    Positive zeros are the caller's entries, narrowed in place; negative
    ones are reflected copies.  A nonzero sign leaves the intervals of
    lambda_j and q*lambda_(j+1) disjoint.  The pass is kept on rs per base
    and a repeated base is a lookup: each sign is exact and final, and
    later narrowing keeps every separated pair disjoint.
    """
    kept = rs._mesh.get(q)
    if kept is None:
        pos = rs.scaled(Fraction(-1)) if _one_signed(rs) < 0 else rs
        lam = pos.lambdas()
        scaled = pos.scaled(q)
        lam_scaled = scaled.lambdas()
        coincide = _PairContext(pos.poly, scaled.poly).coincide
        cmps = [_compare_roots(lam[j], lam_scaled[j + 1], coincide) for j in range(len(lam) - 1)]
        kept = rs._mesh[q] = lam, lam_scaled, cmps
    return kept


def lmesh(rs: RootSet, q: RationalLike) -> LmeshResult:
    """Enclose lmesh(p) = max ratio of consecutive ordered zeros, decided vs q.

    Negative zero sets are reflected first (lmesh of p(-x)); a positive one
    is narrowed in place, so its enclosure may come out tighter on a set
    that earlier decisions narrowed.  Each ratio is
    enclosed as q*lambda_j / (q*lambda_(j+1)), from the intervals of lambda_j
    and q*lambda_(j+1) that the sign decision left, which are disjoint
    whenever the sign is nonzero.  So the enclosure always resolves the
    three-way comparison with q, with no refinement beyond the signs:
    a positive sign puts that ratio's lower end above q, and all-negative
    signs put every upper end below q.  Equality is established exactly,
    never numerically.
    """
    qv = as_q(q)
    _require_certified(rs, "lmesh")
    if rs.total_count < 2:
        raise UndefinedLmeshError("lmesh needs at least two zeros")
    lam, lam_scaled, cmps = _mesh_signs(rs, qv)
    # every lower end of q*lambda_(j+1) is positive: it lies above lambda_j's
    # interval, or, for a repeated zero, was lifted off 0 by separating it.
    # So each ratio's ends, q times those of lambda_j over q*lambda_(j+1)
    # from roots._ratio_ends and the upper one clamped at 1, are quotients
    # of integers with positive denominators, compared by cross-multiplying;
    # the first largest upper end is the argmax when every sign is negative.
    u, v = qv.numerator, qv.denominator
    lo_best = hi_best = None
    for j, (a, b) in enumerate(zip(lam, lam_scaled[1:])):
        (lo_n, lo_d), (hi_n, hi_d) = _ratio_ends(a, b)
        lo, hi = (u * lo_n, v * lo_d), (u * hi_n, v * hi_d)
        if hi[0] >= hi[1]:
            hi = 1, 1
        if lo_best is None or lo[0] * lo_best[1] > lo_best[0] * lo[1]:
            lo_best = lo
        if hi_best is None or hi[0] * hi_best[1] > hi_best[0] * hi[1]:
            hi_best, hi_index = hi, j
    top_sign = max(cmps)
    argmax = cmps.index(top_sign) if top_sign >= 0 else hi_index
    return LmeshResult(Fraction(*lo_best), Fraction(*hi_best), argmax, top_sign == 0, qv)


def in_lmesh_class(rs: RootSet, q: RationalLike, strict: bool) -> bool:
    """Membership of p in the class with lmesh < q (strict) or <= q (closure).

    Decided by the same signs of lambda_j - q*lambda_(j+1) that ``lmesh``
    resolves: all negative (strict) or none positive (closure).  Zero sets
    of size <= 1 are members vacuously, though a zero at the origin is still
    a domain error.
    """
    qv = as_q(q)
    _require_certified(rs, "lmesh class membership")
    if rs.total_count == 0:
        return True
    *_, cmps = _mesh_signs(rs, qv)
    return all(c < 0 for c in cmps) if strict else all(c <= 0 for c in cmps)
