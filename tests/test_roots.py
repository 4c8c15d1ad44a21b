"""Certified isolation: exact roots, multiplicities, certificates, refinement."""

import ast
from collections import Counter
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from functools import cache
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qzeros import (
    InvalidParameterError,
    InvalidToleranceError,
    PolyExact,
    RootEntry,
    RootSet,
    isolate_real_roots,
    little_q_jacobi,
    q_bessel,
    q_laguerre,
    square_free_decomposition,
    stieltjes_wigert,
)
from qzeros import qhyper, roots
from qzeros.roots import root_bound, simplest_rational_between
from polyexact_reference import sign_at
from sturm_reference import isolate_squarefree_sturm
import vca_reference


def entry_values(rs):
    return [(e.exact, e.multiplicity) for e in rs.roots]


def test_rational_roots_of_linear_factors_are_exact():
    rs = isolate_real_roots(PolyExact((1, -6, 8)))  # (1-2x)(1-4x)
    assert entry_values(rs) == [(F(1, 4), 1), (F(1, 2), 1)]
    assert rs.certified_real_rooted and rs.total_count == 2


def test_root_set_is_frozen():
    rs = isolate_real_roots(PolyExact((1, -6, 8)))
    with pytest.raises(FrozenInstanceError):
        rs.roots = []


def test_root_set_counts_come_only_from_its_roots():
    """RootSet takes only poly and roots: a count or a certificate given
    beside them is a TypeError, so no set can claim more roots than its
    entries hold."""
    rs = isolate_real_roots(PolyExact((1, -6, 8)))
    with pytest.raises(TypeError):
        RootSet(rs.poly, rs.roots, 5, True)
    with pytest.raises(TypeError):
        RootSet(rs.poly, rs.roots, total_count=5)
    with pytest.raises(TypeError):
        RootSet(rs.poly, rs.roots, certified_real_rooted=True)
    part = RootSet(rs.poly, rs.roots[:1])
    assert (part.total_count, part.certified_real_rooted) == (1, False)


def test_root_set_copy_and_scaled():
    rs = isolate_real_roots(PolyExact((-2, 0, 1)) * PolyExact((1, -4)))  # +-sqrt2, 1/4
    dup = rs.copy()
    assert all(a is not b for a, b in zip(dup.roots, rs.roots))
    dup.roots[0]._halve(1)
    assert (dup.roots[0].lo, dup.roots[0].hi) != (rs.roots[0].lo, rs.roots[0].hi)
    neg = rs.scaled(F(-2))  # roots of p(-x/2): -2 * root, order reversed
    assert neg.total_count == rs.total_count and neg.certified_real_rooted
    assert [e.exact for e in neg.roots] == [None, F(-1, 2), None]
    for e, orig in zip(neg.roots, reversed(rs.roots)):
        assert (e.lo, e.hi) == (-2 * orig.hi, -2 * orig.lo)
        assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) <= 0
        assert sign_at(neg.poly, e.lo) * sign_at(neg.poly, e.hi) <= 0
    for c in (F(-3, 2), F(5, 3)):  # each entry's frame takes an unreduced denominator
        out = rs.scaled(c)
        assert out.poly == rs.poly.scale_arg(1 / c)
        for e, orig in zip(out.roots, rs.roots if c > 0 else reversed(rs.roots)):
            assert (e.lo, e.hi) == tuple(sorted((c * orig.lo, c * orig.hi)))
            assert e.exact == (None if orig.exact is None else c * orig.exact)
            assert e.multiplicity == orig.multiplicity
            assert e.factor == orig.factor.scale_arg(1 / c)
            if e.exact is None:
                lo, hi = e.lo, e.hi
                e.refine_below(F(1, 2**20))
                assert lo <= e.lo < e.hi <= hi and e.width < F(1, 2**20)
                assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) < 0


def test_origin_root_with_multiplicity():
    rs = isolate_real_roots(PolyExact((0, 0, 1)))  # x^2
    assert entry_values(rs) == [(F(0), 2)]
    assert rs.certified_real_rooted


def test_mixed_multiplicities_and_sign_certificates():
    # (x^2 - 2)^3 (x^2 - 3)^2: irrational roots of multiplicity 3 and 2
    p2 = PolyExact((-2, 0, 1))
    p3 = PolyExact((-3, 0, 1))
    p = p2 * p2 * p2 * p3 * p3
    rs = isolate_real_roots(p)
    assert rs.certified_real_rooted and rs.total_count == 10
    mults = [e.multiplicity for e in rs.roots]
    assert mults == [2, 3, 3, 2]  # -sqrt3, -sqrt2, sqrt2, sqrt3
    for e in rs.roots:
        assert e.exact is None
        # certificate on the square-free factor
        assert e.factor(e.lo) * e.factor(e.hi) < 0
        # odd-multiplicity roots flip the sign of p itself
        if e.multiplicity % 2 == 1:
            assert p(e.lo) * p(e.hi) < 0
        else:
            assert p(e.lo) * p(e.hi) > 0


def test_intervals_disjoint_and_sorted():
    p = PolyExact.from_roots([F(1, 7), F(1, 5), F(1, 3), F(2, 5), F(1, 2)])
    rs = isolate_real_roots(p)
    for left, right in zip(rs.roots, rs.roots[1:]):
        assert left.hi < right.lo


def test_errors():
    with pytest.raises(InvalidToleranceError):
        isolate_real_roots(PolyExact((1, 1)), 0)
    with pytest.raises(InvalidParameterError):
        isolate_real_roots(PolyExact.zero())


def test_constant_has_no_roots():
    rs = isolate_real_roots(PolyExact((5,)))
    assert rs.roots == [] and rs.certified_real_rooted


def test_no_real_roots_not_certified():
    rs = isolate_real_roots(PolyExact((1, 0, 1)))  # x^2 + 1
    assert rs.roots == [] and rs.total_count == 0
    assert not rs.certified_real_rooted


def test_root_bound_contains_roots():
    p = PolyExact.from_roots([-9, F(17, 3), F(1, 4)])
    b = 2 ** root_bound(p)
    assert b > 9 and b > F(17, 3)
    # roots 2^k lie strictly inside, and the bound is at most 8 times the root
    for k in (0, 5, 300):
        assert k < root_bound(PolyExact.from_roots([2**k, 1])) <= k + 3
        assert k < root_bound(PolyExact((-(4**k), 0, 1))) <= k + 3


def test_isolation_far_from_the_origin():
    """Roots near 2^10000, where the Cauchy bound is 2^20002: isolation and
    refinement take every halving the roots need, with no step budget."""
    p = PolyExact((-2 * 4**10000, 0, 1))  # roots +-sqrt(2) 2^10000
    rs = isolate_real_roots(p)
    assert rs.certified_real_rooted and len(rs.roots) == 2
    for e, sign in zip(rs.roots, (-1, 1)):
        assert e.exact is None and e.width < F(1, 2**100)
        assert e.lo * sign > 0 and sign_at(p, e.lo) * sign_at(p, e.hi) < 0


def _quad_root_sign(c0, c1, c2, branch, x):
    """Exact sign of x - root for root = (-c1 + branch*sqrt(disc))/(2 c2)."""
    if c2 < 0:
        c0, c1, c2 = -c0, -c1, -c2
    disc = c1 * c1 - 4 * c0 * c2
    u = 2 * c2 * x + c1  # u(root) = branch * sqrt(disc)
    if branch > 0:
        if u < 0:
            return -1
        return (u * u > disc) - (u * u < disc)
    if u >= 0:
        return 1 if (u > 0 or disc > 0) else 0
    return (disc > u * u) - (disc < u * u)


def _rational_sqrt(x):
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return F(rn, rd)
    return None


def quadratic_oracle_check(p, rs):
    """Every isolated interval brackets the corresponding closed-form root."""
    c0, c1, c2 = p.coeff(0), p.coeff(1), p.coeff(2)
    disc = c1 * c1 - 4 * c0 * c2
    assert disc >= 0
    root_sqrt = _rational_sqrt(disc)
    branches = [-1, 1] if c2 > 0 else [1, -1]
    assert rs.total_count == 2
    for entry, branch in zip(rs.lambdas(), branches):
        if root_sqrt is not None:
            root = (-c1 + branch * root_sqrt) / (2 * c2)
            assert entry.lo <= root <= entry.hi
            if entry.exact is not None:
                assert entry.exact == root
        else:
            assert _quad_root_sign(c0, c1, c2, branch, entry.lo) <= 0
            assert _quad_root_sign(c0, c1, c2, branch, entry.hi) >= 0


def test_quadratic_oracle_on_family_instance():
    p = little_q_jacobi(2, F(1, 4), F(1, 2), F(1, 2))
    rs = isolate_real_roots(p)
    assert rs.certified_real_rooted
    quadratic_oracle_check(p, rs)
    # at most one root per lattice cell (q^k, q^(k-1)) is covered by the
    # verify-level checks; here both roots lie in (0, 1)
    for e in rs.roots:
        assert 0 < e.lo and e.hi < 1


def test_quadratic_oracle_rational_case():
    p = PolyExact((F(3, 8), F(-5, 4), 1))  # roots 3/4, 1/2
    rs = isolate_real_roots(p)
    quadratic_oracle_check(p, rs)
    assert entry_values(rs) == [(F(1, 2), 1), (F(3, 4), 1)]


def test_biquadratic_oracle():
    # x^4 - 5x^2 + 6: roots are the four square roots of 2 and 3
    p = PolyExact((6, 0, -5, 0, 1))
    rs = isolate_real_roots(p)
    assert rs.total_count == 4 and rs.certified_real_rooted
    resolvent = PolyExact((6, -5, 1))  # z^2 - 5z + 6 in z = x^2
    for e in rs.roots:
        lo2, hi2 = sorted((e.lo * e.lo, e.hi * e.hi))
        assert resolvent(lo2) * resolvent(hi2) < 0


@given(eps_exp=st.integers(5, 60))
@settings(max_examples=12, deadline=None)
def test_refinement_monotonicity(eps_exp):
    """Halving eps never changes the root count or ordering."""
    p = little_q_jacobi(4, F(1, 3), F(-2), F(1, 2))
    coarse = isolate_real_roots(p, F(1, 2**eps_exp))
    fine = isolate_real_roots(p, F(1, 2 ** (eps_exp + 1)))
    assert coarse.total_count == fine.total_count
    for a, b in zip(coarse.roots, fine.roots):
        assert a.multiplicity == b.multiplicity
        # the refined interval stays inside the coarse one
        assert a.lo <= b.hi and b.lo <= a.hi


def test_simplest_rational_between():
    assert simplest_rational_between(F(3, 10), F(1, 2)) == F(1, 2)
    assert simplest_rational_between(F(33, 100), F(34, 100)) == F(1, 3)
    assert simplest_rational_between(F(-1, 2), F(1, 3)) == 0
    assert simplest_rational_between(F(5, 2), F(7, 2)) == 3
    assert simplest_rational_between(F(-22, 7), F(-3)) == -3


def _simplest_positive_fraction(lo, hi):
    floor_lo = lo.numerator // lo.denominator
    if floor_lo >= lo:  # lo is an integer
        return F(floor_lo)
    if floor_lo + 1 <= hi:
        return F(floor_lo + 1)
    return floor_lo + 1 / _simplest_positive_fraction(1 / (hi - floor_lo), 1 / (lo - floor_lo))


def _simplest_rational_fraction(lo, hi):
    """The Fraction recursion that the integer descent replaced: the reference
    for simplest_rational_between."""
    lo, hi = min(lo, hi), max(lo, hi)
    if lo <= 0 <= hi:
        return F(0)
    if lo > 0:
        return _simplest_positive_fraction(lo, hi)
    return -_simplest_positive_fraction(-hi, -lo)


_ENDPOINT = st.one_of(
    st.integers(-40, 40).map(F), st.fractions(min_value=-40, max_value=40, max_denominator=10**12)
)


@st.composite
def _snap_intervals(draw):
    """Arbitrary, narrow (width down to 2^-90) and one-point intervals."""
    lo = draw(_ENDPOINT)
    kind = draw(st.sampled_from(["any", "narrow", "point"]))
    if kind == "point":
        return lo, lo
    if kind == "narrow":
        return lo, lo + F(draw(st.integers(1, 9)), 2 ** draw(st.integers(1, 90)))
    return lo, draw(_ENDPOINT)


@given(interval=_snap_intervals(), scale=st.integers(1, 2**70))
@example(interval=(F(-7, 3), F(-2, 3)), scale=6)  # negative
@example(interval=(F(-5), F(-3)), scale=1)  # integer endpoints
@example(interval=(F(-1, 9), F(2, 7)), scale=2)  # contains 0
@example(interval=(F(22, 7), F(22, 7)), scale=2**64)  # lo == hi
@example(interval=(F(355, 113), F(355, 113) + F(1, 2**80)), scale=3)
@settings(max_examples=400, deadline=None)
def test_integer_snapping_matches_fraction_recursion(interval, scale):
    """The descent against the Fraction recursion it replaced; on endpoints
    over a common, unreduced denominator, as a ``RootEntry`` frame holds
    them, it gives the same rational, in lowest terms."""
    lo, hi = interval
    got = simplest_rational_between(lo, hi)
    assert got == _simplest_rational_fraction(lo, hi)
    assert min(lo, hi) <= got <= max(lo, hi)
    lo, hi = sorted(interval)
    den = lcm(lo.denominator, hi.denominator) * scale
    n, d = roots._simplest(int(lo * den), den, int(hi * den), den)
    assert (n, d) == (got.numerator, got.denominator)


def test_snap_catches_scaled_lattice_roots():
    # roots are powers of 9/10; snapping recovers them exactly
    q = F(9, 10)
    p = PolyExact.from_roots([q, q**2, q**3])
    rs = isolate_real_roots(p)
    assert [e.exact for e in rs.roots] == [q**3, q**2, q]


def _snap_unfiltered(e):
    """The snap before the rational-root-theorem filter, kept as its
    reference: evaluate the factor at every simplest rational."""
    if e.exact is not None or e.lo == e.hi:
        return
    candidate = simplest_rational_between(e.lo, e.hi)
    if sign_at(e.factor, candidate) == 0:
        e.pin(candidate)


def _entries(rs):
    return [(e.lo, e.hi, e.exact, e.multiplicity) for e in rs.roots]


def test_filtered_snap_matches_unfiltered_on_acceptance_grids():
    """The snap evaluates only candidates n/d with n dividing the constant
    and d the leading integer coefficient; on the 672 acceptance-grid
    polynomials, isolated to separation and to 2^-64, and on a product with
    a non-dyadic rational root, it pins exactly what evaluating every
    candidate pins."""
    third = PolyExact((-1, 3)) * PolyExact((-2, 0, 1))  # (3x - 1)(x^2 - 2)
    polys = _acceptance_grid_polynomials() + (third,)
    for eps in (None, F(1, 2**64)):
        filtered = [_entries(isolate_real_roots(p, eps)) for p in polys]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_snap_to_rational", _snap_unfiltered)
            unfiltered = [_entries(isolate_real_roots(p, eps)) for p in polys]
        assert filtered == unfiltered, eps
    assert [e.exact for e in isolate_real_roots(third).roots] == [None, F(1, 3), None]


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=60)
DYADICS = st.builds(lambda k, e: F(k, 2**e), st.integers(-(2**14), 2**14), st.integers(0, 40))


@st.composite
def poly_and_point(draw):
    """A rational polynomial of degree <= 9 and a rational, dyadic or root point."""
    p = PolyExact(draw(st.lists(RATIONALS, max_size=9)))
    kind = draw(st.sampled_from(["rational", "dyadic", "root"]))
    if kind == "root":
        x = draw(RATIONALS)
        return p * PolyExact((-x, 1)), x
    return p, draw(RATIONALS if kind == "rational" else DYADICS)


@given(case=poly_and_point())
@settings(max_examples=200, deadline=None)
def test_integer_sign_kernel_matches_rational_evaluation(case):
    """sign_at (integer Horner on ``PolyExact._homogeneous``) agrees with the
    sign of the Fraction value."""
    p, x = case
    v = p(x)
    assert sign_at(p, x) == (v > 0) - (v < 0)


@cache
def _acceptance_grid():
    """(q, polynomial) for the acceptance grids, one per family instance,
    built once per session and shared by the tests below."""
    out = []
    for q in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        for n in range(1, 9):
            for a in (F(1, 4), F(1, 2), F(1)):
                for b in (F(-2), F(-1, 2), F(0), F(1, 2), F(1)):
                    out.append((q, little_q_jacobi(n, a, b, q)))
            out.extend((q, q_bessel(n, b, q)) for b in (F(-2), F(-1, 2)))
            out.append((q, stieltjes_wigert(n, q)))
            out.extend((q, q_laguerre(n, b, q)) for b in (F(1, 4), F(1, 2), F(3, 4)))
    return tuple(out)


def _acceptance_grid_polynomials():
    return tuple(p for _, p in _acceptance_grid())


def test_root_set_counts_hold_on_acceptance_grids():
    """Every acceptance-grid root set, its copy and its scaled(q) and
    scaled(-1) sets count their roots with multiplicity and are certified
    real-rooted exactly when that count is the degree."""
    for q, p in _acceptance_grid():
        rs = isolate_real_roots(p, None)
        for view in (rs, rs.copy(), rs.scaled(q), rs.scaled(F(-1))):
            assert view.total_count == sum(e.multiplicity for e in view.roots), p
            assert view.certified_real_rooted == (view.total_count == view.poly.degree), p
            assert (view.total_count, view.certified_real_rooted) == (rs.total_count, rs.certified_real_rooted), p


class FractionBisection:
    """The bisection step on Fraction endpoints that the integer interval of
    ``RootEntry`` replaced: the arithmetic midpoint, its sign by
    :func:`polyexact_reference.sign_at`, and the factor's sign at lo taken
    once."""

    def __init__(self, entry):
        self.lo, self.hi, self.exact, self.factor = entry.lo, entry.hi, entry.exact, entry.factor
        self._sign_lo = 0

    def bisect_once(self):
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        s = sign_at(self.factor, mid)
        if s == 0:
            self.exact = self.lo = self.hi = mid
            return
        if self._sign_lo == 0:
            self._sign_lo = sign_at(self.factor, self.lo)
        if s == self._sign_lo:
            self.lo = mid
        else:
            self.hi = mid


def test_integer_bisection_matches_fraction_bisection_on_acceptance_grids():
    """Each step of ``RootEntry._halve`` gives the (lo, hi, exact) of the
    Fraction step it replaced: on every acceptance-grid root set isolated to
    separation, and on its scaled(q) and scaled(-1) copies as lmesh uses
    them, whose denominators are not powers of two; and on two planted
    entries whose root is a midpoint of a later step."""
    planted = RootSet(PolyExact.one(), [
        RootEntry(F(0), F(1), 1, PolyExact.from_roots([F(3, 8)])),
        RootEntry(F(1, 3), F(2, 3), 1, PolyExact.from_roots([F(7, 12), F(2)])),
    ])
    cases = [(q, isolate_real_roots(p, None)) for q, p in _acceptance_grid()] + [(F(3, 4), planted)]
    steps = pins = 0
    for q, rs in cases:
        for root_set in (rs.copy(), rs.scaled(q), rs.scaled(F(-1))):
            for e in root_set.roots:
                ref = FractionBisection(e)
                for _ in range(10):
                    was_open = e.exact is None
                    e._halve(1)
                    ref.bisect_once()
                    assert (e.lo, e.hi, e.exact) == (ref.lo, ref.hi, ref.exact), (rs.poly, q)
                    steps += was_open
                    pins += was_open and e.exact is not None
    assert steps > 50_000 and pins == 6


def test_lazy_isolation_matches_eager_on_acceptance_grids():
    """Isolation to separation (eps=None) against refinement to 2^-64.

    Counts, certification and multiplicities agree, and every lazy interval
    holds its eager interval.  A lazy exact root is the eager one; an eager
    exact root that the wider lazy interval did not snap to is a proven zero
    of the lazy entry's factor inside that interval.  The integer refinement
    of ``refine_below`` makes the same steps as ``_halve``: each eager
    entry is its lazy entry bisected below 2^-64 one step at a time, then
    snapped.
    """
    eps = F(1, 2**64)
    for p in _acceptance_grid_polynomials():
        lazy, eager = isolate_real_roots(p, None), isolate_real_roots(p, eps)
        assert lazy.total_count == eager.total_count, p
        assert lazy.certified_real_rooted == eager.certified_real_rooted, p
        assert len(lazy.roots) == len(eager.roots), p
        for lz, eg in zip(lazy.roots, eager.roots):
            assert lz.multiplicity == eg.multiplicity, p
            assert lz.lo <= eg.lo and eg.hi <= lz.hi, p
            if lz.exact is not None:
                assert eg.exact == lz.exact, p
            elif eg.exact is not None:
                assert sign_at(lz.factor, eg.exact) == 0, p
            stepped = lz.copy()
            for _ in range((lz.width // eps).bit_length()):  # the halvings to below eps
                stepped._halve(1)
            roots._snap_to_rational(stepped)
            assert (stepped.lo, stepped.hi, stepped.exact) == (eg.lo, eg.hi, eg.exact), p


def _refine_by_halving(entry, eps):
    """The display refinement that QIR replaced: exactly the halvings that
    bring the width below eps, counted in advance."""
    entry._halve((entry.width // eps).bit_length())


def _highdeg_polynomials():
    """The inputs of the twelve ``qzeros roots`` calls of the roots-highdeg
    benchmark: q = 9/10, n = 10, 12, 14."""
    q = F(9, 10)
    return [
        p
        for n in (10, 12, 14)
        for p in (little_q_jacobi(n, F(1, 2), F(-1, 2), q), q_laguerre(n, F(1, 2), q),
                  stieltjes_wigert(n, q), q_bessel(n, F(-1), q))
    ]


@cache
def _qir_and_halving_refined():
    """(q, QIR-refined entry, halving-refined entry, eps): every entry of the
    acceptance-grid polynomials isolated to separation, refined to 2^-64, and
    of their scaled(q) root sets, whose denominators are not powers of two,
    refined to 3^-40; then the roots-highdeg inputs at the default eps."""
    cases = [(q, rs, eps) for q, p in _acceptance_grid() for rs, eps in (
        (isolate_real_roots(p, None), F(1, 2**64)),
        (isolate_real_roots(p, None).scaled(q), F(1, 3**40)),
    )] + [(F(9, 10), isolate_real_roots(p, None), roots.DEFAULT_EPS) for p in _highdeg_polynomials()]
    out = []
    for q, rs, eps in cases:
        for e in rs.roots:
            ref = e.copy()
            e.refine_below(eps)
            _refine_by_halving(ref, eps)
            out.append((q, e, ref, eps))
    return tuple(out)


def test_qir_refinement_matches_halving_on_acceptance_grids():
    """QIR against the counted halving it replaced, on every entry of the 672
    acceptance-grid polynomials (and their scaled(q) root sets) and of the 12
    roots-highdeg inputs.  A QIR cell is one of the 2^k equal parts of the
    interval, and k never exceeds the halvings still needed, so both land on
    the same aligned dyadic cell: the same (lo, hi, exact), of width < eps,
    with a strict sign change at lo and hi when not exact, and the sign at lo
    that the halving frame caches."""
    pinned = 0
    for _, e, ref, eps in _qir_and_halving_refined():
        assert (e.lo, e.hi, e.exact, e.multiplicity) == (ref.lo, ref.hi, ref.exact, ref.multiplicity)
        assert e.width < eps
        if e.exact is None:
            lo_sign, hi_sign = sign_at(e.factor, e.lo), sign_at(e.factor, e.hi)
            assert lo_sign * hi_sign < 0
            assert e._frame()[1] == (lo_sign > 0)
        else:
            assert sign_at(e.factor, e.exact) == 0
            pinned += 1
    assert len(_qir_and_halving_refined()) > 5000 and pinned > 0


def test_root_vs_point_on_qir_refined_entries():
    """``_root_vs_point`` on QIR-refined entries, which relies on the cached
    sign at lo, against the bisecting comparison, at the entry's lo, hi and
    midpoint, its reference interval's ends, and q^k for k = 1..40."""
    for q, e, ref, _ in _qir_and_halving_refined()[::7]:
        for pt in [e.lo, e.hi, (e.lo + e.hi) / 2, ref.lo, ref.hi] + [q**k for k in range(1, 41)]:
            assert roots._root_vs_point(e, pt) == _root_vs_point_by_bisection(ref.copy(), pt), (e.factor, pt)


def test_qir_evaluations_at_most_half_the_halvings(monkeypatch):
    """Work bound on the roots-highdeg inputs, counted in Horner evaluations,
    not time: QIR makes at most half the evaluations of the counted halving
    to the default eps (2,148 against 14,114 when written)."""
    entries = [e for p in _highdeg_polynomials() for e in isolate_real_roots(p, None).roots]
    refs = [e.copy() for e in entries]
    evaluations = []
    real = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: evaluations.append(args) or real(*args))
    for e in entries:
        e.refine_below(roots.DEFAULT_EPS)
    qir = len(evaluations)
    for ref in refs:
        _refine_by_halving(ref, roots.DEFAULT_EPS)
    halving = len(evaluations) - qir
    assert halving > 14_000 and qir <= halving // 2, (qir, halving)


def test_separating_a_near_double_root_takes_few_evaluations(monkeypatch):
    """Work bound, counted in ``roots._value`` calls, not time: isolating
    (x^2 - 2)(x^2 - 2 - 2^-12000)^2 to separation, whose roots in each sign
    lie about 2^-12001 apart in two square-free factors, takes fewer than
    5,000 evaluations.  The comparison doubles its halvings after four
    one-bit rounds (808 evaluations when written); one halving a round took
    48,024."""
    near = PolyExact((-2 - F(1, 2**12000), 0, 1))
    evaluations = []
    real = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: evaluations.append(args) or real(*args))
    rs = isolate_real_roots(PolyExact((-2, 0, 1)) * near * near, None)
    assert [e.multiplicity for e in rs.roots] == [2, 1, 1, 2]
    assert len(evaluations) < 5_000, len(evaluations)


def _logging_refinement(monkeypatch, entry, eps):
    """Refine ``entry`` below eps and return the evaluations ("value") and
    halvings (("halve", times)) in the order they ran."""
    log = []
    real_value, real_halve = roots._value, RootEntry._halve
    monkeypatch.setattr(roots, "_value", lambda *args: log.append("value") or real_value(*args))
    monkeypatch.setattr(RootEntry, "_halve", lambda self, times: log.append(("halve", times)) or real_halve(self, times))
    entry.refine_below(eps)
    monkeypatch.undo()
    return log


def test_qir_pins_a_root_on_a_grid_point(monkeypatch):
    """(8x - 3)(x^2 + 1) on [0, 1]: the first step keeps [1/4, 1/2] (grid
    of 4), the second tests 23/64 and its neighbour 3/8 (grid of 16), which
    is the root, so the entry is pinned exact with no halving."""
    e = RootEntry(F(0), F(1), 1, PolyExact((-3, 8)) * PolyExact((1, 0, 1)))
    e._frame()
    log = _logging_refinement(monkeypatch, e, F(1, 2**20))
    assert (e.exact, e.lo, e.hi) == (F(3, 8), F(3, 8), F(3, 8))
    assert log == ["value"] * 6


@pytest.mark.parametrize("coeffs", [
    (-1, 0, 0, 0, 0, 30),  # 30x^5 - 1: the secant lands at t = 0, the root is near 0.507
    (-29, 150, -300, 300, -150, 30),  # 1 - 30(1 - x)^5: t = N, the root is near 0.493
])
def test_qir_falls_back_to_a_halving(monkeypatch, coeffs):
    """A secant at the end of the grid (t = 0 or t = N) is clamped to the
    grid point next to that end, its neighbour shows no sign change, and one
    halving follows; the result is the counted halving's."""
    e = RootEntry(F(0), F(1), 1, PolyExact(coeffs))
    ref = e.copy()
    e._frame()
    log = _logging_refinement(monkeypatch, e, F(1, 2**40))
    assert log[:5] == ["value"] * 4 + [("halve", 1)]
    _refine_by_halving(ref, F(1, 2**40))
    assert (e.lo, e.hi, e.exact) == (ref.lo, ref.hi, ref.exact) and e.width < F(1, 2**40)


def _same_roots(rs, ref, exact=True):
    """Counts and multiplicities equal, intervals pairwise overlapping and,
    with ``exact``, the same exact roots."""
    assert (rs.total_count, rs.certified_real_rooted) == (ref.total_count, ref.certified_real_rooted)
    assert len(rs.roots) == len(ref.roots)
    for e, r in zip(rs.roots, ref.roots):
        assert e.multiplicity == r.multiplicity
        assert e.lo <= r.hi and r.lo <= e.hi
        if exact:
            assert e.exact == r.exact
        if e.exact is None:  # the sign certificate
            assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) < 0


def _sturm_isolation(p, eps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_isolate_squarefree", isolate_squarefree_sturm)
        return isolate_real_roots(p, eps)


@contextmanager
def _vca_checked():
    """Run every ``roots._vca`` call beside the monomial reference, assert the
    same (intervals, exact roots), and collect each (ints, k, exact roots)."""
    inputs = []
    real = roots._vca

    def checked(ints, k):
        got = real(ints, k)
        assert got == vca_reference.vca_monomial(ints, k), (ints, k)
        inputs.append((ints, k, got[1]))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_vca", checked)
        yield inputs


_SPLIT_CUBIC = PolyExact((-1, 2)) * PolyExact((-1, 4)) * PolyExact((-1, 3))  # (2x - 1)(4x - 1)(3x - 1)


@cache
def _vca_polynomials():
    """The 672 acceptance-grid polynomials, little q-Jacobi at q = 9/10 for
    n = 20..30 and b = +-1/2, little q-Jacobi at q = 1/2 with b = q^-k, whose
    zeros 1, q, ..., q^(k-1) are split points, and planted products: dyadic
    split-point roots, a zero root beside them, and roots 2^-62 apart."""
    q = F(9, 10)
    jacobi = [little_q_jacobi(n, F(1, 2), b, q) for n in range(20, 31) for b in (F(1, 2), F(-1, 2))]
    coincide = [little_q_jacobi(n, a, F(2) ** k, F(1, 2)) for n, a, k in ((6, F(1, 2), 3), (9, F(3, 8), 4))]
    planted = [
        PolyExact((-1, 2)) * PolyExact((1, 4)) * PolyExact((-3, 0, 1)),  # (2x - 1)(4x + 1)(x^2 - 3)
        PolyExact((-1, 8)) * PolyExact((3, 4)) * PolyExact((-5, 2)),  # roots 1/8, -3/4, 5/2
        PolyExact((-2, 0, 1)) * PolyExact((-2 - F(1, 2**60), 0, 1)),  # (x^2 - 2)(x^2 - 2 - 2^-60)
        _SPLIT_CUBIC,
        PolyExact.x() * _SPLIT_CUBIC * PolyExact((-5, 0, 1)),
    ]
    return _acceptance_grid_polynomials() + tuple(jacobi + coincide + planted)


def test_bernstein_vca_matches_monomial_reference():
    """The Bernstein-basis VCA against the monomial VCA it replaced, on every
    ``_vca`` input of isolating :func:`_vca_polynomials`: the same intervals,
    in the same order, and the same exact roots.  The inputs include a
    factor with two or more split-point roots and one with f(0) = 0."""
    with _vca_checked() as inputs:
        for p in _vca_polynomials():
            isolate_real_roots(p, None)
    split_roots = max(sum(r != 0 for r in exact) for *_, exact in inputs)
    assert len(inputs) > 600 and split_roots >= 2, (len(inputs), split_roots)
    assert any(not ints[0] for ints, *_ in inputs)


def _same_as_restarting(p, eps):
    """Isolation of p against the restart loop it replaced: the same counts,
    multiplicities and roots in order, and each open interval's factor
    nonzero at both ends, with opposite signs there.  Two open intervals are
    nested, as both are aligned dyadic cells holding the same root.  With
    eps the exact roots are equal.  To separation alone, a root that the
    restart loop meets on a split point of a deflated quotient's tree can
    stay an open interval of the one pass, or the reverse, so there an exact
    root need only be a zero of the other entry's factor inside its
    interval."""
    rs, ref = isolate_real_roots(p, eps), vca_reference.isolate_real_roots_restarting(p, eps)
    assert (rs.total_count, rs.certified_real_rooted) == (ref.total_count, ref.certified_real_rooted), p
    assert [e.multiplicity for e in rs.roots] == [r.multiplicity for r in ref.roots], p
    for e, r in zip(rs.roots, ref.roots):
        if e.exact is None:
            assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) == -1, p
        if e.exact is None and r.exact is None:
            assert r.lo <= e.lo < e.hi <= r.hi or e.lo <= r.lo < r.hi <= e.hi, p
        elif eps is not None or None not in (e.exact, r.exact):
            assert e.exact == r.exact, p
        else:
            x, other = (e.exact, r) if r.exact is None else (r.exact, e)
            assert other.lo < x < other.hi and sign_at(other.factor, x) == 0, p


@pytest.mark.parametrize("eps", [None, roots.DEFAULT_EPS], ids=["separated", "default-eps"])
def test_one_vca_pass_matches_restarting_reference(eps):
    """One VCA pass per square-free factor against the restart loop and the
    zero-root stripping it replaced, on :func:`_vca_polynomials`."""
    for p in _vca_polynomials():
        _same_as_restarting(p, eps)


_LINEAR = st.tuples(st.integers(-40, 40), st.integers(0, 3)).map(lambda t: PolyExact((-t[0], 2 ** t[1])))


@given(
    coeffs=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=7),
    planted=st.lists(_LINEAR, max_size=6),
)
@example(coeffs=[1], planted=[PolyExact((-1, 2)), PolyExact((1, 4)), PolyExact((-3, 1)), PolyExact((3, 1))])
@example(coeffs=[0, 1], planted=[PolyExact((-1, 2)), PolyExact((-1, 4)), PolyExact((0, 1))])
@example(coeffs=[1, -2], planted=[PolyExact((-1, 1)), PolyExact((-3, 1))])  # 3 exact only by restarting
@settings(max_examples=150, deadline=None)
def test_bernstein_vca_matches_reference_on_integer_polynomials(coeffs, planted):
    """Integer polynomials of degree <= 12: random coefficients times up to
    six planted factors 2^e x - c, whose roots often fall on split points or
    on 0.  Every ``_vca`` call matches the monomial reference, and the
    isolation, to separation and to the default eps, matches the restart
    loop."""
    p = PolyExact(coeffs)
    assume(not p.is_zero)
    for f in planted:
        p = p * f
    with _vca_checked():
        isolate_real_roots(p, None)
    for eps in (None, roots.DEFAULT_EPS):
        _same_as_restarting(p, eps)


def test_split_point_and_zero_roots_are_exact_in_one_vca_pass(monkeypatch):
    """(2x - 1)(4x - 1)(3x - 1): 1/2 and 1/4 are split points of the one
    ``_vca`` call, and 1/3 is the root of the linear quotient.  With x and
    x^2 - 5 as further factors, the one call also finds 0, and +-sqrt 5 keep
    sign-certified intervals.  The restart loop takes 2 and 3 calls."""
    calls, ref_calls = [], []
    real, real_ref = roots._vca, vca_reference.vca_until_root
    monkeypatch.setattr(roots, "_vca", lambda ints, k: calls.append(real(ints, k)) or calls[-1])
    monkeypatch.setattr(vca_reference, "vca_until_root", lambda ints, k: ref_calls.append(1) or real_ref(ints, k))

    rs = isolate_real_roots(_SPLIT_CUBIC, None)
    assert [e.exact for e in rs.roots] == [F(1, 4), F(1, 3), F(1, 2)]
    assert len(calls) == 1 and sorted(calls[0][1]) == [F(1, 4), F(1, 2)]
    assert rs.roots[1].factor == PolyExact((-1, 3))
    vca_reference.isolate_real_roots_restarting(_SPLIT_CUBIC, None)
    assert len(ref_calls) == 2

    calls.clear()
    ref_calls.clear()
    p = PolyExact.x() * _SPLIT_CUBIC * PolyExact((-5, 0, 1))
    rs = isolate_real_roots(p, None)
    assert [e.exact for e in rs.roots] == [None, F(0), F(1, 4), F(1, 3), F(1, 2), None]
    assert len(calls) == 1 and sorted(calls[0][1]) == [F(0), F(1, 4), F(1, 2)]
    for e in (rs.roots[0], rs.roots[-1]):
        assert e.lo**2 < 5 < e.hi**2 or e.hi**2 < 5 < e.lo**2
        assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) == -1
    vca_reference.isolate_real_roots_restarting(p, None)
    assert len(ref_calls) == 3


def _counter(counts):
    """A wrapper maker: ``counted(name, fn)`` is fn, adding each call to counts[name]."""
    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    return counted


def test_vca_runs_once_per_square_free_factor(monkeypatch):
    """On the isolations of one decide-coarse pass (seed 1: p, its thm2-i
    partner, p with b moved to q^2 b, and p again as the twin), exactly one
    ``_vca`` call per square-free factor of degree >= 2, two Taylor shifts
    per call, and fewer de Casteljau passes than the restart loop makes on
    the same inputs (2,489 against 2,806 when written)."""
    from test_pinned_report import workloads

    counts = Counter()
    counted = _counter(counts)
    polys = []
    for d in workloads.decide_draws(1):
        p = little_q_jacobi(d.n, d.a, d.b, d.q)
        polys += [p, little_q_jacobi(d.n - 1, d.q * d.a, d.q * d.b, d.q), little_q_jacobi(d.n, d.a, d.q**2 * d.b, d.q), p]
    degrees = []
    real_squarefree = roots._isolate_squarefree
    monkeypatch.setattr(roots, "_isolate_squarefree", lambda f: degrees.append(f.degree) or real_squarefree(f))
    monkeypatch.setattr(roots, "_vca", counted("vca", roots._vca))
    monkeypatch.setattr(roots, "_taylor_shift", counted("shift", roots._taylor_shift))
    monkeypatch.setattr(roots, "_de_casteljau", counted("split", roots._de_casteljau))
    for p in polys:
        isolate_real_roots(p, None)
    ours = counts.copy()
    counts.clear()
    for p in polys:
        vca_reference.isolate_real_roots_restarting(p, None)
    assert ours["vca"] == sum(n >= 2 for n in degrees) and ours["shift"] == 2 * ours["vca"], ours
    assert ours["split"] < counts["split"], (ours, counts)


def test_vca_makes_one_pass_per_split(monkeypatch):
    """Work on the roots-highdeg inputs, counted in passes of n(n+1)/2
    additions: two Taylor shifts per ``_vca`` call, one per side, and one
    de Casteljau pass per split, against one Taylor shift per node and one
    per split for the monomial reference, on the same tree (207 against 573
    passes when written)."""
    counts = Counter()
    counted = _counter(counts)
    inputs = []
    real_vca = roots._vca
    monkeypatch.setattr(roots, "_vca", lambda ints, k: inputs.append((ints, k)) or real_vca(ints, k))
    monkeypatch.setattr(roots, "_taylor_shift", counted("shift", roots._taylor_shift))
    monkeypatch.setattr(roots, "_de_casteljau", counted("split", roots._de_casteljau))
    for p in _highdeg_polynomials():
        isolate_real_roots(p, None)
    monkeypatch.setattr(vca_reference, "_taylor_shift", counted("ref_shift", vca_reference._taylor_shift))
    monkeypatch.setattr(vca_reference, "_descartes", counted("ref_node", vca_reference._descartes))
    for ints, k in inputs:
        vca_reference.vca_monomial(ints, k)
    calls, splits = len(inputs), counts["ref_shift"] - counts["ref_node"]
    assert counts["shift"] == 2 * calls, (counts, calls)
    passes = counts["shift"] + counts["split"]
    assert passes <= splits + 2 * calls and counts["ref_shift"] == counts["ref_node"] + splits
    assert 5 * passes < 2 * counts["ref_shift"], (passes, counts)


def test_descartes_isolation_matches_sturm_on_acceptance_grids():
    """VCA isolation to separation against the Sturm-chain isolator it
    replaced, on the 672 acceptance-grid polynomials."""
    for p in _acceptance_grid_polynomials():
        _same_roots(isolate_real_roots(p, None), _sturm_isolation(p, None))


def _separate_by_rounds(entries):
    """The separation that the comparison sort replaced: sort by (lo, hi),
    bisect both entries of every overlapping adjacent pair, and repeat until
    no adjacent pair overlaps."""
    while True:
        entries.sort(key=lambda e: (e.lo, e.hi))
        clashing = [(a, b) for a, b in zip(entries, entries[1:]) if a.hi >= b.lo]
        if not clashing:
            return
        for a, b in clashing:
            a._halve(1)
            b._halve(1)


def _isolation_by_rounds(p, eps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_separate", _separate_by_rounds)
        return isolate_real_roots(p, eps)


def test_separation_by_sort_matches_rounds_on_acceptance_grids():
    """Separation by a sort on the exact root comparison against the
    round-based separation it replaced, on the 672 acceptance-grid
    polynomials and on products p_n(x; a, b) p_(n-1)(x; qa, qb)^2, whose
    interlacing zeros lie in two square-free factors.  Refined to 2^-64,
    exact roots and multiplicities agree, and each interval is narrower than
    2^-64 and lies in the reference interval: both are cells of the same
    halving path, and a doubling round of the sort may go past the level
    the refinement stops at.  Isolated to separation, counts,
    multiplicities and exact roots agree, and the intervals are ascending,
    pairwise disjoint and each overlaps the reference interval."""
    products = []
    for q in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        for n in range(2, 7):
            partner = little_q_jacobi(n - 1, q / 2, -q / 2, q)
            products.append(little_q_jacobi(n, F(1, 2), F(-1, 2), q) * partner * partner)
    for p in _acceptance_grid_polynomials() + tuple(products):
        fine, ref = isolate_real_roots(p, F(1, 2**64)), _isolation_by_rounds(p, F(1, 2**64))
        assert [(e.exact, e.multiplicity) for e in fine.roots] == [(e.exact, e.multiplicity) for e in ref.roots], p
        assert all(r.lo <= e.lo <= e.hi <= r.hi and e.width < F(1, 2**64) for e, r in zip(fine.roots, ref.roots)), p
        lazy = isolate_real_roots(p, None)
        _same_roots(lazy, _isolation_by_rounds(p, None))
        assert all(a.hi < b.lo for a, b in zip(lazy.roots, lazy.roots[1:])), p


def _root_vs_point_by_bisection(entry, pt):
    """The root-versus-point comparison that one sign evaluation replaced:
    bisect the entry until pt leaves the interval or the factor vanishes at
    pt, evaluating the factor at pt on every step."""
    while True:
        if entry.hi < pt:
            return -1
        if pt < entry.lo:
            return 1
        if entry.exact is not None or sign_at(entry.factor, pt) == 0:
            return 0
        entry._halve(1)


def test_root_vs_point_matches_bisection_on_acceptance_grids():
    """One sign evaluation against the bisecting comparison it replaced, run
    on a copy, on every entry of the 672 acceptance-grid polynomials isolated
    to separation: at 0, 1 and q^k for k = 1..2n, at the entry's own lo, hi
    and midpoint, and at the exact roots of its neighbours.  The entry is
    left unchanged."""
    compared = inside = 0
    for q, p in _acceptance_grid():
        rs = isolate_real_roots(p, None)
        lattice = [F(0), F(1)] + [q**k for k in range(1, 2 * p.degree + 1)]
        for i, e in enumerate(rs.roots):
            neighbours = [n.exact for n in rs.roots[max(i - 1, 0):i + 2] if n.exact is not None]
            before = (e.lo, e.hi, e.exact)
            for pt in lattice + [e.lo, e.hi, (e.lo + e.hi) / 2] + neighbours:
                assert roots._root_vs_point(e, pt) == _root_vs_point_by_bisection(e.copy(), pt), (p, pt)
                compared += 1
                inside += e.lo <= pt <= e.hi
            assert (e.lo, e.hi, e.exact) == before, p
    assert compared > 45_000 and inside > 10_000, (compared, inside)


_PLANTED = st.builds(lambda k, e: F(k, 2**e), st.integers(-24, 24), st.integers(0, 3))


@given(
    planted=st.lists(st.tuples(_PLANTED, st.integers(1, 3)), min_size=1, max_size=6),
    surd=st.sampled_from([None, 2, 3, 5]),
)
# roots 1, 2, 3: the bound is 2^4 and 2 is a split point; without the
# split-point test, (0, 2) would hold one root and end on the next
@example(planted=[(F(1), 1), (F(2), 1), (F(3), 1)], surd=None)
@example(planted=[(F(-1, 2), 1), (F(1, 2), 2), (F(3, 4), 1)], surd=2)
@settings(max_examples=100, deadline=None)
def test_isolation_with_planted_dyadic_roots(planted, surd):
    """Planted dyadic roots, many on VCA split points, with multiplicities
    and an optional pair of roots +-sqrt(surd): every root is found, with its
    multiplicity, exactly once refined, and the result agrees with the Sturm
    isolator."""
    mults: dict = {}
    for r, m in planted:
        mults[r] = mults.get(r, 0) + m
    p = PolyExact.from_roots([r for r, m in mults.items() for _ in range(m)])
    if surd is not None:
        p = p * PolyExact((-surd, 0, 1))
    lazy, fine = isolate_real_roots(p, None), isolate_real_roots(p)
    assert lazy.certified_real_rooted and fine.certified_real_rooted
    for rs in (lazy, fine):
        for r, m in mults.items():
            (e,) = [e for e in rs.roots if e.lo <= r <= e.hi]
            assert e.multiplicity == m
            assert e.exact == r or rs is lazy
    _same_roots(lazy, _sturm_isolation(p, None), exact=False)
    _same_roots(fine, _sturm_isolation(p, roots.DEFAULT_EPS))


def test_square_free_decomposition_unchanged_by_modular_certificate(monkeypatch):
    """On the acceptance-grid polynomials, the decomposition with the
    modular coprimality certificate equals the one by rational Euclid alone.
    They are all square-free, and the certificate proves it for each."""
    polys = _acceptance_grid_polynomials()
    assert len(polys) == 672
    certified = 0
    for p in polys:
        f = p.monic()
        certified += qhyper._coprime_mod_p(f.num, f.derivative().num)
    with_certificate = [square_free_decomposition(p) for p in polys]
    monkeypatch.setattr(qhyper, "_coprime_mod_p", lambda a, b: False)
    assert with_certificate == [square_free_decomposition(p) for p in polys]
    assert certified == len(polys)


def test_only_roots_reads_the_entry_frame():
    """No module of the package but ``roots`` reads or writes a ``RootEntry``
    frame attribute (its private slots: the integer interval, its
    denominator and the cached Horner frame); the rest go through the
    helpers beside ``roots._order``."""
    frame = {name for name in RootEntry.__slots__ if name.startswith("_")}
    assert frame == {"_lo", "_hi", "_d", "_m", "_horner"}
    readers = []
    for path in sorted(Path(roots.__file__).parent.glob("*.py")):
        if path.name == "roots.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in frame:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []
