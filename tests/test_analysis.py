"""Interlacing, zero-wise order, and logarithmic mesh decisions."""

from collections import Counter
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from qzeros import (
    DegreePattern,
    GridSpec,
    LmeshDomainError,
    PolyExact,
    Relation,
    RootEntry,
    RootSet,
    ShapeError,
    UndefinedLmeshError,
    ZerowiseReport,
    dominates,
    e_factor,
    in_lmesh_class,
    interlace,
    isolate_real_roots,
    little_q_jacobi,
    lmesh,
    q_bessel,
    q_laguerre,
    check_property,
    default_t_values,
    poly_gcd,
    square_free_part,
    zerowise_compare,
)
from qzeros import analysis, roots, verify
from polyexact_reference import sign_at
from sturm_reference import SturmChain

Q = F(1, 2)


def rs_of(*roots):
    return isolate_real_roots(PolyExact.from_roots(roots))


def test_lmesh_trivial_geometric_roots():
    res = lmesh(rs_of(F(1, 4), F(1, 2), 1), Q)
    assert res.value_lo == res.value_hi == F(1, 2)
    assert res.exact_equals_q and res.compare_to_q() == 0


def test_lmesh_strictly_below():
    res = lmesh(rs_of(F(1, 10), F(1, 2), F(9, 8)), Q)
    assert res.compare_to_q() == -1
    assert res.value_hi < Q
    assert res.argmax_index == 1  # ratio (1/2)/(9/8) = 4/9 is the max


def test_lmesh_strictly_above():
    res = lmesh(rs_of(F(2, 5), F(1, 2), 1), Q)
    assert res.compare_to_q() == 1
    assert res.value_lo > Q


def test_lmesh_negative_roots_via_reflection():
    assert lmesh(rs_of(F(-1), F(-1, 2), F(-1, 4)), Q).compare_to_q() == 0
    res = lmesh(rs_of(F(-1), F(-1, 10)), Q)
    assert res.compare_to_q() == -1


def test_lmesh_domain_errors():
    with pytest.raises(UndefinedLmeshError):
        lmesh(rs_of(F(1, 2)), Q)
    with pytest.raises(LmeshDomainError):
        lmesh(rs_of(F(-1), F(1, 2)), Q)
    with pytest.raises(LmeshDomainError):
        lmesh(isolate_real_roots(PolyExact((0, -1, 1))), Q)  # roots 0 and 1
    # class membership: 0 or 1 zeros are members, but the origin and mixed
    # signs stay domain errors
    assert in_lmesh_class(isolate_real_roots(PolyExact((1,))), Q, strict=True)
    assert in_lmesh_class(rs_of(F(-3)), Q, strict=True)
    with pytest.raises(LmeshDomainError):
        in_lmesh_class(isolate_real_roots(PolyExact.x()), Q, strict=False)
    with pytest.raises(LmeshDomainError):
        in_lmesh_class(rs_of(F(-1), F(1, 2)), Q, strict=False)
    with pytest.raises(ShapeError):
        in_lmesh_class(isolate_real_roots(PolyExact((1, 0, 1))), Q, strict=False)  # x^2 + 1


def test_lmesh_boundary_equality_on_degenerate_family():
    """b = q^-3 forces adjacent zeros at ratio exactly q."""
    p = little_q_jacobi(3, F(1, 3), Q**-3, Q)
    res = lmesh(isolate_real_roots(p), Q)
    assert res.exact_equals_q and res.compare_to_q() == 0


def test_lmesh_exact_equality_detected_without_rational_roots():
    # roots 2 +- sqrt2 and their halves: two consecutive ratios equal 1/2
    # exactly, but every root is irrational, so the equality decision must
    # come from gcd(p(x), p(x/q)), not from rational snapping
    p = PolyExact((2, -4, 1)) * PolyExact((F(1, 2), -2, 1))
    rs = isolate_real_roots(p)
    assert all(e.exact is None for e in rs.roots)
    res = lmesh(rs, Q)
    assert res.exact_equals_q and res.compare_to_q() == 0
    assert in_lmesh_class(rs, Q, strict=False)
    assert not in_lmesh_class(rs, Q, strict=True)


def test_interlace_trivial_patterns():
    r = interlace(rs_of(1, 3), rs_of(2, 4))
    assert r.relation is Relation.STRICT_INTERLACE
    assert r.degree_pattern is DegreePattern.EQUAL_DEGREE
    r = interlace(rs_of(1, 3), rs_of(2))
    assert r.relation is Relation.STRICT_INTERLACE
    assert r.degree_pattern is DegreePattern.DEGREE_MINUS_ONE
    r = interlace(rs_of(1, 2), rs_of(5, 6))
    assert r.relation is Relation.DOMINATES
    r = interlace(rs_of(5, 6), rs_of(1, 2))
    assert r.relation is Relation.NONE and r.witness == 0
    with pytest.raises(ShapeError):
        interlace(rs_of(1, 2, 3), rs_of(4))


def test_interlace_weak_via_shared_zero():
    r = interlace(rs_of(1, 3), rs_of(1, 4))
    assert r.relation is Relation.WEAK_INTERLACE
    # shared zero detected by gcd even when irrational
    p1 = PolyExact((-2, 0, 1)) * PolyExact.from_roots([5])
    p2 = PolyExact((-2, 0, 1)) * PolyExact.from_roots([6])
    r = interlace(isolate_real_roots(p1), isolate_real_roots(p2))
    assert r.relation is Relation.WEAK_INTERLACE


def test_interlace_reversed_degree_gap_gives_none():
    r = interlace(rs_of(2), rs_of(1, 3))
    assert r.relation is Relation.NONE and r.degree_pattern is None


def test_dominates():
    assert dominates(rs_of(1, 2), rs_of(1, 3))
    assert not dominates(rs_of(1, 3), rs_of(1, 2))
    with pytest.raises(ShapeError):
        dominates(rs_of(1), rs_of(1, 2))
    rep = zerowise_compare(rs_of(1, 2), rs_of(1, 3))
    assert rep.holds and rep.any_strict and rep.witness is None


def test_strict_interlace_implies_dominates_equal_degree():
    a, b = rs_of(1, 3), rs_of(2, 4)
    assert interlace(a, b).relation is Relation.STRICT_INTERLACE
    assert dominates(a, b)


def test_monotonicity_in_b_on_orthogonal_family():
    q = F(1, 2)
    lo = isolate_real_roots(little_q_jacobi(2, F(1, 2), F(-1), q))
    hi = isolate_real_roots(little_q_jacobi(2, F(1, 2), F(1, 2), q))
    assert dominates(lo, hi)


def test_in_lmesh_class_boundary():
    rs = rs_of(Q**2, Q)
    assert in_lmesh_class(rs, Q, strict=False)
    assert not in_lmesh_class(rs, Q, strict=True)


def test_in_lmesh_class_families():
    rs = isolate_real_roots(little_q_jacobi(4, F(1, 2), F(1, 2), Q))
    assert in_lmesh_class(rs, Q, strict=True)
    rs = isolate_real_roots(q_bessel(4, F(-1), Q))
    assert in_lmesh_class(rs, Q, strict=True)
    rs = isolate_real_roots(q_laguerre(4, F(1, 2), Q))
    assert in_lmesh_class(rs, Q * Q, strict=True)


def test_family_zero_location_samples():
    from qzeros import compare_root_to_point, stieltjes_wigert

    # q-Laguerre, degree 2: both zeros positive, consecutive ratio below q^2
    rs = isolate_real_roots(q_laguerre(2, F(1, 2), Q))
    assert all(e.lo > 0 for e in rs.roots)
    assert lmesh(rs, Q * Q).compare_to_q() == -1
    # degree 3 likewise
    rs = isolate_real_roots(q_laguerre(3, F(1, 2), Q))
    assert lmesh(rs, Q * Q).compare_to_q() == -1
    # Stieltjes-Wigert degree 4: weak bound at q^2
    rs = isolate_real_roots(stieltjes_wigert(4, Q))
    assert lmesh(rs, Q * Q).compare_to_q() <= 0
    # q-Bessel degree 3 with b = -2: zeros in (0, 1), mesh strictly below q
    rs = isolate_real_roots(q_bessel(3, F(-2), Q))
    assert rs.certified_real_rooted
    for e in rs.roots:
        assert compare_root_to_point(e, 0) > 0
        assert compare_root_to_point(e, 1) < 0
    assert lmesh(rs, Q).compare_to_q() == -1


def test_compare_root_to_point_leaves_the_entry_unchanged():
    """The sign of (root - point) is decided without refining or pinning the
    entry: inside the interval, at its endpoints, and for an exact entry."""
    from qzeros import RootEntry, compare_root_to_point

    e = RootEntry(F(0), F(1), 1, PolyExact.from_roots([F(1, 3)]))
    exact = RootEntry(F(2, 5), F(2, 5), 1, PolyExact.from_roots([F(2, 5)]))
    cases = [
        (e, F(1, 2), -1), (e, F(1, 3), 0), (e, F(1, 4), 1),
        (e, F(0), 1), (e, F(1), -1), (e, F(-1), 1), (e, F(2), -1),  # endpoints and outside
        (exact, F(2, 5), 0), (exact, F(1, 2), -1), (exact, F(1, 3), 1),
    ]
    for entry, point, sign in cases:
        before = (entry.lo, entry.hi, entry.exact)
        assert compare_root_to_point(entry, point) == sign, (before, point)
        assert (entry.lo, entry.hi, entry.exact) == before


def test_interlace_family_sample_point():
    p = isolate_real_roots(little_q_jacobi(3, F(1, 4), F(-1), Q))
    r = isolate_real_roots(little_q_jacobi(2, Q * F(1, 4), Q * F(-1), Q))
    report = interlace(p, r)
    assert report.relation is Relation.STRICT_INTERLACE
    assert report.degree_pattern is DegreePattern.DEGREE_MINUS_ONE


@given(
    c=st.builds(F, st.integers(1, 40), st.integers(1, 40)),
    roots=st.lists(
        st.builds(F, st.integers(1, 60), st.integers(1, 60)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
)
@settings(max_examples=30, deadline=None)
def test_lmesh_scale_invariance(c, roots):
    base = rs_of(*roots)
    scaled = rs_of(*(c * r for r in roots))
    r1 = lmesh(base, Q)
    r2 = lmesh(scaled, Q)
    assert r1.compare_to_q() == r2.compare_to_q()
    assert r1.exact_equals_q == r2.exact_equals_q
    assert in_lmesh_class(base, Q, True) == in_lmesh_class(scaled, Q, True)


@given(
    roots=st.lists(
        st.builds(F, st.integers(1, 50), st.integers(1, 50)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    sign=st.sampled_from([1, -1]),
    repeat=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_class_membership_consistent_with_lmesh(roots, sign, repeat):
    # negative zero sets take the reflection path; a repeated zero has ratio 1
    zeros = [sign * r for r in roots + roots[:1] * repeat]
    rs = rs_of(*zeros)
    res = lmesh(rs, Q)
    assert in_lmesh_class(rs, Q, strict=True) == (res.compare_to_q() < 0)
    assert in_lmesh_class(rs, Q, strict=False) == (res.compare_to_q() <= 0)


@given(
    roots=st.lists(
        st.builds(F, st.integers(1, 50), st.integers(1, 50)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    sign=st.sampled_from([1, -1]),
    repeat=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_lmesh_encloses_the_exact_mesh_on_coarse_root_sets(roots, sign, repeat, data):
    """On root sets isolated only to separation, the enclosure read off the
    separated sign pairs holds the exact max ratio and decides it against q,
    q drawn from fixed values and from the ratios themselves.  lmesh, both
    class calls and a zero-wise comparison run on one set in a drawn order;
    each mesh outcome is the one on a fresh copy, whatever ran before it."""
    zeros = sorted(roots + roots[:1] * repeat)
    ratios = [x / y for x, y in zip(zeros, zeros[1:])]
    true = max(ratios)
    q = data.draw(st.sampled_from([F(1, 4), Q, F(3, 4), F(9, 10), *(r for r in ratios if r < 1)]))
    rs = isolate_real_roots(PolyExact.from_roots([sign * z for z in zeros]), None)
    fresh = rs.copy()

    def mesh(s):
        res = lmesh(s, q)
        assert res.value_lo <= true <= res.value_hi
        assert res.compare_to_q() == (true > q) - (true < q)
        assert res.exact_equals_q == (true == q)
        return res.compare_to_q(), res.exact_equals_q

    decisions = {
        "lmesh": mesh,
        "strict": lambda s: in_lmesh_class(s, q, strict=True),
        "closure": lambda s: in_lmesh_class(s, q, strict=False),
    }
    for name in data.draw(st.permutations([*decisions, "zerowise"])):
        if name == "zerowise":
            assert zerowise_compare(rs, rs.copy()) == ZerowiseReport(True, None, False)
        else:
            assert decisions[name](rs) == decisions[name](fresh.copy())


def test_lmesh_at_a_tiny_q_takes_few_evaluations(monkeypatch):
    """Work bound, counted in ``roots._value`` calls, not time: isolating
    little_q_jacobi(3, 1/2, 1/2, 10^-300) at the default eps and deciding
    its lmesh, as ``qzeros lmesh`` does, takes fewer than 2,000
    evaluations.  Its zeros lie near q^2, q and 1, and an interval from 0
    needs about 2,000 halvings to part the smallest from q times the next;
    the comparison doubles its halvings after four one-bit rounds (302
    evaluations when written), and one halving a round took 10,878."""
    q = F(1, 10**300)
    evaluations = []
    real = roots._value
    monkeypatch.setattr(roots, "_value", lambda *args: evaluations.append(args) or real(*args))
    assert lmesh(isolate_real_roots(little_q_jacobi(3, F(1, 2), F(1, 2), q)), q).compare_to_q() == -1
    assert len(evaluations) < 2_000, len(evaluations)


def test_lmesh_refines_only_as_far_as_the_sign_decision(monkeypatch):
    """lmesh refines exactly as often as in_lmesh_class(strict=True) does on
    a fresh copy: the enclosure takes no refinement of its own.  On
    little_q_jacobi(3, 1/4, 1/2, 1/2) isolated to 1/16 the sign decision
    refines 7 times; an lmesh that tightened its enclosure after the signs
    would refine more.  Later class and lmesh calls with the same base read
    the kept sign pass: no scaled copy, no sign test against 0 and no gcd,
    and lmesh's comparison; another base runs its own pass.  r(x) r(2x) has
    lmesh exactly 1/2, proven by gcd.  Reflected, the zeros are negative and
    the reflected copy is kept."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(RootEntry, "_refine", counting("refine", RootEntry._refine))
    monkeypatch.setattr(RootSet, "scaled", counting("scaled", RootSet.scaled))
    monkeypatch.setattr(analysis, "compare_root_to_point", counting("point", analysis.compare_root_to_point))
    monkeypatch.setattr(analysis, "poly_gcd", counting("gcd", analysis.poly_gcd))
    twins = PolyExact((2, -4, 1)) * PolyExact((2, -8, 4))  # r(x) r(2x), r = x^2 - 4x + 2
    for poly, mesh_cmp, refines in [(little_q_jacobi(3, F(1, 4), F(1, 2), Q), -1, 7), (twins, 0, 0)]:
        for sign in (1, -1):
            rs = isolate_real_roots(poly.scale_arg(sign), F(1, 16))
            fresh = rs.copy()
            calls.clear()
            res = lmesh(rs, Q)
            assert res.compare_to_q() == mesh_cmp
            assert calls["refine"] == refines and calls["gcd"] == 1  # built where a pair first overlaps
            by_lmesh = +calls
            calls.clear()
            assert in_lmesh_class(fresh, Q, strict=True) == (mesh_cmp < 0)
            assert by_lmesh == +calls
            calls.clear()
            assert in_lmesh_class(rs, Q, strict=True) == (mesh_cmp < 0)
            assert in_lmesh_class(rs, Q, strict=False) == (mesh_cmp <= 0)
            again = lmesh(rs, Q)
            assert not +calls
            assert again == res
            assert lmesh(rs, Q / 2).compare_to_q() == 1 and calls["scaled"]  # another base: its own pass


def test_decisions_narrow_caller_root_sets_in_place():
    """Every relation decision narrows the caller's root sets in place and
    leaves them valid: each interval inside its old one, each certificate
    kept, order, counts, multiplicities and exact roots kept, and each
    outcome the one the decision gives on a copy taken beforehand."""
    coarse = F(1, 4)
    p = isolate_real_roots(little_q_jacobi(3, F(1, 4), F(-1), Q), coarse)
    r = isolate_real_roots(little_q_jacobi(3, F(1, 2), F(1, 2), Q), coarse)
    s = isolate_real_roots(little_q_jacobi(2, Q * F(1, 4), Q * F(-1), Q), coarse)
    assert any(e.exact is None for e in p.roots)
    originals = [rs.copy() for rs in (p, r, s)]
    decisions = [
        (interlace, (p, s)),
        (interlace, (p, r)),
        (zerowise_compare, (p, r)),
        (lambda rs: lmesh(rs, Q), (p,)),
        (lambda rs: in_lmesh_class(rs, Q, strict=True), (p,)),
        (lambda rs: in_lmesh_class(rs, Q, strict=False), (r,)),
    ]
    for decide, sets in decisions:
        on_copies = decide(*(rs.copy() for rs in sets))
        assert decide(*sets) == on_copies
    for rs, old in zip((p, r, s), originals):
        assert rs.total_count == old.total_count
        assert [e.multiplicity for e in rs.roots] == [e.multiplicity for e in old.roots]
        for e, o in zip(rs.roots, old.roots):
            assert o.lo <= e.lo <= e.hi <= o.hi
            assert o.exact is None or e.exact == o.exact
            if e.exact is None:
                assert sign_at(e.factor, e.lo) * sign_at(e.factor, e.hi) < 0
            else:
                assert e.lo == e.hi == e.exact and sign_at(e.factor, e.exact) == 0
        assert all(e.hi < f.lo for e, f in zip(rs.roots, rs.roots[1:]))
    assert any(e.width < o.width for e, o in zip(p.roots, originals[0].roots))


def test_common_interlacer_upgrade_on_family_triple():
    """When two polynomials share a strict interlacer and sit in zero-wise
    order, they interlace strictly."""
    q, n, a, b = F(1, 2), 3, F(1, 3), F(-1)
    p1 = isolate_real_roots(little_q_jacobi(n, a, q**2 * b, q))
    p2 = isolate_real_roots(little_q_jacobi(n, q**2 * a, b, q))
    s = isolate_real_roots(little_q_jacobi(n - 1, q**2 * a, q**2 * b, q))
    assert interlace(p1, s).relation is Relation.STRICT_INTERLACE
    assert interlace(p2, s).relation is Relation.STRICT_INTERLACE
    assert dominates(p1, p2)
    assert interlace(p1, p2).relation is Relation.STRICT_INTERLACE


def test_coincidence_sign_test_matches_sturm_count(monkeypatch):
    """The gcd sign test of _PairContext against the Sturm count of the
    square-free gcd that it replaced, on every overlap met while the
    thm2/thmA checks run, and on coincidences at irrational roots.  A point
    overlap [r, r] at an exact root holds a shared root exactly when
    gcd(r) = 0; shared rational roots and the lmesh of E_k, which is q
    exactly, meet such overlaps.  Each comparison tests only its first
    overlap, so the grid runs every degree up to 7 to meet more than 1000
    of them."""
    outcomes, points = [], []

    class Checked(analysis._PairContext):
        def coincide(self, ea, eb):
            got = super().coincide(ea, eb)
            lo, hi = max(ea.lo, eb.lo), min(ea.hi, eb.hi)
            g = poly_gcd(self._pa, self._pb)
            if lo == hi:
                want = sign_at(g, lo) == 0
                points.append(got)
            else:
                chain = SturmChain(square_free_part(g)) if g.degree >= 1 else None
                want = chain is not None and lo < hi and chain.count(lo, hi) == 1
            assert got == want, (lo, hi)
            outcomes.append(got)
            return got

    monkeypatch.setattr(analysis, "_PairContext", Checked)
    for q in (F(1, 2), F(3, 4)):
        for check_id in ("thmA-1", "thmA-2", "thmA-3", "thm2-i", "thm2-ii", "thm2-iii", "thm2-lmesh"):
            b_values = [F(-2), F(-1)] if check_id == "thm2-iii" else [F(-1), F(1, 2)]
            grid = GridSpec(q_values=[q], t_values=default_t_values(q), n_values=list(range(1, 8)),
                            a_values=[F(1, 2), F(1)], b_values=b_values)
            assert all(r.status.value == "Pass" for r in check_property(check_id, grid))
    shared = PolyExact((-2, 0, 1))
    interlace(isolate_real_roots(shared * PolyExact((-5, 1))), isolate_real_roots(shared * PolyExact((-6, 1))))
    lmesh(isolate_real_roots(PolyExact((2, -4, 1)) * PolyExact((F(1, 2), -2, 1))), Q)
    third = PolyExact.from_roots([F(1, 3)])
    shared = interlace(isolate_real_roots(third * PolyExact((-2, 1))), isolate_real_roots(third * PolyExact((-5, 1))))
    assert shared.relation is Relation.WEAK_INTERLACE
    for q in (Q, F(3, 4)):
        assert lmesh(isolate_real_roots(e_factor(4, q), None), q).exact_equals_q
    assert len(outcomes) > 1000 and any(outcomes)
    assert any(points) and not all(points), Counter(points)


def _compare_roots_halving_both(ea, eb, coincide=None):
    """The root comparison that wider-only halving replaced: while the two
    intervals overlap it asks ``coincide`` on every round and halves both
    entries."""
    while True:
        c = roots._order(ea, eb)
        if c:
            return c
        if eb.exact is not None:
            c = roots._root_vs_point(ea, eb.exact)
            while c and not roots._order(ea, eb):
                ea._halve(1)
            return c
        if ea.exact is not None:
            return -_compare_roots_halving_both(eb, ea)
        if coincide is not None and coincide(ea, eb):
            return 0
        ea._halve(1)
        eb._halve(1)


class _AgainstHalvingBoth:
    """Stands in for ``analysis._compare_roots``.  Each decision comparison
    runs the reference on copies of its two entries, then the comparison
    itself on the entries, and the two must give the same sign.  A nonzero
    sign must leave the pair disjoint, and a 0 must come with the gcd
    certificate: the square-free part g of gcd(pa, pb) changes sign or
    vanishes across the overlap.  Counts the comparisons, the ties, the
    coincidence tests of each comparison, and the ``roots._value``
    evaluations of each loop."""

    def __init__(self, monkeypatch):
        self.ties = 0
        self.tests_per_call = Counter()
        self.values = Counter()
        self._loop = None
        self._gcds = {}
        value = roots._value

        def counted(*args):
            self.values[self._loop] += 1
            return value(*args)

        monkeypatch.setattr(roots, "_value", counted)
        monkeypatch.setattr(analysis, "_compare_roots", self)

    def __call__(self, ea, eb, coincide):
        self._loop = "reference"
        want = _compare_roots_halving_both(ea.copy(), eb.copy(), coincide)
        tests = 0

        def counted_coincide(a, b):
            nonlocal tests
            tests += 1
            return coincide(a, b)

        self._loop = "change"
        got = roots._compare_roots(ea, eb, counted_coincide)
        self._loop = None
        self.tests_per_call[tests] += 1
        assert got == want, (ea.factor, eb.factor)
        if got:
            assert roots._order(ea, eb) == got
        else:
            self.ties += 1
            ctx = coincide.__self__
            if ctx not in self._gcds:
                self._gcds[ctx] = square_free_part(poly_gcd(ctx._pa, ctx._pb))
            g = self._gcds[ctx]
            lo, hi = max(ea.lo, eb.lo), min(ea.hi, eb.hi)
            assert g.degree >= 1 and lo <= hi and sign_at(g, lo) * sign_at(g, hi) <= 0
        return got


def _decide_coarse(seed=None):
    """Every decision of the decide-coarse benchmark on its 72 draws of
    ``seed``, by default the pinned one.  The benchmark records a raised
    decision as an outcome, so a failed assertion inside a comparison
    surfaces here."""
    from test_pinned_report import workloads

    outcomes = workloads.decide_outcomes(workloads.decide_draws(seed or workloads.DECIDE_DEFAULT_SEED))
    raised = [o for o in outcomes for v in o.values() if isinstance(v, list) and v[:1] == ["raised"]]
    assert not raised, raised[:3]


def test_root_comparison_matches_halving_both_on_acceptance_grids(monkeypatch):
    """Every decision comparison gives the sign of the loop it replaced, on
    the interlacing and zero-wise pairs of the thm2/thmA acceptance grid, on
    the lmesh pairs (p against p(x/q)) of the thm2-lmesh acceptance grid,
    and on the 72 seeded draws of the decide-coarse benchmark."""
    check = _AgainstHalvingBoth(monkeypatch)
    for q in (F(1, 2), F(3, 4)):
        for check_id in ("thmA-1", "thmA-2", "thmA-3", "thm2-i", "thm2-ii", "thm2-iii"):
            b_values = [F(-2), F(-1)] if check_id == "thm2-iii" else [F(-1), F(1, 2)]
            grid = GridSpec(q_values=[q], t_values=default_t_values(q), n_values=[1, 3, 5],
                            a_values=[F(1, 2), F(1)], b_values=b_values)
            assert all(r.status.value == "Pass" for r in check_property(check_id, grid))
    grid = GridSpec(q_values=[F(1, 4), F(1, 2), F(3, 4), F(9, 10)], n_values=list(range(1, 9)),
                    a_values=[F(1, 4), F(1, 2), F(1)], b_values=[F(-2), F(-1, 2), F(0), F(1, 2), F(1)])
    assert all(r.status.value == "Pass" for r in check_property("thm2-lmesh", grid))
    on_grids = sum(check.tests_per_call.values())
    _decide_coarse()
    on_draws = sum(check.tests_per_call.values()) - on_grids
    assert on_grids > 2000 and on_draws > 2000 and check.ties > 300, (on_grids, on_draws, check.ties)


def test_root_comparison_tests_coincidence_once_and_halves_less(monkeypatch):
    """On the decide-coarse draws, no comparison asks for more than one
    coincidence test, and the comparisons evaluate the factors fewer times
    than the loop that halved both entries every round."""
    check = _AgainstHalvingBoth(monkeypatch)
    _decide_coarse()
    assert max(check.tests_per_call) == 1, check.tests_per_call
    assert check.values["change"] < check.values["reference"], check.values


def _compare_roots_with_fork(ea, eb, coincide=None):
    """The root comparison from before an exact root was a width-0 interval
    like any other.  Against an exact root it took the sign from one
    evaluation of the other factor at that root, with no coincidence test,
    and then halved the other entry until the two were disjoint; an exact
    ``ea`` swapped the arguments and recursed."""
    while True:
        c = roots._order(ea, eb)
        if c:
            return c
        if eb.exact is not None:
            c = roots._root_vs_point(ea, eb.exact)
            while c and not roots._order(ea, eb):
                ea._halve(1)
            return c
        if ea.exact is not None:
            return -_compare_roots_with_fork(eb, ea)
        if coincide is not None:
            if coincide(ea, eb):
                return 0
            coincide = None
        wa = (ea._hi - ea._lo) * (eb._d << eb._m)
        wb = (eb._hi - eb._lo) * (ea._d << ea._m)
        if wa >= wb:
            ea._halve(1)
        if wb >= wa:
            eb._halve(1)


def _nested(e, ref):
    """Whether one of the two intervals holds the other."""
    return ref.lo <= e.lo <= e.hi <= ref.hi or e.lo <= ref.lo <= ref.hi <= e.hi


class _AgainstFork:
    """Stands in for ``_compare_roots`` in the decisions and in the
    isolation sort.  Each comparison runs the reference on copies of its two
    entries, then the comparison itself on the entries: both must give the
    same sign, each interval left must be nested with the reference's (the
    doubling rounds may overshoot the one-bit steps, or stop short of them),
    and a nonzero sign must leave the pair disjoint.  Counts the
    comparisons, those that start on an overlap with an exact root, and the
    ``roots._value`` evaluations of each loop."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.values = Counter()
        self._loop = None
        self._compare = roots._compare_roots
        value = roots._value

        def counted(*args):
            self.values[self._loop] += 1
            return value(*args)

        monkeypatch.setattr(roots, "_value", counted)
        monkeypatch.setattr(roots, "_compare_roots", self)
        monkeypatch.setattr(analysis, "_compare_roots", self)

    def __call__(self, ea, eb, coincide=None):
        at_exact = not roots._order(ea, eb) and (ea.exact is not None or eb.exact is not None)
        self.calls["decision" if coincide else "isolation", at_exact] += 1
        ref_a, ref_b = ea.copy(), eb.copy()
        self._loop = "reference"
        want = _compare_roots_with_fork(ref_a, ref_b, coincide)
        self._loop = "change"
        got = self._compare(ea, eb, coincide)
        self._loop = None
        assert got == want, (ea.factor, eb.factor)
        assert _nested(ea, ref_a) and _nested(eb, ref_b), (ea.factor, eb.factor)
        assert not got or roots._order(ea, eb) == got, (ea.factor, eb.factor)
        return got


def _exact_root_decisions():
    """Decisions on root sets with exact roots: E_k at q in {1/2, 3/4, 9/10}
    with k <= 6, factor-bneg's p_n(x; a, q^-k) = E_k(qx) p_(n-k)(...), and
    the Table 1 row 2 samples, whose top zero is q exactly."""
    for q in (Q, F(3, 4), F(9, 10)):
        ek = [isolate_real_roots(e_factor(k, q), None) for k in range(1, 7)]
        for k, rs in enumerate(ek[1:], 2):
            assert lmesh(rs, q).exact_equals_q and in_lmesh_class(rs, q, strict=False)
            assert interlace(rs, ek[k - 2]).relation is Relation.WEAK_INTERLACE
            assert zerowise_compare(rs, rs.copy()).holds
        for n in range(2, 6):
            for k in range(1, n + 1):
                p, r = (isolate_real_roots(little_q_jacobi(n, a, q**-k, q), None) for a in (F(1, 2), F(1, 4)))
                lmesh(p, q)
                interlace(p, r)
                zerowise_compare(p, r)
    grid = GridSpec(q_values=[F(1, 4), Q, F(3, 4)], n_values=[2, 3, 4, 5])
    assert all(r.status.value == "Pass" for r in check_property("table1-row-2", grid))


def test_root_comparison_matches_the_exact_root_fork(monkeypatch):
    """Every root comparison, in the decisions and in the isolation sort,
    gives the sign that the one-bit comparison with an exact-root fork gave,
    leaves intervals nested with its intervals, and evaluates the factors no
    more often in all: on the thm2/thmA and thm2-lmesh acceptance grids, on
    the decide-coarse draws of seeds 1 and 2, and on root sets with exact
    roots."""
    check = _AgainstFork(monkeypatch)
    for q in (F(1, 2), F(3, 4)):
        for check_id in ("thmA-1", "thmA-2", "thmA-3", "thm2-i", "thm2-ii", "thm2-iii"):
            b_values = [F(-2), F(-1)] if check_id == "thm2-iii" else [F(-1), F(1, 2)]
            grid = GridSpec(q_values=[q], t_values=default_t_values(q), n_values=[1, 3, 5],
                            a_values=[F(1, 2), F(1)], b_values=b_values)
            assert all(r.status.value == "Pass" for r in check_property(check_id, grid))
    grid = GridSpec(q_values=[F(1, 4), F(1, 2), F(3, 4), F(9, 10)], n_values=list(range(1, 9)),
                    a_values=[F(1, 4), F(1, 2), F(1)], b_values=[F(-2), F(-1, 2), F(0), F(1, 2), F(1)])
    assert all(r.status.value == "Pass" for r in check_property("thm2-lmesh", grid))
    _decide_coarse(1)
    _decide_coarse(2)
    _exact_root_decisions()
    assert check.values["change"] <= check.values["reference"], check.values
    assert check.calls["decision", True] > 500 and check.calls["isolation", True] > 100, check.calls


# -- integer coincidence test and lmesh enclosure against the Fraction views --


class _FractionViewPairs(analysis._PairContext):
    """The coincidence test as it ran on the entries' ``Fraction`` views, the
    overlap's ends taken as max(lo) and min(hi): the reference."""

    def coincide(self, ea, eb):
        if self._g is None:
            self._g = square_free_part(analysis.poly_gcd(self._pa, self._pb))
        g = self._g
        return g.degree >= 1 and sign_at(g, max(ea.lo, eb.lo)) * sign_at(g, min(ea.hi, eb.hi)) <= 0


@given(
    zeros=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=3, max_size=3, unique=True),
    ends=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8), min_size=4, max_size=4),
    shifts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=200, deadline=None)
def test_coincidence_test_reads_the_overlap_ends_of_the_views(zeros, ends, shifts):
    """On two overlapping intervals in drawn frames d 2^m, the integer
    coincidence test evaluates gcd(pa, pb) = x - s at the overlap's ends
    max(lo) and min(hi), as the test on the views did; pa and pb share the
    root s and have one more root each."""
    s, ra, rb = zeros
    pa, pb = PolyExact.from_roots([s, ra]), PolyExact.from_roots([s, rb])
    (la, ha), (lb, hb) = sorted(ends[:2]), sorted(ends[2:])
    assume(max(la, lb) <= min(ha, hb))
    entries = []
    for (lo, hi), poly, k in zip(((la, ha), (lb, hb)), (pa, pb), shifts):
        e = RootEntry(lo, hi, 1, poly)
        e._lo, e._hi, e._m = e._lo << k, e._hi << k, k
        entries.append(e)
    assert analysis._PairContext(pa, pb).coincide(*entries) == _FractionViewPairs(pa, pb).coincide(*entries)


def _fraction_view_ends(rs, q):
    """Each ratio's enclosure q*lambda_j.lo / (q*lambda_(j+1)).hi and
    min(q*lambda_j.hi / (q*lambda_(j+1)).lo, 1), as ``Fraction``s of the
    views, read off the sign pass kept on rs for base q."""
    lam, lam_scaled, _ = rs._mesh[q]
    pairs = list(zip(lam, lam_scaled[1:]))
    return [q * a.lo / b.hi for a, b in pairs], [min(q * a.hi / b.lo, F(1)) for a, b in pairs]


def _fraction_view_lmesh(rs, q):
    """``lmesh`` with the enclosure built from ``Fraction`` ratios of the
    views: the reference."""
    analysis._require_certified(rs, "lmesh")
    if rs.total_count < 2:
        raise UndefinedLmeshError("lmesh needs at least two zeros")
    *_, cmps = analysis._mesh_signs(rs, q)
    los, his = _fraction_view_ends(rs, q)
    top_sign = max(cmps)
    argmax = cmps.index(top_sign) if top_sign >= 0 else his.index(max(his))
    return analysis.LmeshResult(max(los), max(his), argmax, top_sign == 0, q)


@cache
def _acceptance_grid_decisions():
    """(q, polynomials) for each decision that the thm2/thmA acceptance
    grids make: the pair of an interlacing or zero-wise check, or the one
    polynomial of thm2-lmesh."""
    found = {}

    def recording(decide):
        def recorded(*args, **kwargs):
            found[q, tuple(rs.poly for rs in args if isinstance(rs, RootSet))] = None
            return decide(*args, **kwargs)

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        for name in ("interlace", "zerowise_compare", "in_lmesh_class"):
            mp.setattr(verify, name, recording(getattr(verify, name)))
        for q in (F(1, 2), F(3, 4)):
            for check_id in ("thmA-1", "thmA-2", "thmA-3", "thm2-i", "thm2-ii", "thm2-iii", "thm2-lmesh"):
                b_values = [F(-2), F(-1)] if check_id == "thm2-iii" else [F(-1), F(1, 2)]
                grid = GridSpec(q_values=[q], t_values=default_t_values(q), n_values=[1, 3, 5, 7],
                                a_values=[F(1, 2), F(1)], b_values=b_values)
                assert all(r.status.value == "Pass" for r in check_property(check_id, grid))
    return list(found)


def _decision_cases():
    """(q, root sets), freshly isolated on each call: the four sets of each
    decide-coarse draw of the default seed (p, its thm2-i partner, p with b
    moved to q^2 b, and p isolated again) at the benchmark's eps, and the
    sets of each acceptance-grid decision isolated to separation."""
    from test_pinned_report import workloads

    cases = []
    for d in workloads.decide_draws(workloads.DECIDE_DEFAULT_SEED):
        q = d.q
        polys = [little_q_jacobi(d.n, d.a, d.b, q), little_q_jacobi(d.n - 1, q * d.a, q * d.b, q),
                 little_q_jacobi(d.n, d.a, q * q * d.b, q)]
        cases.append((q, [isolate_real_roots(p, workloads.DECIDE_EPS) for p in polys + polys[:1]]))
    for q, polys in _acceptance_grid_decisions():
        cases.append((q, [isolate_real_roots(p, None) for p in polys]))
    return cases


def _decide_cases(cases, lmesh_fn):
    """interlace and zerowise_compare of the first set of each case against
    every other set, then lmesh and both class memberships of every set at
    the bases q and q^2; a raised decision gives its error's name."""

    def outcome(decide, *args):
        try:
            return decide(*args)
        except (ShapeError, LmeshDomainError, UndefinedLmeshError) as exc:
            return type(exc).__name__

    out = []
    for q, sets in cases:
        for other in sets[1:]:
            out.append(outcome(interlace, sets[0], other))
            out.append(outcome(zerowise_compare, sets[0], other))
        for rs in sets:
            for base in (q, q * q):
                out.append(outcome(lmesh_fn, rs, base))
                out.append(outcome(in_lmesh_class, rs, base, True))
                out.append(outcome(in_lmesh_class, rs, base, False))
    return out


def _frames(cases):
    """Every entry's integer frame, the kept lmesh sign passes' entries included."""
    out = []
    for _, sets in cases:
        for rs in sets:
            entries = list(rs.roots)
            for lam, lam_scaled, _ in rs._mesh.values():
                entries += lam + lam_scaled
            out.append([(e._lo, e._hi, e._d, e._m) for e in entries])
    return out


def _unread(name):
    def read(entry):
        raise AssertionError(f"the integer path read RootEntry.{name}")

    return property(read)


def _run_decisions(reference):
    """The outcomes, the frames after them and the gcd count of deciding
    freshly isolated cases, by the reference coincidence test and enclosure
    on the views, or by the integer ones with the views made to raise."""
    cases = _decision_cases()
    gcds = 0
    real_gcd = analysis.poly_gcd

    def counted(a, b):
        nonlocal gcds
        gcds += 1
        return real_gcd(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "poly_gcd", counted)
        if reference:
            mp.setattr(analysis, "_PairContext", _FractionViewPairs)
        else:
            for name in ("lo", "hi", "width", "exact"):
                mp.setattr(RootEntry, name, _unread(name))
        outcomes = _decide_cases(cases, _fraction_view_lmesh if reference else lmesh)
    return outcomes, _frames(cases), gcds


def test_integer_coincidence_and_enclosure_match_the_fraction_views():
    """interlace, zerowise_compare, lmesh and in_lmesh_class decide as they
    did with the coincidence test and lmesh enclosure on ``Fraction`` views,
    on separate isolations of the decide-coarse draws and of the thm2/thmA
    acceptance-grid decisions: equal outcomes, equal entry frames afterwards
    and as many gcds, while the integer path reads no ``lo``, ``hi``,
    ``width`` or ``exact`` view."""
    want = _run_decisions(reference=True)
    got = _run_decisions(reference=False)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    enclosures = [o for o in got[0] if isinstance(o, analysis.LmeshResult)]
    assert len(enclosures) > 1000 and got[2] > 800, (len(enclosures), got[2])
    assert {r.compare_to_q() for r in enclosures} == {-1, 0, 1}


def test_lmesh_enclosure_matches_the_fraction_formula_on_edge_cases():
    """value_lo, value_hi and argmax_index equal the ``Fraction`` formula, on
    the same sign pass: on r(x)^2 with r = x^2 - 4x + 2, whose two double
    zeros give a clamped upper end 1 at two indices, a tie; on E_k, where
    lmesh is q exactly; and on a negative zero set, which is reflected."""
    double = PolyExact((2, -4, 1)) * PolyExact((2, -4, 1))
    negative = little_q_jacobi(5, F(1, 2), F(1, 2), Q).scale_arg(-1)
    cases = [(double, Q, 1), (negative, Q, -1)] + [(e_factor(4, q), q, 0) for q in (Q, F(3, 4), F(9, 10))]
    for poly, q, cmp in cases:
        for eps in (None, F(1, 16)):
            rs = isolate_real_roots(poly, eps)
            got = lmesh(rs, q)
            assert got == _fraction_view_lmesh(rs, q), (poly, eps)
            assert got.compare_to_q() == cmp
            if poly is double:
                assert _fraction_view_ends(rs, q)[1].count(F(1)) == 2 and got.value_hi == 1
