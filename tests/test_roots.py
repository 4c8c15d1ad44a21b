"""Certified isolation: exact roots, multiplicities, certificates, refinement."""

from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qzeros import (
    InvalidParameterError,
    InvalidToleranceError,
    PolyExact,
    isolate_real_roots,
    little_q_jacobi,
    q_bessel,
    q_laguerre,
    square_free_decomposition,
    stieltjes_wigert,
)
from qzeros import qhyper
from qzeros.roots import cauchy_bound, simplest_rational_between


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


def test_root_set_copy_and_scaled():
    rs = isolate_real_roots(PolyExact((-2, 0, 1)) * PolyExact((1, -4)))  # +-sqrt2, 1/4
    dup = rs.copy()
    assert all(a is not b for a, b in zip(dup.roots, rs.roots))
    dup.roots[0].bisect_once()
    assert (dup.roots[0].lo, dup.roots[0].hi) != (rs.roots[0].lo, rs.roots[0].hi)
    neg = rs.scaled(F(-2))  # roots of p(-x/2): -2 * root, order reversed
    assert neg.total_count == rs.total_count and neg.certified_real_rooted
    assert [e.exact for e in neg.roots] == [None, F(-1, 2), None]
    for e, orig in zip(neg.roots, reversed(rs.roots)):
        assert (e.lo, e.hi) == (-2 * orig.hi, -2 * orig.lo)
        assert e.factor.sign_at(e.lo) * e.factor.sign_at(e.hi) <= 0
        assert neg.poly.sign_at(e.lo) * neg.poly.sign_at(e.hi) <= 0


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


def test_cauchy_bound_contains_roots():
    p = PolyExact.from_roots([-9, F(17, 3), F(1, 4)])
    b = cauchy_bound(p)
    assert b > 9 and b > F(17, 3)


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


def test_snap_catches_scaled_lattice_roots():
    # roots are powers of 9/10; snapping recovers them exactly
    q = F(9, 10)
    p = PolyExact.from_roots([q, q**2, q**3])
    rs = isolate_real_roots(p)
    assert [e.exact for e in rs.roots] == [q**3, q**2, q]


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
    """sign_at (integer Horner) agrees with the sign of the Fraction value."""
    p, x = case
    v = p(x)
    assert p.sign_at(x) == (v > 0) - (v < 0)


def _acceptance_grid_polynomials():
    """The polynomials of the acceptance grids, one per family instance."""
    out = []
    for q in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        for n in range(1, 9):
            for a in (F(1, 4), F(1, 2), F(1)):
                for b in (F(-2), F(-1, 2), F(0), F(1, 2), F(1)):
                    out.append(little_q_jacobi(n, a, b, q))
            out.extend(q_bessel(n, b, q) for b in (F(-2), F(-1, 2)))
            out.append(stieltjes_wigert(n, q))
            out.extend(q_laguerre(n, b, q) for b in (F(1, 4), F(1, 2), F(3, 4)))
    return out


def test_lazy_isolation_matches_eager_on_acceptance_grids():
    """Isolation to separation (eps=None) against refinement to 2^-64.

    Counts, certification and multiplicities agree, and every lazy interval
    holds its eager interval.  A lazy exact root is the eager one; an eager
    exact root that the wider lazy interval did not snap to is a proven zero
    of the lazy entry's factor inside that interval.
    """
    for p in _acceptance_grid_polynomials():
        lazy, eager = isolate_real_roots(p, None), isolate_real_roots(p, F(1, 2**64))
        assert lazy.total_count == eager.total_count, p
        assert lazy.certified_real_rooted == eager.certified_real_rooted, p
        assert len(lazy.roots) == len(eager.roots), p
        for lz, eg in zip(lazy.roots, eager.roots):
            assert lz.multiplicity == eg.multiplicity, p
            assert lz.lo <= eg.lo and eg.hi <= lz.hi, p
            if lz.exact is not None:
                assert eg.exact == lz.exact, p
            elif eg.exact is not None:
                assert lz.factor.sign_at(eg.exact) == 0, p


def test_square_free_decomposition_unchanged_by_modular_certificate(monkeypatch):
    """On the acceptance-grid polynomials, the decomposition with the
    modular coprimality certificate equals the one by rational Euclid alone.
    They are all square-free, and the certificate proves it for each."""
    polys = _acceptance_grid_polynomials()
    assert len(polys) == 672
    certified = 0
    for p in polys:
        f = p.monic()
        certified += qhyper._coprime_mod_p(f._integer_coeffs(), f.derivative()._integer_coeffs())
    with_certificate = [square_free_decomposition(p) for p in polys]
    monkeypatch.setattr(qhyper, "_coprime_mod_p", lambda a, b: False)
    assert with_certificate == [square_free_decomposition(p) for p in polys]
    assert certified == len(polys)
