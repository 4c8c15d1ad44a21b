"""Differential tests: the integer-backed ``PolyExact`` against the
``Fraction``-tuple polynomial it replaced (``tests/polyexact_reference.py``).

Every operation must give the same coefficients as the reference, in
canonical form, and every identity check's two sides, built on the
acceptance identity grid, must equal the sides the reference builders make.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import polyexact_reference as ref
from qzeros import SELFTEST_ID, GridSpec, PolyExact, identity_check_ids, run_identity_on_grid
from qzeros import verify

# zero, small, negative and huge numerators and denominators
_INT = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(2**200), 2**200),
)
_DEN = st.one_of(st.integers(1, 9), st.integers(1, 2**150))
_COEFF = st.one_of(_INT, st.builds(F, _INT, _DEN))
# trailing zeros make non-canonical inputs; ints, Fractions and strings mix
_COEFFS = st.lists(_COEFF, max_size=7).flatmap(
    lambda cs: st.integers(0, 2).map(lambda z: cs + [0] * z)
)
_TEXT_COEFFS = st.lists(_COEFF.map(str), max_size=4)


def _pair(coeffs):
    return PolyExact(coeffs), ref.PolyExact(coeffs)


def _same(new: PolyExact, old: ref.PolyExact) -> None:
    """Same coefficients, and the integer form is canonical."""
    assert isinstance(new, PolyExact)
    assert new.coeffs == old.coeffs
    assert new.degree == old.degree
    assert new.den > 0 and gcd(new.den, *new.num) == 1
    assert not new.num or new.num[-1] != 0
    assert new.num == old._integer_coeffs() and new.den == old._den


@given(cs=_COEFFS)
@settings(max_examples=200, deadline=None)
def test_construction_and_view(cs):
    p, r = _pair(cs)
    _same(p, r)
    assert p.coeffs is p.coeffs  # the view is built once
    assert all(p.coeff(i) == r.coeff(i) for i in range(-1, len(cs) + 2))
    assert p.is_zero == r.is_zero


@given(cs=_TEXT_COEFFS)
@settings(max_examples=50, deadline=None)
def test_construction_from_strings(cs):
    _same(PolyExact(cs), ref.PolyExact(cs))


@given(num=st.lists(_INT, max_size=6), den=st.one_of(_DEN, _DEN.map(lambda d: -d)))
@settings(max_examples=200, deadline=None)
def test_from_ints_reduces_any_denominator(num, den):
    _same(PolyExact.from_ints(num, den), ref.PolyExact(F(c, den) for c in num))


@given(a=_COEFFS, b=_COEFFS)
@settings(max_examples=200, deadline=None)
def test_ring_operations(a, b):
    (pa, ra), (pb, rb) = _pair(a), _pair(b)
    _same(pa + pb, ra + rb)
    _same(pa - pb, ra - rb)
    _same(-pa, -ra)
    _same(pa * pb, ra * rb)
    _same(pa - pa, ra - ra)


@given(a=_COEFFS, c=st.one_of(_COEFF, _COEFF.map(str)))
@settings(max_examples=200, deadline=None)
def test_scalar_multiplication(a, c):
    pa, ra = _pair(a)
    _same(pa * c, ra * c)
    _same(c * pa, c * ra)
    _same(F(c) * pa, F(c) * ra)


@given(a=_COEFFS, c=_COEFF, k=st.integers(0, 4), extra=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_structural_transforms(a, c, k, extra):
    pa, ra = _pair(a)
    _same(pa.scale_arg(c), ra.scale_arg(c))
    _same(pa.derivative(), ra.derivative())
    _same(pa.shift_up(k), ra.shift_up(k))
    n = max(pa.degree, 0) + extra
    _same(pa.reversed_to(n), ra.reversed_to(n))
    _same(pa.monic(), ra.monic())
    _same(pa.primitive(), ra.primitive())
    if pa.degree > 0:
        with pytest.raises(ValueError):
            pa.reversed_to(pa.degree - 1)


@given(a=_COEFFS, b=_COEFFS)
@settings(max_examples=200, deadline=None)
def test_division(a, b):
    (pa, ra), (pb, rb) = _pair(a), _pair(b)
    if pb.is_zero:
        with pytest.raises(ZeroDivisionError):
            pa.divmod(pb)
        return
    (q, r), (rq, rr) = pa.divmod(pb), ra.divmod(rb)
    _same(q, rq)
    _same(r, rr)
    _same(pa // pb, ra // rb)
    _same(pa % pb, ra % rb)
    # a multiple divides exactly
    _same((pa * pb) // pb, ra)


@given(a=_COEFFS, x=_COEFF, n=_INT, d=_DEN)
@settings(max_examples=200, deadline=None)
def test_evaluation(a, x, n, d):
    pa, ra = _pair(a)
    assert pa(x) == ra(x)
    assert ref.sign_at(pa, x) == ref.sign_at(ra, x)
    assert pa.value_parts(n, d) == ra.value_parts(n, d)


@given(a=_COEFFS, b=_COEFFS)
@settings(max_examples=200, deadline=None)
def test_equality_and_hash(a, b):
    (pa, ra), (pb, rb) = _pair(a), _pair(b)
    assert (pa == pb) == (ra == rb)
    same = PolyExact(ra.coeffs)
    assert pa == same and hash(pa) == hash(same)
    assert pa != ra.coeffs  # not equal to a non-polynomial
    if pa == pb:
        assert hash(pa) == hash(pb)


# -- identity sides on the acceptance grid -----------------------------------

_Q = [F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
_A3 = [F(1, 3), F(-2), F(2, 3)]
_B3 = [F(1, 3), F(-1), F(3, 2)]
_LIST7 = [F(1, 3), F(2, 3), F(-1), F(-2), F(3, 2), F(-1, 3), F(5, 2)]
# acceptance criterion 1's (a, b) lists per identity, at n = 1..8, and
# criterion 7's limit points
_GRIDS = {
    "recip-1": (_A3, _LIST7), "qdiff-bessel": (_A3, _LIST7), "recip-3": (_LIST7, _B3),
}
_LIMIT_GRIDS = {
    "bessel-limit": GridSpec(
        q_values=[F(1, 4)], n_values=list(range(1, 7)), b_values=[F(-2), F(-1), F(1, 3)]
    ),
    "sw-limit": GridSpec(q_values=[F(1, 4)], n_values=list(range(1, 7))),
}


def _grid(check_id: str) -> GridSpec:
    if check_id in _LIMIT_GRIDS:
        return _LIMIT_GRIDS[check_id]
    a_values, b_values = _GRIDS.get(check_id, (_A3, _B3))
    return GridSpec(q_values=_Q, n_values=list(range(1, 9)), a_values=a_values, b_values=b_values)


def _sides(monkeypatch, check_id: str) -> tuple[list, list]:
    """(records, sides): every (label, lhs, rhs) comparison and every
    (approximant, target) limit pair the check builds on its grid."""
    sides = []
    compare, profile = verify._compare_sides, verify._deviation_profile

    def capture_compare(comparisons):
        sides.extend(comparisons)
        return compare(comparisons)

    def capture_profile(pairs):
        sides.extend(("limit", approx, target) for approx, target in pairs)
        return profile(pairs)

    with monkeypatch.context() as m:
        m.setattr(verify, "_compare_sides", capture_compare)
        m.setattr(verify, "_deviation_profile", capture_profile)
        records = run_identity_on_grid(check_id, _grid(check_id))
    return records, sides


@pytest.mark.parametrize("check_id", [c for c in identity_check_ids() if c != SELFTEST_ID])
def test_identity_sides_match_the_reference(monkeypatch, check_id):
    records, sides = _sides(monkeypatch, check_id)
    with monkeypatch.context() as m:
        for name in ("little_q_jacobi", "q_laguerre", "stieltjes_wigert", "q_bessel", "build_qhyper"):
            m.setattr(verify, name, getattr(ref, name))
        m.setattr(verify, "q_derivative", ref.q_derivative)
        m.setattr(verify, "e_factor", ref.e_factor)
        m.setattr(verify, "normalized_little_q_jacobi", ref.normalized_little_q_jacobi)
        m.setattr(verify, "PolyExact", ref.PolyExact)
        m.setattr(verify, "_deviation_profile", ref.deviation_profile)
        ref_records, ref_sides = _sides(m, check_id)
    assert records == ref_records
    assert sides, check_id
    assert len(sides) == len(ref_sides)
    for (label, lhs, rhs), (ref_label, ref_lhs, ref_rhs) in zip(sides, ref_sides):
        assert isinstance(lhs, PolyExact) and isinstance(ref_lhs, ref.PolyExact)
        assert label == ref_label
        assert lhs.coeffs == ref_lhs.coeffs, (check_id, label)
        assert rhs.coeffs == ref_rhs.coeffs, (check_id, label)
