"""Polynomial algebra and the generic terminating series builder."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qzeros import (
    ConstraintViolationError,
    GridSpec,
    HyperSpec,
    PolyExact,
    build_qhyper,
    poly_gcd,
    qpoch_finite,
    qpoch_vector,
    run_identity_on_grid,
    square_free_decomposition,
    square_free_part,
)
from qzeros import families, qhyper, verify

Q_VALUES = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
PARAMS = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


def test_zero_polynomial_representation():
    z = PolyExact(())
    assert z.is_zero and z.degree == -1
    assert PolyExact((0, 0)) == z
    assert (PolyExact((1, 2)) - PolyExact((1, 2))) == z


def test_arithmetic_and_eval():
    p = PolyExact((1, -2))  # 1 - 2x
    q = PolyExact((1, -4))
    assert p * q == PolyExact((1, -6, 8))
    assert (p + q) == PolyExact((2, -6))
    assert p(F(1, 2)) == 0 and p(0) == 1
    assert (3 * p).coeffs == (3, -6)


def test_transforms():
    p = PolyExact((1, 2, 3))
    assert p.scale_arg(F(1, 2)) == PolyExact((1, 1, F(3, 4)))
    assert p.shift_up(2) == PolyExact((0, 0, 1, 2, 3))
    assert p.reversed_to(2) == PolyExact((3, 2, 1))
    assert p.reversed_to(3) == PolyExact((0, 3, 2, 1))
    assert p.derivative() == PolyExact((2, 6))


def test_divmod_gcd():
    p = PolyExact.from_roots([1, 2, 3])
    d = PolyExact.from_roots([2, 3])
    quo, rem = p.divmod(d)
    assert rem.is_zero and quo == PolyExact.from_roots([1])
    assert poly_gcd(p, PolyExact.from_roots([3, 5])) == PolyExact.from_roots([3])
    assert poly_gcd(p, PolyExact.from_roots([7])).degree == 0


def test_square_free_machinery():
    p = PolyExact.from_roots([1, 1, 2, 2, 2, 5])
    decomp = square_free_decomposition(p)
    assert [(f, m) for f, m in decomp] == [
        (PolyExact.from_roots([5]), 1),
        (PolyExact.from_roots([1]), 2),
        (PolyExact.from_roots([2]), 3),
    ]
    assert square_free_part(p) == PolyExact.from_roots([1, 2, 5]).monic()


def test_build_constant_for_n0():
    spec = HyperSpec(n=0, upper=(F(1, 3),), lower=(F(1, 5),), q=F(1, 2))
    assert build_qhyper(spec) == PolyExact.one()


def test_forbidden_lower_parameter():
    with pytest.raises(ConstraintViolationError) as info:
        HyperSpec(n=1, upper=(), lower=(F(2),), q=F(1, 2))  # b = q^-1
    assert info.value.index == 0
    with pytest.raises(ConstraintViolationError):
        HyperSpec(n=3, upper=(), lower=(F(1), F(8)), q=F(1, 2))  # b2 = q^-3
    # q^-n is forbidden, q^-(n+1) is not
    HyperSpec(n=2, upper=(), lower=(F(8),), q=F(1, 2))
    with pytest.raises(ConstraintViolationError):
        HyperSpec(n=3, upper=(), lower=(F(8),), q=F(1, 2))


def test_little_jacobi_shape_hand_expansion():
    # 2phi1(q^-1, a b q^2; a q; q, q x) at a = b = q = 1/2 gives 1 - (5/4) x
    q = F(1, 2)
    spec = HyperSpec(n=1, upper=(F(1, 16),), lower=(F(1, 4),), q=q)
    assert build_qhyper(spec).scale_arg(q) == PolyExact((1, F(-5, 4)))


@given(q=Q_VALUES, n=st.integers(1, 7), a=PARAMS, b=PARAMS)
@settings(max_examples=40, deadline=None)
def test_coefficient_term_ratio(q, n, a, b):
    """Consecutive coefficients follow the defining term ratio, exactly."""
    try:
        spec = HyperSpec(n=n, upper=(a,), lower=(b,), q=q)
    except ConstraintViolationError:
        return
    p = build_qhyper(spec)
    for k in range(n):
        lhs = p.coeff(k + 1) * (1 - b * q**k) * (1 - q ** (k + 1))
        rhs = p.coeff(k) * (1 - q ** (k - n)) * (1 - a * q**k)
        assert lhs == rhs


@given(q=Q_VALUES, n=st.integers(0, 7), a=PARAMS, b=PARAMS)
@settings(max_examples=40, deadline=None)
def test_degree_and_top_coefficient(q, n, a, b):
    try:
        spec = HyperSpec(n=n, upper=(a,), lower=(b,), q=q)
    except ConstraintViolationError:
        return
    p = build_qhyper(spec)
    top_vanishes = qpoch_vector((a,), q, n) == 0
    if top_vanishes:
        assert p.degree < n
    else:
        assert p.degree == n
        expected_top = (
            qpoch_finite(q**-n, q, n)
            * qpoch_finite(a, q, n)
            / (qpoch_finite(b, q, n) * qpoch_finite(q, q, n))
        )
        assert p.coeffs[-1] == expected_top


# -- differential tests against the Fraction recurrence --------------------


def _reference_build(spec, scale=1):
    """The per-step Fraction recurrence that the integer kernel replaced,
    followed by the argument scaling: the reference for build_qhyper."""
    n, q = spec.n, spec.q
    d = len(spec.lower) - len(spec.upper)
    ratios = [F(1)]
    num = F(1)
    den = F(1)
    qpow_minus_n = q ** (-n)
    qpow = F(1)
    qpow_next = q
    for _ in range(n):
        num *= 1 - qpow_minus_n
        for a in spec.upper:
            num *= 1 - a * qpow
        den *= 1 - qpow_next
        for b in spec.lower:
            den *= 1 - b * qpow
        ratios.append(num / den)
        qpow_minus_n *= q
        qpow *= q
        qpow_next *= q
    sign = -1 if d % 2 else 1
    out = [c * (sign**k) * q ** (d * (k * (k - 1) // 2)) for k, c in enumerate(ratios)]
    return PolyExact(out).scale_arg(scale)


@st.composite
def _hyper_specs(draw):
    q = draw(Q_VALUES)
    n = draw(st.integers(0, 9))
    # upper parameters include 0, negatives and q^-m, which ends the series
    # early when m < n
    upper_param = st.one_of(PARAMS, st.integers(0, 10).map(lambda m: q**-m))
    upper = tuple(draw(st.lists(upper_param, max_size=3)))
    lower = tuple(draw(st.lists(PARAMS, max_size=3)))
    scale = draw(st.one_of(st.just(F(1)), st.just(q), PARAMS))
    return q, n, upper, lower, scale


@given(case=_hyper_specs())
@settings(max_examples=300, deadline=None)
def test_build_matches_fraction_recurrence(case):
    q, n, upper, lower, scale = case
    try:
        spec = HyperSpec(n=n, upper=upper, lower=lower, q=q)
    except ConstraintViolationError:
        return
    assert build_qhyper(spec, scale) == _reference_build(spec, scale)
    assert build_qhyper(spec).scale_arg(scale) == build_qhyper(spec, scale)


def test_build_matches_fraction_recurrence_on_acceptance_grid(monkeypatch):
    """Every series built while the exact-identity and limit acceptance
    grids run equals the Fraction recurrence at the same argument scale."""
    built = []
    integer_build = build_qhyper

    def checked(spec, scale=1):
        p = integer_build(spec, scale)
        assert p == _reference_build(spec, scale), (spec, scale)
        built.append(spec)
        return p

    monkeypatch.setattr(families, "build_qhyper", checked)
    monkeypatch.setattr(verify, "build_qhyper", checked)
    q_grid = [F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
    a3, b3 = [F(1, 3), F(-2), F(2, 3)], [F(1, 3), F(-1), F(3, 2)]
    for check_id in verify.identity_check_ids():
        if check_id in ("bessel-limit", "sw-limit"):
            grid = GridSpec(q_values=[F(1, 4)], n_values=range(1, 7), b_values=[F(-2), F(-1), F(1, 3)])
        else:
            grid = GridSpec(q_values=q_grid, n_values=range(1, 9), a_values=a3, b_values=b3)
        run_identity_on_grid(check_id, grid)
    assert len(built) > 5000


# -- modular coprimality certificate against plain rational Euclid ---------


def _rational_gcd(a, b):
    """Euclid over the rationals with primitive normalization and no modular
    shortcut: the reference for poly_gcd."""
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero:
        a, b = b, (a % b).primitive()
    return a.monic()


_COEFF = st.one_of(st.integers(-30, 30), st.builds(F, st.integers(-30, 30), st.integers(1, 7)))
_POLY = st.lists(_COEFF, min_size=1, max_size=6).map(PolyExact)


@given(
    f=_POLY,
    g=_POLY,
    h=st.lists(_COEFF, min_size=2, max_size=4).map(PolyExact),
    planted=st.booleans(),
    lead_multiple_of_p=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_poly_gcd_matches_rational_euclid(f, g, h, planted, lead_multiple_of_p):
    """With and without a planted common factor h, and with a leading
    coefficient divisible by the certificate's prime, which forces the
    rational fallback.  A planted 1 + P x vanishes to a constant mod P."""
    a, b = (f * h, g * h) if planted else (f, g)
    if lead_multiple_of_p:
        wide = PolyExact((1, qhyper._P))
        a, b = a * wide, (b * wide if planted else b)
    got = poly_gcd(a, b)
    assert got == _rational_gcd(a, b)
    if planted and not h.is_zero and not f.is_zero and not g.is_zero:
        assert got.degree >= h.degree


def test_coprimality_certificate_is_only_a_certificate():
    """x and x + P are coprime over Q but not mod P: the certificate then
    decides nothing and the rational Euclid proves the gcd is 1."""
    x, shifted = PolyExact((0, 1)), PolyExact((qhyper._P, 1))
    assert not qhyper._coprime_mod_p(x.num, shifted.num)
    assert poly_gcd(x, shifted) == PolyExact.one()
    # P divides a leading coefficient: no certificate, however coprime
    lead_p = PolyExact((1, qhyper._P))
    assert not qhyper._coprime_mod_p(lead_p.num, x.num)
    assert poly_gcd(lead_p, x) == PolyExact.one()
    # the common case: p and p' of a square-free polynomial
    p = PolyExact.from_roots([F(1, 2), F(1, 3), 5])
    assert qhyper._coprime_mod_p(p.num, p.derivative().num)
    assert poly_gcd(p, PolyExact.from_roots([F(1, 3)])) == PolyExact.from_roots([F(1, 3)])
