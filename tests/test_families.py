"""Named family constructors: hand expansions, factorizations, weights, limits."""

from fractions import Fraction as F

import pytest

from qzeros import (
    ConstraintViolationError,
    DegenerateParameterError,
    Family,
    FamilyParams,
    HyperSpec,
    InvalidParameterError,
    PolyExact,
    RegimeError,
    Status,
    build,
    check_identity,
    e_factor,
    little_q_jacobi,
    little_q_laguerre,
    normalization_constant,
    normalized_little_q_jacobi,
    q_bessel,
    q_laguerre,
    rat_str,
    stieltjes_wigert,
    weight_mass,
)
from qzeros.qhyper import _series

Q = F(1, 2)


def test_little_q_jacobi_degree_one():
    p = little_q_jacobi(1, F(1, 2), F(1, 2), Q)
    assert p == PolyExact((1, F(-5, 4)))
    assert p(F(4, 5)) == 0 and 0 < F(4, 5) < 1


def test_families_constant_for_n0():
    assert little_q_jacobi(0, F(1, 3), F(2), Q) == PolyExact.one()
    assert q_laguerre(0, F(1, 2), Q) == PolyExact.one()
    assert stieltjes_wigert(0, Q) == PolyExact.one()
    assert q_bessel(0, F(-1), Q) == PolyExact.one()


def test_degenerate_a_points_to_normalized_variant():
    with pytest.raises(DegenerateParameterError) as info:
        little_q_jacobi(3, F(4), F(1, 2), Q)  # a = q^-2, within 1..n
    assert "normalized_little_q_jacobi" in str(info.value)
    # a = q^-(n+1) instead trips the lower-parameter constraint (aq = q^-n)
    with pytest.raises(ConstraintViolationError):
        little_q_jacobi(1, F(4), F(1, 2), Q)
    # a = q^-m with m > n+1 is constructible
    little_q_jacobi(1, F(8), F(1, 2), Q)


def _forbidden(value: str, n: int) -> str:
    return (
        f"lower parameter b[0] = {value} makes the series denominator vanish "
        f"or lies in the forbidden set {{q^-1, ..., q^-{n}}}"
    )


def test_lower_parameter_messages_are_pinned():
    """The family constructors and the ``_phi`` path share one
    lower-parameter check; its texts are report bytes (the Skip reasons of
    recip-2 and recip-3), so they are pinned here, literally at a few
    points and by pattern on q in {1/2, 3/4, 9/10}, n = 1..6."""
    assert _forbidden("1000/729", 3) == (
        "lower parameter b[0] = 1000/729 makes the series denominator vanish "
        "or lies in the forbidden set {q^-1, ..., q^-3}"
    )
    with pytest.raises(ConstraintViolationError) as info:
        little_q_jacobi(3, F(10000, 6561), F(1, 3), F(9, 10))  # a = q^-4, so aq = q^-3
    assert str(info.value) == _forbidden("1000/729", 3)
    rec = check_identity("recip-2", {"q": Q, "n": 1, "a": F(1, 2), "b": F(-2)})
    assert rec.status is Status.SKIPPED
    assert rec.witness == {"reason": _forbidden("2", 1)}
    for q in (F(1, 2), F(3, 4), F(9, 10)):
        for n in range(1, 7):
            for m in range(1, n + 1):
                with pytest.raises(DegenerateParameterError) as info:
                    little_q_jacobi(n, q**-m, F(1, 3), q)
                assert str(info.value) == (
                    f"a = q^-{m} is degenerate for the raw series; "
                    "use normalized_little_q_jacobi(n, k, b, q) instead"
                )
            with pytest.raises(ConstraintViolationError) as info:
                little_q_jacobi(n, q ** -(n + 1), F(-1), q)
            assert str(info.value) == _forbidden(rat_str(q**-n), n)
            for m in range(n + 1):
                b = q**-m
                with pytest.raises(ConstraintViolationError) as info:
                    q_laguerre(n, b, q)
                assert str(info.value) == _forbidden(rat_str(b), n)
                with pytest.raises(ConstraintViolationError) as info:
                    HyperSpec(n=n, upper=(F(1, 3),), lower=(b,), q=q)
                assert str(info.value) == _forbidden(rat_str(b), n)
                rec = check_identity("qderiv-hyper", {"q": q, "n": n, "a": F(1, 3), "b": b})
                assert rec.witness == {"reason": _forbidden(rat_str(b), n)}
            # q^-(n+1) is allowed, and so is any lower parameter at n = 0
            q_laguerre(n, q ** -(n + 1), q)
        q_laguerre(0, F(1), q)
    for build in (
        lambda: little_q_jacobi(-1, F(1, 3), F(1, 3), Q),
        lambda: q_laguerre(-1, F(1, 3), Q),
        lambda: stieltjes_wigert(-1, Q),
        lambda: q_bessel(-1, F(-1), Q),
        lambda: HyperSpec(n=-1, upper=(), lower=(), q=Q),
    ):
        with pytest.raises(ValueError, match=r"^truncation order must be >= 0, got -1$"):
            build()


def test_b_at_negative_q_power_factors_through_elementary_part():
    p = little_q_jacobi(3, F(1, 3), Q**-3, Q)
    assert p == e_factor(3, Q).scale_arg(Q)
    for root in (1, F(1, 2), F(1, 4)):
        assert p(root) == 0


def test_little_q_laguerre_is_b_zero_case():
    assert little_q_laguerre(4, F(1, 3), Q) == little_q_jacobi(4, F(1, 3), 0, Q)


def test_q_laguerre_degree_one():
    # (1 - b - b x)/(1 - q) at b = q = 1/2
    assert q_laguerre(1, F(1, 2), Q) == PolyExact((1, -1))
    assert q_laguerre(1, F(1, 3), F(1, 3)) == PolyExact((1, F(-1, 2)))


def test_stieltjes_wigert_degree_one():
    assert stieltjes_wigert(1, Q) == PolyExact((2, -1))  # root 1/q


def test_q_bessel_degree_one():
    assert q_bessel(1, F(-1), Q) == PolyExact((1, -3))  # root 1/3 in (0, q]


def test_e_factor():
    assert e_factor(1, Q) == PolyExact((1, -2))
    assert e_factor(2, Q) == PolyExact((1, -6, 8))
    with pytest.raises(InvalidParameterError):
        e_factor(0, Q)
    # roots of E_k(qx) are 1, q, ..., q^(k-1)
    shifted = e_factor(3, Q).scale_arg(Q)
    for j in range(3):
        assert shifted(Q**j) == 0


def test_normalized_low_coefficients_vanish():
    for (n, k) in [(2, 1), (3, 2), (5, 5), (4, 1)]:
        p = normalized_little_q_jacobi(n, k, F(1, 3), Q)
        for j in range(k):
            assert p.coeff(j) == 0
    with pytest.raises(InvalidParameterError):
        normalized_little_q_jacobi(3, 4, F(1, 3), Q)
    with pytest.raises(InvalidParameterError):
        normalized_little_q_jacobi(3, 0, F(1, 3), Q)


def test_normalized_factorization_identity():
    for (n, k, b) in [(1, 1, F(0)), (2, 2, F(1, 3)), (4, 2, F(-1)), (5, 3, F(2))]:
        lhs = normalized_little_q_jacobi(n, k, b, Q)
        c = normalization_constant(n, k, b, Q)
        rhs = (c * Q**k) * little_q_jacobi(n - k, Q**k, b, Q).shift_up(k)
        assert lhs == rhs


def test_weight_mass_values_and_regime():
    assert weight_mass(0, F(1, 2), F(1, 2), Q) == 1
    assert weight_mass(1, F(1, 2), F(1, 2), Q) == F(3, 8)
    with pytest.raises(RegimeError):
        weight_mass(1, F(3), F(1, 2), Q)  # aq > 1
    with pytest.raises(RegimeError):
        weight_mass(1, F(1, 2), F(3), Q)  # bq > 1
    for k in range(21):
        assert weight_mass(k, F(1, 2), F(-2), Q) > 0


def test_regime_flags():
    p = FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, a=F(1, 2), b=F(-1))
    assert p.orthogonal_regime is True
    p = FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, a=F(3), b=F(1, 2))
    assert p.orthogonal_regime is False
    assert FamilyParams(Family.Q_LAGUERRE, 2, Q, b=F(1, 2)).orthogonal_regime is True
    assert FamilyParams(Family.Q_LAGUERRE, 2, Q, b=F(2)).orthogonal_regime is False
    assert FamilyParams(Family.Q_BESSEL, 2, Q, b=F(-1)).orthogonal_regime is True
    assert FamilyParams(Family.Q_BESSEL, 2, Q, b=F(1)).orthogonal_regime is False
    assert FamilyParams(Family.STIELTJES_WIGERT, 2, Q).orthogonal_regime is None


def test_regime_flag_is_never_given():
    """orthogonal_regime is computed from the parameters: passing it is a
    TypeError, not a value that is silently overwritten."""
    with pytest.raises(TypeError):
        FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, a=F(1, 2), b=F(-1), orthogonal_regime=False)
    with pytest.raises(TypeError):
        FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, F(1, 2), F(-1), None, False)


def test_build_dispatch():
    """build gives each family's direct constructor call, b = 0 where little
    q-Jacobi or the normalized family leaves b out, and one
    InvalidParameterError line for a missing required parameter."""
    params = FamilyParams(Family.Q_BESSEL, 1, Q, b=F(-1))
    assert build(params) == PolyExact((1, -3))
    params = FamilyParams(Family.E_FACTOR, 2, Q, k=2)
    assert build(params) == PolyExact((1, -6, 8))
    a, b = F(1, 3), F(-1, 2)
    cases = [
        (FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, a=a, b=b), little_q_jacobi(3, a, b, Q)),
        (FamilyParams(Family.LITTLE_Q_LAGUERRE, 3, Q, a=a), little_q_laguerre(3, a, Q)),
        (FamilyParams(Family.Q_LAGUERRE, 3, Q, b=F(1, 3)), q_laguerre(3, F(1, 3), Q)),
        (FamilyParams(Family.STIELTJES_WIGERT, 3, Q), stieltjes_wigert(3, Q)),
        (FamilyParams(Family.Q_BESSEL, 3, Q, b=b), q_bessel(3, b, Q)),
        (FamilyParams(Family.NORMALIZED_LITTLE_Q_JACOBI, 3, Q, b=b, k=2),
         normalized_little_q_jacobi(3, 2, b, Q)),
        (FamilyParams(Family.E_FACTOR, 3, Q, k=3), e_factor(3, Q)),
        (FamilyParams(Family.LITTLE_Q_JACOBI, 3, Q, a=a), little_q_jacobi(3, a, 0, Q)),
        (FamilyParams(Family.NORMALIZED_LITTLE_Q_JACOBI, 3, Q, k=2), normalized_little_q_jacobi(3, 2, 0, Q)),
    ]
    assert {params.family for params, _ in cases} == set(Family)
    for params, direct in cases:
        assert build(params) == direct, params
    required = {
        Family.LITTLE_Q_JACOBI: "a", Family.LITTLE_Q_LAGUERRE: "a", Family.Q_LAGUERRE: "b",
        Family.Q_BESSEL: "b", Family.NORMALIZED_LITTLE_Q_JACOBI: "k", Family.E_FACTOR: "k",
    }
    for family, name in required.items():
        with pytest.raises(InvalidParameterError) as info:
            build(FamilyParams(family, 3, Q))
        assert str(info.value) == f"family requires parameter {name}"
    with pytest.raises(InvalidParameterError, match="n must equal k"):
        FamilyParams(Family.E_FACTOR, 2, Q, k=3)


def test_family_counts_are_exact_integers_in_range():
    """n and k are read by bounded_count: a negative, boolean or non-integral
    count is one InvalidParameterError before anything is built, and an
    integral Fraction or string is its integer."""
    with pytest.raises(InvalidParameterError, match="^n must be in 0..1000, got -2$"):
        FamilyParams(Family.Q_BESSEL, n=-2, q=Q, b=-1)
    with pytest.raises(InvalidParameterError, match="^n must be an integer in 0..1000, got True$"):
        FamilyParams(Family.Q_BESSEL, n=True, q=Q, b=-1)
    with pytest.raises(InvalidParameterError, match="^n must be an integer in 0..1000, got 5/2$"):
        FamilyParams(Family.E_FACTOR, n=F(5, 2), q=Q, k=F(5, 2))
    with pytest.raises(InvalidParameterError, match="^k must be in 0..1000, got 1001$"):
        FamilyParams(Family.NORMALIZED_LITTLE_Q_JACOBI, n=2, q=Q, b=0, k=1001)
    params = FamilyParams(Family.E_FACTOR, n=F(2), q=Q, k="4/2")
    assert (type(params.n), type(params.k)) == (int, int)
    assert build(params) == PolyExact((1, -6, 8))


def test_limit_consistency_small_case():
    """Deviation from the limit family decreases monotonically in the depth m."""
    n, b = 3, F(-1)
    target = q_bessel(n, b, Q).scale_arg(Q)
    prev = None
    for m in range(4, 13):
        a = Q**m
        jac = little_q_jacobi(n, a, b / (Q * a), Q)
        dev = max(abs(jac.coeff(i) - target.coeff(i)) for i in range(n + 1))
        if prev is not None:
            assert dev < prev
        prev = dev

    target = stieltjes_wigert(n, Q)
    prev = None
    for m in range(4, 13):
        b = Q**m
        lag = q_laguerre(n, b, Q).scale_arg(Q / b)
        dev = max(abs(lag.coeff(i) - target.coeff(i)) for i in range(n + 1))
        if prev is not None:
            assert dev < prev
        prev = dev


def _naive_qpoch(a, q, k):
    out = F(1)
    for j in range(k):
        out *= 1 - a * q**j
    return out


def _normalized_reference(n, k, b, q):
    return PolyExact(
        _naive_qpoch(q ** (-n), q, j)
        / _naive_qpoch(q, q, j)
        * _naive_qpoch(b * q ** (n - k + 1), q, j)
        * _naive_qpoch(q ** (j - k + 1), q, n - j)
        * q**j
        for j in range(n + 1)
    )


def test_normalized_matches_quadratic_formula_on_factor_anorm_grid():
    """The telescoped coefficients equal the defining formula, evaluated
    coefficient by coefficient with per-factor Fraction products, on the
    factor-anorm grid: q in {1/4, 1/2, 3/4, 9/10}, b in {1/3, -1, 3/2},
    n <= 12, k = 1..n; and at q in {1/2, 3/4} for b = 0 and b = q^-m,
    m = 1..n, where the first or later coefficients vanish."""
    checked = 0
    for q in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        for b in (F(1, 3), F(-1), F(3, 2)):
            for n in range(1, 13):
                for k in range(1, n + 1):
                    expected = _normalized_reference(n, k, b, q)
                    assert normalized_little_q_jacobi(n, k, b, q) == expected, (q, b, n, k)
                    checked += 1
    assert checked == 936
    for q in (F(1, 2), F(3, 4)):
        for n in range(1, 13):
            for b in (F(0), *(q ** (-m) for m in range(1, n + 1))):
                for k in range(1, n + 1):
                    expected = _normalized_reference(n, k, b, q)
                    assert normalized_little_q_jacobi(n, k, b, q) == expected, (q, b, n, k)


def test_e_factor_matches_fraction_product():
    """The integer kernel against k successive Fraction products of
    (1 - q^-j x), for k <= 20."""
    for q in (F(1, 1000), F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(9, 10), F(7, 11), F(99, 100)):
        reference = PolyExact.one()
        for k in range(1, 21):
            reference = reference * PolyExact((1, -(q ** (-k))))
            assert e_factor(k, q) == reference, (q, k)


def test_series_from_start_follows_its_coefficient_ratio():
    """_series(..., start=s) against a Fraction recurrence: coefficient s is
    G_s pre, with G_s = v^(s(n-s)) [n choose s]_q, and step j -> j+1 is

        (1 - q^(j-n)) / (1 - q^(j+1)) * (-1)^d q^(d j) * z
            * prod (1 - a q^(j-s)) / prod (1 - b q^(j-s)),

    d = len(lower) - len(upper): the series' own step with every
    Pochhammer symbol counted from coefficient s."""
    n = 7
    upper = ((3, 5, 2), (0, 1, 0), (4, 9, 1))
    lower = ((-2, 7, 1), (0, 1, 0), (1, 4, 0), (5, 2, 3))
    scale, pre = (-5, 3, 1), (4, 9)
    d = len(lower) - len(upper)
    for q in (F(2, 3), F(9, 10)):
        def value(param):
            return F(param[0], param[1]) * q ** param[2]

        z = value(scale)
        for s in (0, 1, n):
            gauss = q.denominator ** (s * (n - s)) * _naive_qpoch(q, q, n) / (
                _naive_qpoch(q, q, s) * _naive_qpoch(q, q, n - s)
            )
            coeffs = [F(0)] * s + [gauss * F(*pre)]
            for j in range(s, n):
                i = j - s
                ratio = (1 - q ** (j - n)) / (1 - q ** (j + 1)) * (-1) ** d * q ** (d * j) * z
                for a in upper:
                    ratio *= 1 - value(a) * q**i
                for b in lower:
                    ratio /= 1 - value(b) * q**i
                coeffs.append(coeffs[-1] * ratio)
            assert _series(n, q, upper, lower, scale, pre, start=s) == PolyExact(coeffs), (q, s)
