"""Polynomial algebra and the generic terminating series builder."""

import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import polyexact_reference as ref
from qzeros import (
    ConstraintViolationError,
    DegenerateParameterError,
    GridSpec,
    HyperSpec,
    PolyExact,
    build_qhyper,
    isolate_real_roots,
    little_q_jacobi,
    poly_gcd,
    qpoch_finite,
    run_identity_on_grid,
    square_free_decomposition,
    square_free_part,
)
from qzeros import analysis, qhyper, verify

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
    top_vanishes = qpoch_finite(a, q, n) == 0
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
    scaled = build_qhyper(spec).scale_arg(scale)
    assert scaled == _reference_build(spec, scale)
    assert scaled.coeffs == ref.build_qhyper(spec, scale).coeffs


def _reference_family(name, *args):
    """The series families as they were built before the Gaussian-binomial
    kernel (``polyexact_reference``: a ``HyperSpec`` with ``Fraction``
    parameter products, the telescoped loop and a separate prefactor), and
    ``build_qhyper`` as the ``Fraction`` recurrence."""
    if name == "build_qhyper":
        return _reference_build(*args)
    return getattr(ref, name)(*args)


# The identities workload's grid: q up to 9/10 and n = 1..12, so contig-4
# builds degree 13; the limit checks at q = 3/4 and 9/10.
_IDENTITY_Q = [F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
_IDENTITY_A, _IDENTITY_B = [F(1, 3), F(-2), F(2, 3)], [F(1, 3), F(-1), F(3, 2)]
_SERIES_BUILDERS = ("little_q_jacobi", "q_laguerre", "stieltjes_wigert", "q_bessel", "build_qhyper")


@functools.lru_cache(maxsize=None)
def _identity_grid_builds():
    """{builder: [args of every call]} over every identity check on the
    identities grid; ``build_qhyper`` is the ``_phi`` path."""
    calls = {name: [] for name in _SERIES_BUILDERS}
    with pytest.MonkeyPatch.context() as m:
        for name in _SERIES_BUILDERS:
            real = getattr(verify, name)
            m.setattr(verify, name, lambda *args, real=real, seen=calls[name]: seen.append(args) or real(*args))
        for check_id in verify.identity_check_ids():
            q_values = [F(3, 4), F(9, 10)] if check_id in ("bessel-limit", "sw-limit") else _IDENTITY_Q
            grid = GridSpec(q_values=q_values, n_values=range(1, 13), a_values=_IDENTITY_A, b_values=_IDENTITY_B)
            run_identity_on_grid(check_id, grid)
    return calls


def test_build_matches_fraction_recurrence_on_acceptance_grid():
    """Every family constructor and ``_phi`` build that the identity checks
    make on the identities grid equals its reference (``_reference_family``),
    or raises the same error with the same text.  (The normalized little
    q-Jacobi polynomial has its own reference on the same grid,
    ``test_normalized_matches_quadratic_formula_on_factor_anorm_grid``.)"""
    checked = 0
    for name, calls in _identity_grid_builds().items():
        assert calls, name
        build = getattr(verify, name)
        for args in set(calls):
            try:
                p = build(*args)
            except (ConstraintViolationError, DegenerateParameterError) as exc:
                with pytest.raises(type(exc)) as info:
                    _reference_family(name, *args)
                assert str(info.value) == str(exc), (name, args)
            else:
                assert p.coeffs == _reference_family(name, *args).coeffs, (name, args)
        checked += len(calls)
    assert checked > 5000


@given(
    q=Q_VALUES,
    n=st.integers(0, 9),
    params=st.lists(st.tuples(PARAMS, st.integers(-3, 3)), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_family_builds_match_the_reference_at_powers_of_q(q, n, params):
    """Parameters carrying whole powers of q, which the kernel moves into
    its offsets, and q^-m itself: the families equal the reference, or
    raise the same error with the same text."""
    (a0, i), (b0, j) = params
    a, b = a0 * q**i, b0 * q**j
    for name, args in (
        ("little_q_jacobi", (n, a, b, q)),
        ("little_q_jacobi", (n, q**i, b, q)),
        ("q_laguerre", (n, b, q)),
        ("q_laguerre", (n, q**j, q)),
        ("q_bessel", (n, b, q)),
        ("stieltjes_wigert", (n, q)),
    ):
        try:
            p = getattr(verify, name)(*args)
        except (ConstraintViolationError, DegenerateParameterError) as exc:
            with pytest.raises(type(exc)) as info:
                _reference_family(name, *args)
            assert str(info.value) == str(exc)
        else:
            assert p.coeffs == _reference_family(name, *args).coeffs, (name, args)


def _telescoped_build(spec, scale=1):
    """The series loop that the Gaussian-binomial kernel replaced: every
    (v^(j+1) - u^(j+1)) and power of v telescoped into the denominators.
    Returns the integer numerators and the denominator before the one
    reduction."""
    n, q, z = spec.n, spec.q, F(scale)
    d = len(spec.lower) - len(spec.upper)
    u, v = q.numerator, q.denominator
    upow = [u**i for i in range(n + 1)]
    vpow = [v**i for i in range(n + 2)]
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower]
    step_num = -z.numerator if d % 2 else z.numerator
    step_den = z.denominator
    for _, a_den in upper:
        step_den *= a_den
    for _, b_den in lower:
        step_num *= b_den
    num = 1
    nums, steps = [num], [1]
    for j in range(n):
        num *= step_num * (upow[n - j] - vpow[n - j]) * vpow[j + 1]
        step = step_den * (vpow[j + 1] - upow[j + 1])
        for a_num, a_den in upper:
            num *= a_den * vpow[j] - a_num * upow[j]
        for b_num, b_den in lower:
            step *= b_den * vpow[j] - b_num * upow[j]
        e = (d + 1) * j - n
        if e >= 0:
            num *= u**e
        else:
            step *= u**-e
        if not num:
            break
        nums.append(num)
        steps.append(step)
    out = [0] * len(nums)
    den = 1
    for j in range(len(nums) - 1, -1, -1):
        out[j] = nums[j] * den
        den *= steps[j]
    return out, den


def test_little_q_jacobi_gcd_bits_fall_fourfold(monkeypatch):
    """Over the little q-Jacobi builds of the identities grid, the gcd that
    the one reduction strips is at least 4x smaller in total bits than the
    telescoped loop's, and each build still reduces exactly once."""
    stripped = []
    from_ints = PolyExact.from_ints.__func__

    def measured(cls, num, den=1):
        num = list(num)
        stripped.append(math.gcd(den, *num).bit_length())
        return from_ints(cls, num, den)

    old_bits = builds = 0
    for n, a, b, q in set(_identity_grid_builds()["little_q_jacobi"]):
        try:
            spec = HyperSpec(n=n, upper=(a * b * q ** (n + 1),), lower=(a * q,), q=q)
            p = little_q_jacobi(n, a, b, q)
        except (ConstraintViolationError, DegenerateParameterError):
            continue
        out, den = _telescoped_build(spec, q)
        old_bits += math.gcd(den, *out).bit_length()
        with monkeypatch.context() as m:
            m.setattr(PolyExact, "from_ints", classmethod(measured))
            assert little_q_jacobi(n, a, b, q) == p
        assert len(stripped) == builds + 1
        builds += 1
    new_bits = sum(stripped)
    assert builds > 5000
    assert 4 * new_bits <= old_bits, (new_bits, old_bits)


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


# The certificate's prime before it moved below 2^30, kept as the reference:
# the one-digit prime must certify every pair that this one certifies.
_P_REFERENCE = (1 << 61) - 1


def _gcd_inputs():
    """Every distinct pair (a, b) that poly_gcd receives while the 672
    acceptance-grid polynomials are isolated and the decide-coarse draws of
    the default seed are decided."""
    from test_pinned_report import workloads
    from test_roots import _acceptance_grid_polynomials

    pairs = []
    real = qhyper.poly_gcd

    def recording(a, b):
        pairs.append((a, b))
        return real(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qhyper, "poly_gcd", recording)
        mp.setattr(analysis, "poly_gcd", recording)
        for p in _acceptance_grid_polynomials():
            isolate_real_roots(p, None)
        outcomes = workloads.decide_outcomes(workloads.decide_draws(workloads.DECIDE_DEFAULT_SEED))
    raised = [o for o in outcomes for v in o.values() if isinstance(v, list) and v[:1] == ["raised"]]
    assert not raised, raised[:3]
    return list(dict.fromkeys(pairs))


def test_one_digit_certificate_against_the_reference_prime(monkeypatch):
    """The certificate's prime is a prime below 2^30.  On every gcd input of
    the acceptance-grid isolations and the decide-coarse decisions, it
    certifies a pair only where the rational Euclid gcd is 1, and it
    certifies every pair that the certificate modulo 2^61 - 1 certifies.
    The floor counts the pairs whose b is not a constant, a pair that is
    coprime whatever the prime: it certifies more than 940 of them, and
    more than a hundred share a factor."""
    P = qhyper._P
    assert P < 2**30 and all(P % k for k in range(2, math.isqrt(P) + 1))
    pairs = _gcd_inputs()
    got = [qhyper._coprime_mod_p(a.num, b.num) for a, b in pairs]
    monkeypatch.setattr(qhyper, "_P", _P_REFERENCE)
    want = [qhyper._coprime_mod_p(a.num, b.num) for a, b in pairs]
    for (a, b), new, old in zip(pairs, got, want):
        assert new or not old, (a, b)
        if new:
            assert _rational_gcd(a, b) == PolyExact.one(), (a, b)
    nonconstant = [new for (a, b), new in zip(pairs, got) if b.degree >= 1]
    assert 940 < sum(nonconstant) < len(nonconstant) - 100, (len(nonconstant), sum(nonconstant))
