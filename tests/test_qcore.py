"""q-Pochhammer arithmetic: exact values, telescoping, tail bounds."""

from decimal import Decimal, getcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qzeros import InvalidParameterError, InvalidToleranceError, qpoch_finite, qpoch_infinite, rat, rat_str
from qzeros.qcore import MAX_DIGITS, _digits, as_q, clip, neg_q_power

SMALL_RATIONALS = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
Q_VALUES = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(9, 10)])


def test_neg_q_power():
    q = F(1, 2)
    assert neg_q_power(F(1), q) == 0
    assert neg_q_power(F(8), q) == 3
    assert neg_q_power(F(6), q) is None
    assert neg_q_power(F(1, 2), q) is None
    assert neg_q_power(F(-8), q) is None


def _neg_q_power_by_steps(value, q):
    """The loop neg_q_power replaced, kept as its reference: multiply p by u
    and d by v while p > d, about log(value)/log(1/q) steps."""
    p, d = value.numerator, value.denominator
    u, v = q.numerator, q.denominator
    m = 0
    while p > d:
        p *= u
        d *= v
        m += 1
    return m if p == d else None


@pytest.mark.parametrize("q", [F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(9999, 10000)])
def test_neg_q_power_matches_the_stepping_loop(q):
    values = [F(0), F(1, 2), F(2, 3), F(2), F(7, 3), q, q**3]
    for m in range(31):
        power = q**-m
        values += [power, power + F(1, 10**6), power - F(1, 10**6), power * F(3, 2), 1 / power]
    values += [-v for v in values]
    for value in values:
        assert neg_q_power(value, q) == _neg_q_power_by_steps(value, q), value
    assert [neg_q_power(q**-m, q) for m in range(31)] == list(range(31))


def test_empty_product():
    assert qpoch_finite(F(7, 3), F(1, 2), 0) == 1


def test_zero_factor_forces_zero():
    # a = q^-2 makes the j = 2 factor vanish
    assert qpoch_finite(F(4), F(1, 2), 3) == 0
    assert qpoch_finite(F(4), F(1, 2), 2) != 0


def test_two_factor_product():
    assert qpoch_finite(F(1, 2), F(1, 2), 2) == F(3, 8)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        qpoch_finite(F(1), F(1, 2), -1)


def test_as_q_range():
    """as_q, the one check of a base q, takes 0 < q < 1 from any rational
    form and refuses 0, 1 and 3/2 with one message naming the value."""
    assert as_q(F(1, 2)) == as_q("1/2") == as_q("0.5") == F(1, 2)
    for bad, text in ((F(0), "0"), (1, "1"), ("3/2", "3/2")):
        with pytest.raises(InvalidParameterError, match=f"^q must satisfy 0 < q < 1, got {text}$"):
            as_q(bad)


@given(a=SMALL_RATIONALS, q=Q_VALUES, k=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_telescoping(a, q, k):
    assert qpoch_finite(a, q, k + 1) == qpoch_finite(a, q, k) * (1 - a * q**k)


def _naive_qpoch(a, q, k):
    out = F(1)
    for j in range(k):
        out *= 1 - a * q**j
    return out


@given(data=st.data(), q=Q_VALUES, k=st.integers(0, 14))
@settings(max_examples=200, deadline=None)
def test_qpoch_finite_matches_naive_product(data, q, k):
    """The integer kernel equals the per-factor Fraction product, including
    a = 0, negative a and a = q^-m, whose product vanishes for k > m."""
    a = data.draw(st.one_of(SMALL_RATIONALS, st.integers(0, 16).map(lambda m: q**-m)))
    assert qpoch_finite(a, q, k) == _naive_qpoch(a, q, k)


@given(q=Q_VALUES, n=st.integers(0, 6), k=st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_inverse_power_vanishing(q, n, k):
    value = qpoch_finite(q**-n, q, k)
    assert (value == 0) == (k > n)


def test_infinite_product_trivial_cases():
    assert qpoch_infinite(0, F(1, 2), F(1, 10)) == (1, 0)
    assert qpoch_infinite(1, F(1, 2), F(1, 10**6)) == (0, 0)
    with pytest.raises(InvalidToleranceError):
        qpoch_infinite(F(1, 2), F(1, 2), 0)


def test_infinite_product_against_decimal_oracle():
    # independent oracle: 50-digit Decimal product of (1 - 2^-k), k = 1..200
    getcontext().prec = 50
    prod = Decimal(1)
    for k in range(1, 201):
        prod *= 1 - Decimal(1) / (Decimal(2) ** k)
    v, err = qpoch_infinite(F(1, 2), F(1, 2), F(1, 10**12))
    assert err <= F(1, 10**12)
    assert abs(F(str(prod)) - v) <= err + F(1, 10**40)


@given(a=SMALL_RATIONALS, q=Q_VALUES)
@settings(max_examples=30, deadline=None)
def test_tail_bound_consistent_under_refinement(a, q):
    v1, e1 = qpoch_infinite(a, q, F(1, 10**6))
    v2, e2 = qpoch_infinite(a, q, F(1, 10**7))
    assert e1 <= F(1, 10**6) and e2 <= F(1, 10**7)
    # refining the tolerance tenfold moves the value by at most the coarse bound
    assert abs(v1 - v2) <= e1


def _qpoch_infinite_exact(a, q, tol):
    """The exact truncation that the rounded product replaced: P_J = (a;q)_J
    with no rounding, J the first index whose tail S = |a| q^J / (1-q) is
    below tol/2 and whose bound |P_J| S/(1-S) is <= tol.  P_J is kept as
    unreduced integers num/den, as in ``qpoch_finite``, and reduced once."""
    num = den = 1
    power = F(1)  # q^j
    while True:
        tail = abs(a) * power / (1 - q)
        if tail < 1 and 2 * tail < tol:
            # |P_J| S/(1-S) <= tol, cross-multiplied
            if abs(num) * tail.numerator * tol.denominator <= tol.numerator * den * (tail.denominator - tail.numerator):
                partial = F(num, den)
                return partial, abs(partial) * tail / (1 - tail)
        factor = 1 - a * power
        num *= factor.numerator
        den *= factor.denominator
        power *= q


def test_rounded_infinite_product_matches_exact_on_acceptance_grids():
    """The rounded product against the exact truncation, on the acceptance
    grids' q and parameters (and their negatives, 2, and q^-2 whose product
    vanishes): both enclose (a;q)_inf, the rounded value stays within
    tol^2 of the exact one, and its denominator is a bounded power of two."""
    for q in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        for a in (F(1, 4), F(1, 2), F(3, 4), F(1), F(2), q**-2):
            for av in (a, -a):
                for tol in (F(1, 10**6), F(1, 10**9)):
                    v, err = qpoch_infinite(av, q, tol)
                    exact, exact_err = _qpoch_infinite_exact(av, q, tol)
                    assert err <= tol and exact_err <= tol
                    assert abs(v - exact) <= exact_err + tol**2, (av, q, tol)
                    assert v.denominator & (v.denominator - 1) == 0 and v.denominator.bit_length() < 1000
                    if exact == 0:
                        assert (v, err) == (0, 0)


def test_rational_round_trip():
    for x in (F(3, 7), F(-22, 9), F(5), F(0)):
        assert rat(rat_str(x)) == x


def test_rat_str_prints_past_the_int_to_str_limit():
    """Python's default limit is 4300 digits; rat_str prints the same exact
    digits at any size, in pieces below it."""
    big = 10**5000 + 7
    assert rat_str(F(big, 3)) == "1" + "0" * 4999 + "7/3"
    assert rat_str(F(-3, big * 2**40)) == "-3/" + rat_str(big * 2**40)
    assert rat_str(F(10**9000)) == "1" + "0" * 9000
    for x in (F(2**1700), F(2**1701 - 1, 10**511), F(-(10**512))):  # around the piece size
        assert rat(rat_str(x)) == x
    assert rat_str(7) == "7"


def test_rat_str_sign_from_the_numerator_matches_the_comparison():
    """rat_str reads the sign off the numerator; it prints what the Fraction
    comparison x < 0 that it replaced printed."""

    def by_comparison(x):
        num = ("-" if x < 0 else "") + _digits(abs(x.numerator))
        return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"

    big = 10**5000 + 7  # 5001 digits
    values = [0, 7, -7, 10**40, -(10**40), F(0), F(-0), F(5), F(-5), F(3, 7), F(-3, 7), F(-22, 9),
              F(-1, 10**30), F(big, 3), F(-big, 3), F(-3, big), F(big), F(-big), big, -big]
    for x in values:
        assert rat_str(x) == by_comparison(x), x


def test_exponent_form_is_exact_and_bounded():
    assert rat("1e-5000") == F(1, 10**5000)
    assert rat(" 2.5E+3 ") == 2500 and rat("-1e-3") == F(-1, 1000)
    for text in ("1e-10000000", "1e10001", "-3E-99999"):
        with pytest.raises(InvalidParameterError):
            rat(text)


def test_rat_reads_back_past_the_int_from_str_limit():
    """"p/q" digit runs are read in pieces, so every value rat_str prints
    reads back, up to MAX_DIGITS digits per run; a longer run is refused."""
    for x in (F(1, 10**5000), F(-(10**9000 + 7), 3), F(2**40000 + 1, 10**9999), F(10**MAX_DIGITS - 1)):
        assert rat(rat_str(x)) == x
    assert rat(" +" + rat_str(F(10**5000))) == 10**5000
    with pytest.raises(InvalidParameterError) as exc:
        rat("1/" + "1" * (MAX_DIGITS + 1))
    assert len(str(exc.value)) < 200
    with pytest.raises(ZeroDivisionError):
        rat("1/" + "0" * 5000)


def test_clip_keeps_a_fixed_prefix():
    assert clip("short") == "short"
    long = "x" * 5000
    assert clip(long) == "x" * 60 + "... (5000 characters)"
