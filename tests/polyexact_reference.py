"""The `Fraction`-tuple polynomial that the integer-backed ``PolyExact`` replaced.

Kept as the differential reference for ``qhyper.PolyExact`` and for the
layers that build polynomials on its integer form: every coefficient is a
reduced ``Fraction`` and every ring operation reduces per coefficient.  The
builders below are the matching ``Fraction`` versions of
``qhyper.build_qhyper``, ``qcalc.q_derivative``, ``families.e_factor``,
``families.normalized_little_q_jacobi`` and ``verify._deviation_profile``,
and the series families (``little_q_jacobi``, ``q_laguerre``,
``stieltjes_wigert``, ``q_bessel``) built on that ``build_qhyper`` through a
``HyperSpec``; they return reference polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from qzeros.errors import DegenerateParameterError
from qzeros.qcore import RationalLike, as_q, neg_q_power, qpoch_finite, rat
from qzeros.qhyper import HyperSpec


class PolyExact:
    """Polynomial in the monomial basis with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i.  Trailing zeros are stripped, so
    the leading coefficient is nonzero except for the zero polynomial, which
    is the empty tuple (degree reported as -1).
    """

    __slots__ = ("coeffs", "_ints", "_den")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._ints: tuple[int, ...] | None = None  # see _integer_coeffs, which also sets _den

    @classmethod
    def zero(cls) -> "PolyExact":
        return cls(())

    @classmethod
    def one(cls) -> "PolyExact":
        return cls((1,))

    @classmethod
    def x(cls) -> "PolyExact":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[RationalLike]) -> "PolyExact":
        """Monic polynomial prod (x - r) over the given roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-rat(r), 1))
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyExact") -> "PolyExact":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyExact(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "PolyExact") -> "PolyExact":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyExact(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> "PolyExact":
        return PolyExact(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, PolyExact):
            if self.is_zero or other.is_zero:
                return PolyExact.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolyExact(out)
        c = rat(other)
        return PolyExact(c * a for a in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyExact) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyExact({list(map(str, self.coeffs))})"

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: RationalLike) -> Fraction:
        xv = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xv + c
        return acc

    def _integer_coeffs(self) -> tuple[int, ...]:
        """The coefficients times the lcm of their denominators, computed once."""
        if self._ints is None:
            self._den = lcm(*(c.denominator for c in self.coeffs))
            self._ints = tuple(c.numerator * (self._den // c.denominator) for c in self.coeffs)
        return self._ints

    def _homogeneous(self, n: int, d: int) -> tuple[int, int]:
        """(h, d^deg) with h = sum c_i n^i d^(deg-i) over the integer-scaled
        coefficients c_i, by homogeneous Horner: no rational, no gcd.

        For d > 0, p(n/d) = h / (L d^deg), where L > 0 is the lcm of the
        coefficient denominators.
        """
        ints = self._integer_coeffs()
        acc = ints[-1]
        dpow = 1
        for c in reversed(ints[:-1]):
            dpow *= d
            acc = acc * n + c * dpow
        return acc, dpow

    def value_parts(self, n: int, d: int) -> tuple[int, int]:
        """Integers (h, m) with p(n/d) = h/m for an integer d > 0.

        m = L d^deg, where L is the lcm of the coefficient denominators;
        h comes from homogeneous integer Horner with no reduction, so a
        caller summing many values can reduce once.
        """
        if not self.coeffs:
            return 0, 1
        acc, dpow = self._homogeneous(n, d)
        return acc, self._den * dpow

    # -- structural transforms -------------------------------------------

    def derivative(self) -> "PolyExact":
        return PolyExact(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def scale_arg(self, c: RationalLike) -> "PolyExact":
        """p(c*x): multiplies the i-th coefficient by c^i."""
        cv = rat(c)
        power = Fraction(1)
        out = []
        for a in self.coeffs:
            out.append(a * power)
            power *= cv
        return PolyExact(out)

    def shift_up(self, k: int) -> "PolyExact":
        """x^k * p."""
        if self.is_zero:
            return self
        return PolyExact((Fraction(0),) * k + self.coeffs)

    def reversed_to(self, n: int) -> "PolyExact":
        """x^n * p(1/x) with p padded to length n+1; n must be >= degree."""
        if n < self.degree:
            raise ValueError("reversal order below degree")
        padded = list(self.coeffs) + [Fraction(0)] * (n + 1 - len(self.coeffs))
        return PolyExact(reversed(padded))

    def monic(self) -> "PolyExact":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return PolyExact(c / lead for c in self.coeffs)

    def primitive(self) -> "PolyExact":
        """Integer-coefficient primitive part; roots are unchanged.

        The result is sign-canonical (leading coefficient > 0), suitable for
        gcd normalization.
        """
        if self.is_zero:
            return self
        ints = self._integer_coeffs()
        g = gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return PolyExact(Fraction(v, g) for v in ints)

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other: "PolyExact") -> tuple["PolyExact", "PolyExact"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dn = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dn:
            return PolyExact.zero(), PolyExact(rem)
        quot = [Fraction(0)] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quot[i - dn] = f
            rem[i] = Fraction(0)
            for j in range(dn):
                rem[i - dn + j] -= f * div[j]
        return PolyExact(quot), PolyExact(rem)

    def __floordiv__(self, other: "PolyExact") -> "PolyExact":
        return self.divmod(other)[0]

    def __mod__(self, other: "PolyExact") -> "PolyExact":
        return self.divmod(other)[1]


def sign_at(poly, x: RationalLike) -> int:
    """Exact sign of poly(x), by integer arithmetic only, for a
    ``qhyper.PolyExact`` or a reference polynomial.

    With x = n/d (d > 0), the homogeneous Horner sum of ``poly._homogeneous``
    is d^deg poly(x) times a positive integer, so its sign is the sign of
    poly(x).
    """
    if poly.is_zero:
        return 0
    xv = rat(x)
    acc = poly._homogeneous(xv.numerator, xv.denominator)[0]
    return (acc > 0) - (acc < 0)


def build_qhyper(spec, scale: RationalLike = 1) -> PolyExact:
    """Expand the terminating series of ``spec`` at the argument scale*x.

    The k-th coefficient is the series coefficient times scale^k, so
    ``build_qhyper(spec, z)`` equals ``build_qhyper(spec).scale_arg(z)``.
    The degree equals spec.n unless an upper parameter of the form q^-m with
    m < n (or scale = 0) annihilates the top terms, in which case trailing
    zero coefficients are stripped.

    With q = u/v, a = a_n/a_d, b = b_n/b_d and scale = z_n/z_d, the ratio
    c_(j+1)/c_j is the product of (u^(n-j) - v^(n-j))/u^(n-j),
    (a_d v^j - a_n u^j)/(a_d v^j) per upper parameter,
    v^(j+1)/(v^(j+1) - u^(j+1)), b_d v^j/(b_d v^j - b_n u^j) per lower
    parameter, (-1)^d q^(d j) and z_n/z_d, where d = s - r.  The v^j of the
    parameter factors cancel against q^(d j), and u^(d j) meets the
    u^(n-j) of the first factor as u^((d+1) j - n).
    """
    n, q, z = spec.n, spec.q, rat(scale)
    d = len(spec.lower) - len(spec.upper)  # s - r
    u, v = q.numerator, q.denominator
    upow = [u**i for i in range(n + 1)]
    vpow = [v**i for i in range(n + 2)]
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower]
    step_num = -z.numerator if d % 2 else z.numerator  # (-1)^d z_n
    step_den = z.denominator
    for _, a_den in upper:
        step_den *= a_den
    for _, b_den in lower:
        step_num *= b_den
    num = den = 1  # c_j = num/den, unreduced
    out = [Fraction(1)]
    for j in range(n):
        num *= step_num * (upow[n - j] - vpow[n - j]) * vpow[j + 1]
        den *= step_den * (vpow[j + 1] - upow[j + 1])
        for a_num, a_den in upper:
            num *= a_den * vpow[j] - a_num * upow[j]
        for b_num, b_den in lower:
            den *= b_den * vpow[j] - b_num * upow[j]
        e = (d + 1) * j - n
        if e >= 0:
            num *= u**e
        else:
            den *= u**-e
        if not num:
            break
        out.append(Fraction(num, den))
    return PolyExact(out)


def little_q_jacobi(n: int, a, b, q) -> PolyExact:
    """2phi1(q^-n, a b q^(n+1); a q; q, q x), with the degenerate a = q^-m refused."""
    av, bv, qv = rat(a), rat(b), as_q(q)
    m = neg_q_power(av, qv)
    if m is not None and 1 <= m <= n:
        raise DegenerateParameterError(
            f"a = q^-{m} is degenerate for the raw series; "
            "use normalized_little_q_jacobi(n, k, b, q) instead"
        )
    spec = HyperSpec(n=n, upper=(av * bv * qv ** (n + 1),), lower=(av * qv,), q=qv)
    return build_qhyper(spec, qv)


def q_laguerre(n: int, b, q) -> PolyExact:
    """((b;q)_n/(q;q)_n) 1phi1(q^-n; b; q, -q^n b x)."""
    bv, qv = rat(b), as_q(q)
    series = build_qhyper(HyperSpec(n=n, upper=(), lower=(bv,), q=qv), -(qv**n) * bv)
    return qpoch_finite(bv, qv, n) / qpoch_finite(qv, qv, n) * series


def stieltjes_wigert(n: int, q) -> PolyExact:
    """(1/(q;q)_n) 1phi1(q^-n; 0; q, -q^(n+1) x)."""
    qv = as_q(q)
    series = build_qhyper(HyperSpec(n=n, upper=(), lower=(Fraction(0),), q=qv), -(qv ** (n + 1)))
    return Fraction(1) / qpoch_finite(qv, qv, n) * series


def q_bessel(n: int, b, q) -> PolyExact:
    """2phi1(q^-n, b q^n; 0; q, x)."""
    bv, qv = rat(b), as_q(q)
    return build_qhyper(HyperSpec(n=n, upper=(bv * qv**n,), lower=(Fraction(0),), q=qv))


def q_derivative(p, q) -> PolyExact:
    """The q-derivative, coefficient by coefficient: e_i = [i+1]_q e_(i+1)(p)."""
    qv = as_q(q)
    qpow = qv  # q^(i+1)
    out = []
    for i in range(p.degree):
        out.append((1 - qpow) / (1 - qv) * p.coeff(i + 1))
        qpow *= qv
    return PolyExact(out)


def e_factor(k: int, q) -> PolyExact:
    """E_k(x) = prod_{j=1..k} (1 - q^-j x) from integer numerators over u^(k(k+1)/2)."""
    qv = as_q(q)
    u, v = qv.numerator, qv.denominator
    ints = [1]
    for j in range(1, k + 1):
        uj, vj = u**j, v**j
        ints = [uj * c - vj * prev for c, prev in zip(ints + [0], [0] + ints)]
    den = u ** (k * (k + 1) // 2)
    return PolyExact(Fraction(c, den) for c in ints)


def normalized_little_q_jacobi(n: int, k: int, b, q) -> PolyExact:
    """(q^(-k+1);q)_n p_n(x; q^-k, b), one ``Fraction`` per coefficient."""
    bv, qv = rat(b), as_q(q)
    first = (
        qpoch_finite(qv ** (-n), qv, k)
        / qpoch_finite(qv, qv, k)
        * qpoch_finite(bv * qv ** (n - k + 1), qv, k)
        * qpoch_finite(qv, qv, n - k)
        * qv**k
    )
    u, v = qv.numerator, qv.denominator
    b_num, b_den = bv.numerator, bv.denominator
    out = [Fraction(0)] * k + [first]
    num, den = first.numerator, first.denominator
    for j in range(k, n):
        e = n - k + 1 + j
        num *= (u ** (n - j) - v ** (n - j)) * (b_den * v**e - b_num * u**e)
        if not num:
            break
        den *= (
            u ** (n - j - 1) * v ** (n - j) * b_den
            * (v ** (j + 1) - u ** (j + 1)) * (v ** (j - k + 1) - u ** (j - k + 1))
        )
        out.append(Fraction(num, den))
    return PolyExact(out)


def deviation_profile(pairs) -> list[Fraction]:
    """Relative max-coefficient deviations, one per (approximant, target) pair."""
    devs = []
    for approx, target in pairs:
        norm = max(abs(c) for c in target.coeffs)
        top = max(
            abs(approx.coeff(i) - target.coeff(i))
            for i in range(max(approx.degree, target.degree) + 1)
        )
        devs.append(top / norm)
    return devs
