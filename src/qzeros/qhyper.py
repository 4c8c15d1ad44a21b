"""Dense exact-coefficient polynomials and truncated q-hypergeometric series.

A terminating series with top parameter q^-n, upper vector a and lower
vector b has k-th monomial coefficient

    (q^-n;q)_k (a;q)_k / ((b;q)_k (q;q)_k) * (-1)^((s-r)k) * q^((s-r)*C(k,2))

with the convention C(0,2) = C(1,2) = 0, where r = len(a) and s = len(b).
Lower parameters must avoid {1, q^-1, ..., q^-n}, otherwise some
denominator (b;q)_k vanishes or the series is conventionally undefined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ConstraintViolationError
from .qcore import QValue, RationalLike, as_q, rat


class PolyExact:
    """Polynomial in the monomial basis with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i.  Trailing zeros are stripped, so
    the leading coefficient is nonzero except for the zero polynomial, which
    is the empty tuple (degree reported as -1).
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._ints: tuple[int, ...] | None = None  # see _integer_coeffs

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
            den = lcm(*(c.denominator for c in self.coeffs))
            self._ints = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
        return self._ints

    def sign_at(self, x: RationalLike) -> int:
        """Exact sign of p(x), by integer arithmetic only.

        With x = n/d (d > 0) and the coefficients scaled by a positive
        integer to c_i, d^deg * p(x) is proportional to
        sum c_i n^i d^(deg-i), which homogeneous Horner evaluates with no
        rational and no gcd; its sign is the sign of p(x).
        """
        ints = self._integer_coeffs()
        if not ints:
            return 0
        xv = rat(x)
        n, d = xv.numerator, xv.denominator
        acc = ints[-1]
        dpow = 1
        for c in reversed(ints[:-1]):
            dpow *= d
            acc = acc * n + c * dpow
        return (acc > 0) - (acc < 0)

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

    def primitive(self, positive_leading: bool = True) -> "PolyExact":
        """Integer-coefficient primitive part; roots are unchanged.

        With ``positive_leading`` the result is sign-canonical (leading
        coefficient > 0), suitable for gcd normalization.  Without it the
        scaling constant is strictly positive, so the sign of every value is
        preserved; Sturm sequences require this form.
        """
        if self.is_zero:
            return self
        ints = self._integer_coeffs()
        g = gcd(*ints)
        if positive_leading and ints[-1] < 0:
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


def poly_gcd(a: PolyExact, b: PolyExact) -> PolyExact:
    """Monic gcd over the rationals (Euclid with primitive normalization)."""
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero:
        a, b = b, (a % b).primitive()
    return a.monic()


def square_free_part(p: PolyExact) -> PolyExact:
    """p divided by gcd(p, p'), monic; shares the distinct roots of p."""
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    return (p // g).monic()


def square_free_decomposition(p: PolyExact) -> list[tuple[PolyExact, int]]:
    """Yun decomposition: [(g_1, 1), (g_2, 2), ...] with p = c * prod g_i^i.

    Each returned factor is monic and square-free, factors are pairwise
    coprime, and g_i collects exactly the roots of multiplicity i.
    """
    if p.degree <= 0:
        return []
    f = p.monic()
    d = f.derivative()
    a = poly_gcd(f, d)
    if a.degree == 0:
        return [(f, 1)]
    b = f // a
    c = d // a
    z = c - b.derivative()
    out: list[tuple[PolyExact, int]] = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, z)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = z // g
        z = c - b.derivative()
        i += 1
    return out


# -- q-hypergeometric construction ----------------------------------------


def _forbidden_lower(value: Fraction, q: Fraction, n: int) -> bool:
    """True when value lies in {q^0, q^-1, ..., q^-n} (n >= 1 only)."""
    if n < 1 or value < 1:
        return False
    power = Fraction(1)
    for _ in range(n + 1):
        if value == 1 / power:
            return True
        power *= q
    return False


@dataclass(frozen=True)
class HyperSpec:
    """Parameters of a terminating q-hypergeometric polynomial.

    n is the truncation order (top parameter q^-n); ``upper`` is the vector a
    and ``lower`` the vector b.  Construction validates the lower-parameter
    constraint and raises :class:`ConstraintViolationError` naming the
    offending entry.
    """

    n: int
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_q(self.q))
        object.__setattr__(self, "upper", tuple(rat(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(rat(b) for b in self.lower))
        if self.n < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.n}")
        for j, b in enumerate(self.lower):
            if _forbidden_lower(b, self.q, self.n):
                raise ConstraintViolationError(j, b, self.n)


def build_qhyper(spec: HyperSpec) -> PolyExact:
    """Expand the terminating series of ``spec`` into exact coefficients.

    The degree equals spec.n unless an upper parameter of the form q^-m with
    m < n annihilates the top terms, in which case trailing zero coefficients
    are stripped.
    """
    n, q = spec.n, spec.q
    d = len(spec.lower) - len(spec.upper)  # s - r
    ratios = [Fraction(1)]
    num = Fraction(1)  # (q^-n;q)_k * prod (a;q)_k
    den = Fraction(1)  # (q;q)_k * prod (b;q)_k
    qpow_minus_n = q ** (-n)  # q^(k-n), tracked incrementally
    qpow = Fraction(1)  # q^k
    qpow_next = q  # q^(k+1)
    for k in range(n):
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
    out = []
    for k, c in enumerate(ratios):
        out.append(c * (sign ** k) * q ** (d * (k * (k - 1) // 2)))
    return PolyExact(out)
