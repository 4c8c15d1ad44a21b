"""Dense exact-coefficient polynomials and truncated q-hypergeometric series.

A terminating series with top parameter q^-n, upper vector a and lower
vector b has k-th monomial coefficient

    (q^-n;q)_k (a;q)_k / ((b;q)_k (q;q)_k) * (-1)^((s-r)k) * q^((s-r)*C(k,2))

with the convention C(0,2) = C(1,2) = 0, where r = len(a) and s = len(b).
Lower parameters must avoid {1, q^-1, ..., q^-n}, otherwise some
denominator (b;q)_k vanishes or the series is conventionally undefined.

``PolyExact`` is one tuple of integers over one positive integer
denominator, in canonical form; every ring operation runs on integers and
reduces once per result, and ``coeffs`` is a ``Fraction`` view built on
first use.

Series construction runs on integers, in one kernel that ``build_qhyper``
and the family constructors share.  With q = u/v, the factor
(q^-n;q)_k/(q;q)_k of coefficient k is, up to a power of q, the Gaussian
binomial written homogeneously in u and v: an integer, and the row of them
comes from exact divisions.  Parameters and the argument scale are taken
as c q^m, every other factor of the term ratio is a ratio of small
integers, and each power of u and v enters only as its net power per step,
so each coefficient is a binomial times a running integer numerator over a
running product of small step denominators.  The polynomial is the
numerators scaled to the last denominator and reduced once, with no
``Fraction`` per coefficient.

``poly_gcd`` first tries to prove its inputs coprime by Euclid modulo a
fixed prime below 2^30, which settles the common square-free and
disjoint-zero cases without any division over the rationals; only when that
proves nothing does Euclid over the rationals run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ConstraintViolationError
from .qcore import RationalLike, as_q, neg_q_power, rat


class PolyExact:
    """Polynomial in the monomial basis with exact rational coefficients.

    Stored as integers over one denominator: the coefficient of x^i is
    ``num[i] / den``.  The form is canonical: trailing zeros are stripped and
    den > 0 with gcd(den, *num) = 1, so den is the lcm of the coefficient
    denominators and the zero polynomial is () over 1 (degree -1).  Every
    operation runs on integers and reduces once per result.  ``coeffs`` is
    a read-only ``Fraction`` view, built on first use.  ``num`` and ``den``
    are read-only by convention.
    """

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coefficients]
        while cs and not cs[-1]:
            cs.pop()
        den = lcm(*(c.denominator for c in cs))
        self.num: tuple[int, ...] = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den: int = den
        self._coeffs: tuple[Fraction, ...] | None = None

    @classmethod
    def from_ints(cls, num: Iterable[int], den: int = 1) -> "PolyExact":
        """The polynomial sum num[i] x^i / den, for any integer den != 0."""
        out = list(num)
        while out and not out[-1]:
            out.pop()
        g = gcd(den, *out)
        if den < 0:
            g = -g
        if g != 1:
            out = [c // g for c in out]
            den //= g
        return cls._canonical(out, den)

    @classmethod
    def _canonical(cls, num: Sequence[int], den: int) -> "PolyExact":
        """num over den, already in canonical form; nothing is checked."""
        p = object.__new__(cls)
        p.num = tuple(num)
        p.den = den
        p._coeffs = None
        return p

    @classmethod
    def zero(cls) -> "PolyExact":
        return cls._canonical((), 1)

    @classmethod
    def one(cls) -> "PolyExact":
        return cls._canonical((1,), 1)

    @classmethod
    def x(cls) -> "PolyExact":
        return cls._canonical((0, 1), 1)

    @classmethod
    def from_roots(cls, roots: Iterable[RationalLike]) -> "PolyExact":
        """Monic polynomial prod (x - r) over the given roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-rat(r), 1))
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of x^i, as a reduced ``Fraction``."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.num)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyExact") -> "PolyExact":
        """The sum over the lcm of the two denominators, reduced once."""
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = gcd(den, other.den)
            fa, fb = other.den // g, den // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            den *= fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyExact.from_ints(out, den)

    def __sub__(self, other: "PolyExact") -> "PolyExact":
        return self + -other

    def __neg__(self) -> "PolyExact":
        return PolyExact._canonical([-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, PolyExact):
            a, b = self.num, other.num
            if not a or not b:
                return PolyExact.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return PolyExact.from_ints(out, self.den * other.den)
        c = rat(other)
        return PolyExact.from_ints([c.numerator * x for x in self.num], self.den * c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyExact) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"PolyExact({list(map(str, self.coeffs))})"

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: RationalLike) -> Fraction:
        xv = rat(x)
        h, m = self.value_parts(xv.numerator, xv.denominator)
        return Fraction(h, m)

    def _homogeneous(self, n: int, d: int) -> tuple[int, int]:
        """(h, d^deg) with h = sum num_i n^i d^(deg-i), by homogeneous
        Horner: no rational, no gcd.

        For d > 0, p(n/d) = h / (den d^deg).
        """
        num = self.num
        acc = num[-1]
        dpow = 1
        for c in reversed(num[:-1]):
            dpow *= d
            acc = acc * n + c * dpow
        return acc, dpow

    def value_parts(self, n: int, d: int) -> tuple[int, int]:
        """Integers (h, m) with p(n/d) = h/m for an integer d > 0.

        m = den d^deg; h comes from homogeneous integer Horner with no
        reduction, so a caller summing many values can reduce once.
        """
        if not self.num:
            return 0, 1
        acc, dpow = self._homogeneous(n, d)
        return acc, self.den * dpow

    # -- structural transforms -------------------------------------------

    def derivative(self) -> "PolyExact":
        return PolyExact.from_ints([i * c for i, c in enumerate(self.num) if i], self.den)

    def scale_arg(self, c: RationalLike) -> "PolyExact":
        """p(c*x): with c = s/t, num_i s^i t^(deg-i) over den t^deg."""
        if not self.num:
            return self
        cv = rat(c)
        s, t = cv.numerator, cv.denominator
        out = []
        spow = 1
        for a in self.num:
            out.append(a * spow)
            spow *= s
        tpow = 1
        for i in range(len(out) - 2, -1, -1):
            tpow *= t
            out[i] *= tpow
        return PolyExact.from_ints(out, self.den * tpow)

    def shift_up(self, k: int) -> "PolyExact":
        """x^k * p."""
        if self.is_zero:
            return self
        return PolyExact._canonical((0,) * k + self.num, self.den)

    def reversed_to(self, n: int) -> "PolyExact":
        """x^n * p(1/x) with p padded to length n+1; n must be >= degree."""
        if n < self.degree:
            raise ValueError("reversal order below degree")
        out = [0] * (n + 1 - len(self.num)) + list(reversed(self.num))
        while out and not out[-1]:
            out.pop()
        return PolyExact._canonical(out, self.den)

    def monic(self) -> "PolyExact":
        """The primitive part over its leading coefficient, which is > 0 and
        shares no factor with all the others: already canonical."""
        p = self.primitive()
        return p if p.is_zero else PolyExact._canonical(p.num, p.num[-1])

    def primitive(self) -> "PolyExact":
        """Integer-coefficient primitive part; roots are unchanged.

        The result is sign-canonical (leading coefficient > 0), suitable for
        gcd normalization.
        """
        if self.is_zero:
            return self
        g = gcd(*self.num)
        if self.num[-1] < 0:
            g = -g
        return PolyExact._canonical([c // g for c in self.num], 1)

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other: "PolyExact") -> tuple["PolyExact", "PolyExact"]:
        """Quotient and remainder over the rationals, by integer division
        over a common denominator.

        With self = a/A and other = b/B, the loop keeps s a = quot b + rem
        for integer vectors and an integer s > 0.  To clear rem[i] = c it
        scales by m = |lc(b)|/g, g = gcd(c, lc(b)), and subtracts
        (c/g) x^(i-deg b) b (sign-adjusted), so s grows only by what lc(b)
        fails to divide.  Then self = (quot B / (s A)) other + rem / (s A).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        div = other.num
        dn = len(div) - 1
        if len(self.num) - 1 < dn:
            return PolyExact.zero(), self
        lead = div[-1]
        rem = list(self.num)
        quot = [0] * (len(rem) - dn)
        s = 1
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if not c:
                continue
            g = gcd(c, lead)
            m, f = lead // g, c // g
            if m < 0:
                m, f = -m, -f
            if m != 1:
                s *= m
                rem = [r * m for r in rem[:i]]
                quot = [v * m for v in quot]
            else:
                del rem[i:]
            quot[i - dn] = f
            for j in range(dn):
                rem[i - dn + j] -= f * div[j]
        den = s * self.den
        return (
            PolyExact.from_ints([v * other.den for v in quot], den),
            PolyExact.from_ints(rem, den),
        )

    def __floordiv__(self, other: "PolyExact") -> "PolyExact":
        return self.divmod(other)[0]

    def __mod__(self, other: "PolyExact") -> "PolyExact":
        return self.divmod(other)[1]


# The coprimality certificate's prime, the largest below 2^30: CPython keeps
# an int in 30-bit digits, so every residue is one digit and every product
# of two residues at most two.
_P = (1 << 30) - 35


def _coprime_mod_p(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True only when the integer polynomials a and b share no factor over Q.

    Proof: a common factor over Q can be taken primitive in Z[x] (Gauss's
    lemma); its leading coefficient divides lc(a), so when P divides neither
    leading coefficient the factor keeps its degree mod P and divides both
    reductions.  A constant gcd over F_P therefore rules it out.  False means
    only that this test decides nothing.
    """
    if not a or not b or a[-1] % _P == 0 or b[-1] % _P == 0:
        return False
    a = [c % _P for c in a]
    b = [c % _P for c in b]
    while b:
        inv = pow(b[-1], -1, _P)
        tail = b[:-1]
        while len(a) >= len(b):
            f = a.pop() * inv % _P
            shift = len(a) - len(tail)
            for j, c in enumerate(tail):
                a[shift + j] = (a[shift + j] - f * c) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd(a: PolyExact, b: PolyExact) -> PolyExact:
    """Monic gcd over the rationals (Euclid with primitive normalization).

    Coprime inputs, the common case, are proven so by Euclid modulo one
    prime (:func:`_coprime_mod_p`) without any rational arithmetic.
    """
    if _coprime_mod_p(a.num, b.num):
        return PolyExact.one()
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
        _check_series(self.n, self.q, [(b, 0) for b in self.lower])


def _check_series(n: int, q: Fraction, lower: Sequence[tuple[Fraction, int]]) -> None:
    """Validate a series of order n with lower parameters c q^k, k >= 0.

    n < 0 is a ValueError.  For n >= 1 a lower parameter in {q^0, q^-1, ...,
    q^-n} raises :class:`ConstraintViolationError` naming its index and value:
    c q^k = q^-m exactly when c = q^-(m+k).
    """
    if n < 0:
        raise ValueError(f"truncation order must be >= 0, got {n}")
    if n == 0:
        return
    for j, (c, k) in enumerate(lower):
        m = neg_q_power(c, q)
        if m is not None and k <= m <= n + k:
            raise ConstraintViolationError(j, c * q**k, n)


def _gauss_row(n: int, upow: Sequence[int], vpow: Sequence[int]) -> list[int]:
    """[G_0, ..., G_n] with G_j = v^(j(n-j)) [n choose j]_q, the Gaussian
    binomials written homogeneously in q = u/v; upow and vpow hold u^i and
    v^i for i <= n.

    Each G_j is an integer and G_(j+1) = G_j (v^(n-j) - u^(n-j)) /
    (v^(j+1) - u^(j+1)) is an exact division; G_j = G_(n-j), so half the
    row is computed and mirrored.
    """
    row = [1] * (n + 1)
    for j in range(n // 2):
        row[j + 1] = row[n - j - 1] = row[j] * (vpow[n - j] - upow[n - j]) // (vpow[j + 1] - upow[j + 1])
    return row


def build_qhyper(spec: HyperSpec) -> PolyExact:
    """Expand the terminating series of ``spec`` in x.

    The degree equals spec.n unless an upper parameter of the form q^-m with
    m < n annihilates the top terms, in which case trailing zero
    coefficients are stripped.  The series at the argument c x is
    ``build_qhyper(spec).scale_arg(c)``.  The expansion is :func:`_series`,
    with every parameter given at offset 0 and argument scale 1.
    """
    return _series(
        spec.n,
        spec.q,
        [(a.numerator, a.denominator, 0) for a in spec.upper],
        [(b.numerator, b.denominator, 0) for b in spec.lower],
        (1, 1, 0),
    )


# A series parameter (c_n, c_d, k) is the value (c_n / c_d) q^k, with c_d > 0
# and k >= 0.
_Param = tuple[int, int, int]


def _series(
    n: int,
    q: Fraction,
    upper: Sequence[_Param],
    lower: Sequence[_Param],
    scale: _Param,
    pre: tuple[int, int] = (1, 1),
    start: int = 0,
) -> PolyExact:
    """pre[0]/pre[1] times the series with top q^-n, the given upper and
    lower parameters and argument scale, on integers.

    The caller validates with :func:`_check_series`.  With q = u/v the
    coefficient of x^j is

        pre (-1)^((d+1) j) G_j prod (a;q)_j / prod (b;q)_j
            * q^((d+1) C(j,2) - n j) v^(-j(n-j)) scale^j,

    d = s - r, where G_j is the homogeneous Gaussian binomial of
    :func:`_gauss_row`, since (q^-n;q)_j/(q;q)_j = (-1)^j q^(C(j,2) - n j)
    [n choose j]_q.  A parameter (c_n, c_d, k) contributes
    (c_d v^(k+i) - c_n u^(k+i)) / (c_d v^(k+i)) to its q-Pochhammer symbol;
    a zero parameter contributes nothing.  Step j -> j+1 multiplies a
    running numerator by the sign, the upper factors and the c_d of the
    lower parameters and of the scale, and puts the lower factors and the
    other c_d into the step's denominator.  Every power of u and v enters
    only as its net power for the step, on whichever side it is positive:
    u^((d+1) j - n + k_z) and v^(w j + e_v), with w = 1 - d - r' + s' and
    e_v = 1 - k_z - (sum of upper k) + (sum of lower k) over the r' upper
    and s' lower nonzero parameters, and k_z the scale's offset.
    Coefficient j is G_j times the running numerator over the product of
    the step denominators; the one reduction is in :func:`_telescoped`.

    With ``start`` = s > 0 the coefficients below s are 0, coefficient s is
    G_s pre, and step j -> j+1 (j >= s) is the step above with each
    Pochhammer factor taken at index i = j - s, so every symbol counts from
    the first nonzero coefficient.  e_u and e_v start at their values for
    j = s, and e_v gains s (r' - s') more, since each factor's v^(k+i)
    denominator moves with i, not j.
    """
    u, v = q.numerator, q.denominator
    d = len(lower) - len(upper)
    step_num, step_den, z_k = scale
    if not d % 2:
        step_num = -step_num  # (-1)^(d+1) z_n
    e_u, e_v, w = z_k - n, 1 - z_k, 1 - d  # step j brings u^e_u v^e_v
    # (c_d v^k, c_n u^k) per nonzero parameter: its factor at Pochhammer
    # index i is c_d v^(k+i) - c_n u^(k+i)
    tops, bottoms = [], []
    for c_num, c_den, k in upper:
        if c_num:
            c_num, c_den, k = _offset(c_num, c_den, k, u, v)
            tops.append((c_den * v**k, c_num * u**k))
            step_den *= c_den
            e_v, w = e_v - k, w - 1
    for c_num, c_den, k in lower:
        if c_num:
            c_num, c_den, k = _offset(c_num, c_den, k, u, v)
            bottoms.append((c_den * v**k, c_num * u**k))
            step_num *= c_den
            e_v, w = e_v + k, w + 1
    g = gcd(step_num, step_den)
    step_num //= g
    step_den //= g
    upow = [u**i for i in range(n + 1)]
    vpow = [v**i for i in range(n + 1)]
    binom = _gauss_row(n, upow, vpow)
    e_u += (d + 1) * start
    e_v += (w + len(tops) - len(bottoms)) * start
    rest = pre[0]
    nums, steps = [0] * start + [binom[start] * rest], [1] * start + [pre[1]]
    for j in range(start, n):
        i = j - start  # the Pochhammer index
        mul, step = step_num, step_den  # the step's small factors
        for c_v, c_u in tops:
            mul *= c_v * vpow[i] - c_u * upow[i]
        for c_v, c_u in bottoms:
            step *= c_v * vpow[i] - c_u * upow[i]
        if e_u >= 0:
            mul *= u**e_u
        else:
            step *= u**-e_u
        if e_v >= 0:
            mul *= v**e_v
        else:
            step *= v**-e_v
        e_u += d + 1
        e_v += w
        rest *= mul
        if not rest:
            break
        nums.append(binom[j + 1] * rest)
        steps.append(step)
    return _telescoped(nums, steps)


def _offset(c_num: int, c_den: int, k: int, u: int, v: int) -> _Param:
    """The parameter (c_num, c_den, k), c_num != 0, with every whole power
    of q = u/v moved from its value into its offset (keeping k >= 0), so no
    parameter factor carries a spurious power of u or v."""
    while c_num % u == 0 and c_den % v == 0:
        c_num, c_den, k = c_num // u, c_den // v, k + 1
    while k and c_num % v == 0 and c_den % u == 0:
        c_num, c_den, k = c_num // v, c_den // u, k - 1
    return c_num, c_den, k


def _telescoped(nums: list[int], steps: list[int]) -> PolyExact:
    """The polynomial with c_j = nums[j] / (steps[0] ... steps[j]), steps nonzero.

    Every denominator divides the last one, so c_j is nums[j] times
    steps[j+1] ... steps[-1] over it; the result is reduced once.
    """
    out = [0] * len(nums)
    scale = 1
    for j in range(len(nums) - 1, -1, -1):
        out[j] = nums[j] * scale
        scale *= steps[j]
    return PolyExact.from_ints(out, scale)
