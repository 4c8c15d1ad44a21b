"""Named constructors for the classical q-hypergeometric polynomial families.

Little q-Jacobi polynomials are the two-parameter family

    p_n(x; a, b | q) = 2phi1(q^-n, a*b*q^(n+1); a*q; q, q*x),

discretely orthogonal on the lattice {q^k} in (0,1) when 0 < a*q < 1 and
b*q < 1.  Setting b = 0 gives the little q-Laguerre polynomials.  The
q-Laguerre, Stieltjes-Wigert and q-Bessel families are the other classical
specializations handled here, together with the normalized variant that
covers the degenerate parameter a = q^-k and the elementary factors
E_k(x) = prod_{j=1..k} (1 - q^-j x) that appear in the b = q^-k
factorization.  Lower parameter 0 is treated literally, (0;q)_k = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DegenerateParameterError, InvalidParameterError, RegimeError
from .qcore import RationalLike, as_q, bounded_count, neg_q_power, qpoch_finite, rat, rat_str
from .qhyper import PolyExact, _check_series, _series


class Family(enum.Enum):
    LITTLE_Q_JACOBI = "little-q-jacobi"
    LITTLE_Q_LAGUERRE = "little-q-laguerre"
    Q_LAGUERRE = "q-laguerre"
    STIELTJES_WIGERT = "stieltjes-wigert"
    Q_BESSEL = "q-bessel"
    NORMALIZED_LITTLE_Q_JACOBI = "normalized-little-q-jacobi"
    E_FACTOR = "e-factor"


@dataclass(frozen=True)
class FamilyParams:
    """A family tag with its parameters and the computed regime flag.

    A parameter the family does not take (see ``FAMILIES``) is an
    InvalidParameterError, never silently ignored; so is an n or k that
    :func:`~qzeros.qcore.bounded_count` refuses, and an E_k whose n is not
    its degree k.

    ``orthogonal_regime`` is computed from the parameters, never given.  It
    is True when they satisfy the family's orthogonality hypotheses (little
    q-Jacobi: 0 < aq < 1 and bq < 1; q-Laguerre: 0 < b < 1; q-Bessel:
    b < 0), None when the family has no such regime.
    """

    family: Family
    n: int
    q: Fraction
    a: Fraction | None = None
    b: Fraction | None = None
    k: int | None = None
    orthogonal_regime: bool | None = field(init=False)

    def __post_init__(self):
        takes = FAMILIES[self.family].takes
        for name in ("a", "b", "k"):
            if getattr(self, name) is not None and name not in takes:
                raise InvalidParameterError(
                    f"{self.family.value} does not take parameter {name} "
                    f"(it takes {', '.join(takes) or 'only n and q'})"
                )
        object.__setattr__(self, "n", bounded_count(self.n, "n"))
        if self.k is not None:
            object.__setattr__(self, "k", bounded_count(self.k, "k"))
        if self.family is Family.E_FACTOR and self.k is not None and self.n != self.k:
            raise InvalidParameterError(
                f"e-factor E_k has degree k, so n must equal k, got n={self.n}, k={self.k}"
            )
        object.__setattr__(self, "q", as_q(self.q))
        if self.a is not None:
            object.__setattr__(self, "a", rat(self.a))
        if self.b is not None:
            object.__setattr__(self, "b", rat(self.b))
        object.__setattr__(self, "orthogonal_regime", self._regime())

    def _regime(self) -> bool | None:
        q, a, b = self.q, self.a, self.b
        if self.family in (Family.LITTLE_Q_JACOBI, Family.LITTLE_Q_LAGUERRE):
            bb = b if b is not None else Fraction(0)
            return a is not None and 0 < a * q < 1 and bb * q < 1
        if self.family is Family.Q_LAGUERRE:
            return b is not None and 0 < b < 1
        if self.family is Family.Q_BESSEL:
            return b is not None and b < 0
        return None


def little_q_jacobi(
    n: int,
    a: RationalLike,
    b: RationalLike,
    q: RationalLike,
) -> PolyExact:
    """Little q-Jacobi polynomial p_n(x; a, b | q), exact.

    b = 0 yields the little q-Laguerre polynomial; b = q^-k is allowed (the
    polynomial factors through E_k(qx)).  a = q^-m with 1 <= m <= n makes
    the raw series undefined and raises, pointing at
    :func:`normalized_little_q_jacobi`.
    """
    av, bv, qv = rat(a), rat(b), as_q(q)
    m = neg_q_power(av, qv)
    if m is not None and 1 <= m <= n:
        raise DegenerateParameterError(
            f"a = q^-{m} is degenerate for the raw series; "
            "use normalized_little_q_jacobi(n, k, b, q) instead"
        )
    _check_series(n, qv, ((av, 1),))  # 2phi1(q^-n, a b q^(n+1); a q; q, q x)
    a_n, a_d = av.numerator, av.denominator
    upper = ((a_n * bv.numerator, a_d * bv.denominator, n + 1),)  # a b q^(n+1)
    return _series(n, qv, upper, ((a_n, a_d, 1),), (1, 1, 1))


def little_q_laguerre(n: int, a: RationalLike, q: RationalLike) -> PolyExact:
    """Little q-Laguerre (Wall) polynomial, the b = 0 little q-Jacobi case."""
    return little_q_jacobi(n, a, 0, q)


def q_laguerre(n: int, b: RationalLike, q: RationalLike) -> PolyExact:
    """q-Laguerre polynomial L_n^(b)(x; q) = ((b;q)_n/(q;q)_n) 1phi1(q^-n; b; q, -q^n b x)."""
    bv, qv = rat(b), as_q(q)
    _check_series(n, qv, ((bv, 0),))
    b_n, b_d = bv.numerator, bv.denominator
    pre = qpoch_finite(bv, qv, n) / qpoch_finite(qv, qv, n)
    return _series(n, qv, (), ((b_n, b_d, 0),), (-b_n, b_d, n), (pre.numerator, pre.denominator))


def stieltjes_wigert(n: int, q: RationalLike) -> PolyExact:
    """Stieltjes-Wigert polynomial (1/(q;q)_n) 1phi1(q^-n; 0; q, -q^(n+1) x)."""
    qv = as_q(q)
    _check_series(n, qv, ())
    pre = qpoch_finite(qv, qv, n)  # the series is divided by (q;q)_n
    return _series(n, qv, (), ((0, 1, 0),), (-1, 1, n + 1), (pre.denominator, pre.numerator))


def q_bessel(n: int, b: RationalLike, q: RationalLike) -> PolyExact:
    """q-Bessel polynomial 2phi1(q^-n, b q^n; 0; q, x), exact."""
    bv, qv = rat(b), as_q(q)
    _check_series(n, qv, ())
    return _series(n, qv, ((bv.numerator, bv.denominator, n),), ((0, 1, 0),), (1, 1, 0))


def normalized_little_q_jacobi(
    n: int, k: int, b: RationalLike, q: RationalLike
) -> PolyExact:
    """The normalized polynomial (q^(-k+1);q)_n p_n(x; q^-k, b), coefficient-wise.

    Defined for 1 <= k <= n by the j-th coefficient

        (q^-n;q)_j / (q;q)_j * (b q^(n-k+1);q)_j * (q^(j-k+1);q)_(n-j) * q^j,

    which vanishes for j < k; the result is c (qx)^k p_(n-k)(x; q^k, b),
    c = :func:`normalization_constant`.  For j >= k,

        (b q^(n-k+1);q)_j / (b q^(n-k+1);q)_k = (b q^(n+1);q)_(j-k),
        (q^(j-k+1);q)_(n-j) / (q;q)_(n-k) = 1/(q;q)_(j-k),

    so it is the series with upper b q^(n+1), lower q and argument qx from j = k.
    """
    bv, qv = rat(b), as_q(q)
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    first = (  # coefficient k over G_k, where (q^(j-k+1);q)_(n-j) is (q;q)_(n-k)
        Fraction((-1) ** k, qv.denominator ** (k * (n - k)))
        * qv ** (k * (k + 1) // 2 - n * k)
        * qpoch_finite(bv * qv ** (n - k + 1), qv, k)
        * qpoch_finite(qv, qv, n - k)
    )
    upper = ((bv.numerator, bv.denominator, n + 1),)  # b q^(n+1)
    pre = (first.numerator, first.denominator)
    return _series(n, qv, upper, ((1, 1, 1),), (1, 1, 1), pre, start=k)


def normalization_constant(n: int, k: int, b: RationalLike, q: RationalLike) -> Fraction:
    """The constant c with normalized p = c (qx)^k p_(n-k)(x; q^k, b)."""
    bv, qv = rat(b), as_q(q)
    return (
        Fraction(-1) ** k
        * qv ** (k * (k - 1) // 2 - n * k)
        * qpoch_finite(bv * qv ** (n - k + 1), qv, k)
        * qpoch_finite(qv ** (k + 1), qv, n - k)
    )


def e_factor(k: int, q: RationalLike) -> PolyExact:
    """E_k(x) = prod_{j=1..k} (1 - q^-j x); the roots are exactly q^1, ..., q^k."""
    qv = as_q(q)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return _series(k, qv, (), (), (1, 1, 0))  # (q^-k x;q)_k = 1phi0(q^-k; -; q, x)


def weight_mass(
    k: int,
    a: RationalLike,
    b: RationalLike,
    q: RationalLike,
) -> Fraction:
    """Mass (bq;q)_k/(q;q)_k (aq)^k of the discrete orthogonality measure at q^k.

    Requires the orthogonality regime 0 < aq < 1 and bq < 1, where every
    mass is strictly positive.
    """
    av, bv, qv = rat(a), rat(b), as_q(q)
    if not (0 < av * qv < 1 and bv * qv < 1):
        raise RegimeError(
            f"weight mass needs 0 < aq < 1 and bq < 1, got aq={rat_str(av * qv)}, bq={rat_str(bv * qv)}"
        )
    if k < 0:
        raise InvalidParameterError(f"lattice index must be >= 0, got {k}")
    return (
        qpoch_finite(bv * qv, qv, k)
        / qpoch_finite(qv, qv, k)
        * (av * qv) ** k
    )


class FamilyRow(NamedTuple):
    """A family's parameters besides n and q, and its build from a FamilyParams."""

    takes: tuple[str, ...]
    build: Callable[[FamilyParams], PolyExact]


FAMILIES: dict[Family, FamilyRow] = {
    Family.LITTLE_Q_JACOBI: FamilyRow(
        ("a", "b"), lambda p: little_q_jacobi(p.n, _req(p, "a"), p.b or 0, p.q)
    ),
    Family.LITTLE_Q_LAGUERRE: FamilyRow(("a",), lambda p: little_q_laguerre(p.n, _req(p, "a"), p.q)),
    Family.Q_LAGUERRE: FamilyRow(("b",), lambda p: q_laguerre(p.n, _req(p, "b"), p.q)),
    Family.STIELTJES_WIGERT: FamilyRow((), lambda p: stieltjes_wigert(p.n, p.q)),
    Family.Q_BESSEL: FamilyRow(("b",), lambda p: q_bessel(p.n, _req(p, "b"), p.q)),
    Family.NORMALIZED_LITTLE_Q_JACOBI: FamilyRow(
        ("b", "k"), lambda p: normalized_little_q_jacobi(p.n, _req(p, "k"), p.b or 0, p.q)
    ),
    Family.E_FACTOR: FamilyRow(("k",), lambda p: e_factor(_req(p, "k"), p.q)),
}


def build(params: FamilyParams) -> PolyExact:
    """Construct the polynomial described by a :class:`FamilyParams`."""
    return FAMILIES[params.family].build(params)


def _req(params: FamilyParams, name: str):
    value = getattr(params, name)
    if value is None:
        raise InvalidParameterError(f"family requires parameter {name}")
    return value
