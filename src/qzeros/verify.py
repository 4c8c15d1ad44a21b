"""Registry and runner for identity and zero-distribution checks over grids.

Identity checks rebuild both sides of an algebraic relation independently
from the series definitions and demand exact coefficient equality (tolerance
zero); limit checks instead require an exactly monotone decreasing deviation
sequence whose last term is below the grid eps.  Zero-distribution checks
isolate certified roots and decide interlacing, zero-wise order, root
regions, lattice separation and logarithmic-mesh bounds via the analysis
module.  Points outside a check's hypotheses yield SkippedOutOfRegime
records, never silent passes; every Fail carries a witness.  Grids are
evaluated in deterministic lexicographic order, so records are reproducible.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .analysis import (
    Relation,
    compare_root_to_point,
    in_lmesh_class,
    interlace,
    zerowise_compare,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DegenerateParameterError,
    InvalidParameterError,
    QZerosError,
    RegistryError,
    WorkerError,
)
from .families import (
    e_factor,
    little_q_jacobi,
    normalization_constant,
    normalized_little_q_jacobi,
    q_bessel,
    q_laguerre,
    stieltjes_wigert,
    weight_mass,
)
from .qcalc import q_derivative
from .qcore import RationalLike, as_q, bounded_count, clip, neg_q_power, qpoch_finite, rat, rat_str
from .qhyper import HyperSpec, PolyExact, build_qhyper
from .roots import RootSet, isolate_real_roots

_LIMIT_EXPONENTS = range(4, 21)
_GRID_EPS = Fraction(1, 10**6)


class Status(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    SKIPPED = "SkippedOutOfRegime"
    ERROR = "Error"


@dataclass(frozen=True)
class VerificationRecord:
    """One check at one parameter point; Fail always carries a witness."""

    check_id: str
    params: dict
    status: Status
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "checkId": self.check_id,
            "params": self.params,
            "status": self.status.value,
            "witness": self.witness,
        }


_CONFIG_KEYS = ("qValues", "nValues", "aValues", "bValues", "tValues", "eps", "checkIds")


def _config_int(value) -> int:
    r = rat(value)
    if r.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return r.numerator


def _config_value(key: str, value, parse: Callable):
    if isinstance(value, bool):  # JSON true/false, which rat() would read as 1/0
        raise ConfigError(f"{key}: cannot parse {clip(repr(value))} (a boolean is not a value)")
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: cannot parse {clip(repr(value))} ({clip(str(exc))})") from exc


@dataclass
class GridSpec:
    """Parameter grid consumed by the runner; mirrors the config file format."""

    q_values: list[Fraction]
    n_values: list[int]
    a_values: list[Fraction] = field(default_factory=list)
    b_values: list[Fraction] = field(default_factory=list)
    t_values: list[Fraction] = field(default_factory=list)
    eps: Fraction = _GRID_EPS
    check_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.q_values = [as_q(q) for q in self.q_values]
        self.n_values = [int(n) for n in self.n_values]
        self.a_values = [rat(a) for a in self.a_values]
        self.b_values = [rat(b) for b in self.b_values]
        self.t_values = [rat(t) for t in self.t_values]
        self.eps = rat(self.eps)
        if self.eps <= 0:
            raise InvalidParameterError(f"grid eps must be > 0, got {rat_str(self.eps)}")

    @classmethod
    def from_json(cls, doc: Mapping) -> "GridSpec":
        """The grid of a config document; ConfigError when it is malformed."""
        if not isinstance(doc, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {', '.join(unknown)}; allowed keys: {', '.join(_CONFIG_KEYS)}"
            )

        def values(key: str, parse: Callable) -> list:
            raw = doc.get(key, [])
            if not isinstance(raw, list):
                raise ConfigError(f"{key} must be a list, got {type(raw).__name__}")
            return [_config_value(key, v, parse) for v in raw]

        return cls(
            q_values=values("qValues", rat),
            n_values=[bounded_count(n, "nValues") for n in values("nValues", _config_int)],
            a_values=values("aValues", rat),
            b_values=values("bValues", rat),
            t_values=values("tValues", rat),
            eps=_config_value("eps", doc.get("eps", "1/1000000"), rat),
            check_ids=values("checkIds", str),
        )


def default_t_values(q: RationalLike) -> list[Fraction]:
    """The standard t sample set {q^2, (q^2+1)/2, 1} for a given q."""
    qv = as_q(q)
    return [qv * qv, (qv * qv + 1) / 2, Fraction(1)]


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _fmt(value) -> object:
    if isinstance(value, Fraction):
        return rat_str(value)
    return value


def _params_dict(point: Mapping) -> dict:
    return {k: _fmt(v) for k, v in point.items()}


# The work of the current run_checks call while its property checks run:
# root sets, polynomial builds and orthogonality tables, each under a key of
# what determines it.  A polynomial hashes and compares as its integer vector
# and denominator.
_RUN_MEMO: ContextVar[dict | None] = ContextVar("qzeros_run_memo", default=None)


def _once(key: tuple, compute: Callable):
    """``compute()``, kept under ``key`` in the run's memo while one is set."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _roots(p: PolyExact) -> RootSet:
    """Isolated to separation only; each decision refines what it needs.

    Inside :func:`run_checks` each distinct polynomial is isolated once, and
    every decision narrows that one root set in place, so a later decision
    on the polynomial starts from the intervals the last one left.
    """
    return _once(("roots", p), lambda: isolate_real_roots(p, None))


def _root_region(
    rs: RootSet,
    lo: Fraction | None,
    hi: Fraction | None,
    lo_open: bool = True,
    hi_open: bool = True,
) -> tuple[bool, int | None]:
    """All roots inside the interval; returns (ok, index of first offender)."""
    for idx, e in enumerate(rs.roots):
        if lo is not None:
            c = compare_root_to_point(e, lo)
            if c < 0 or (lo_open and c == 0):
                return False, idx
        if hi is not None:
            c = compare_root_to_point(e, hi)
            if c > 0 or (hi_open and c == 0):
                return False, idx
    return True, None


def _lattice_separated(rs: RootSet, q: Fraction) -> tuple[bool, dict | None]:
    """At most one zero (with multiplicity) per open cell (q^k, q^(k-1)), k >= 1.

    Assumes all roots already verified inside (0, 1).  A zero exactly at a
    lattice point belongs to no open cell and is reported in the detail.
    Each zero's k, the least with q^k <= zero, is found by galloping on k
    (1, 2, 4, ... until q^k <= zero, which a zero above 0 reaches) and then
    bisecting on k.  The powers q^k come from one table shared by all zeros.
    """
    power = functools.cache(q.__pow__)
    cells: dict[int, int] = {}
    at_lattice: list[int] = []
    for e in rs.roots:
        lo, hi = 0, 1  # q^lo > zero >= q^hi; c is the sign of zero - q^hi
        c = compare_root_to_point(e, q)
        while c < 0:
            lo, hi = hi, 2 * hi
            c = compare_root_to_point(e, power(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            m = compare_root_to_point(e, power(mid))
            lo, hi, c = (mid, hi, c) if m < 0 else (lo, mid, m)
        if c > 0:
            cells[hi] = cells.get(hi, 0) + e.multiplicity
        else:
            at_lattice.append(hi)
    bad = [k for k, cnt in cells.items() if cnt > 1]
    if bad:
        return False, {"crowded_cells": bad}
    if at_lattice:
        return True, {"zeros_at_lattice_points": at_lattice}
    return True, None


def _compare_sides(comparisons: list[tuple[str, PolyExact, PolyExact]]) -> tuple[Status, dict | None]:
    """Pass when every comparison's sides are equal; both are canonical, so
    that is equal (num, den), and only a Fail subtracts, for its witness."""
    for label, lhs, rhs in comparisons:
        if lhs != rhs:
            index = next(i for i, c in enumerate((lhs - rhs).num) if c)
            return Status.FAIL, {
                "comparison": label,
                "coeff_index": index,
                "lhs": rat_str(lhs.coeff(index)),
                "rhs": rat_str(rhs.coeff(index)),
            }
    return Status.PASS, None


class _Skip(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class _Check:
    """A registry entry: the grid points it runs at and the function it runs."""

    points: Callable  # GridSpec -> list[dict]
    fn: Callable  # (**point) -> (Status, witness | None); raises _Skip off-regime


def _record(check_id: str, check: _Check, point: dict) -> VerificationRecord:
    """One check at one point: a point outside the check's hypotheses gives a
    Skipped record, a library error an Error record."""
    try:
        status, witness = check.fn(**point)
    except _Skip as skip:
        status, witness = Status.SKIPPED, {"reason": skip.reason}
    except QZerosError as exc:
        status, witness = Status.ERROR, {"error": type(exc).__name__, "detail": str(exc)}
    return VerificationRecord(check_id, _params_dict(point), status, witness)


def _axis_points(*axes: str) -> Callable:
    """The cross product of the named grid axes, in lexicographic order."""

    def build(grid: GridSpec) -> list[dict]:
        pools = {
            "q": grid.q_values,
            "n": grid.n_values,
            "a": grid.a_values,
            "b": grid.b_values,
            "t": grid.t_values,
            "t1": grid.t_values,
            "t2": grid.t_values,
            "eps": [grid.eps],
        }
        return [dict(zip(axes, combo)) for combo in itertools.product(*(pools[x] for x in axes))]

    return build


def _k_points(*axes: str) -> Callable:
    """The axis points, each repeated with k = 1..n."""

    def build(grid: GridSpec) -> list[dict]:
        points = _axis_points(*axes)(grid)
        return [{**point, "k": k} for point in points for k in range(1, point["n"] + 1)]

    return build


_QNAB = _axis_points("q", "n", "a", "b")


# --------------------------------------------------------------------------
# regime guards
# --------------------------------------------------------------------------


def _need(cond: bool, reason: str, name: str | None = None, value: Fraction | None = None) -> None:
    """Skip the point unless ``cond``; the reason names ``name = value`` if given."""
    if not cond:
        raise _Skip(reason if name is None else f"{reason} ({name} = {rat_str(value)})")


def _aq_regime(q, a) -> None:
    _need(0 < a * q < 1, "needs 0 < aq < 1", "aq", a * q)


def _bq_regime(q, b) -> None:
    _need(b * q < 1, "needs bq < 1", "bq", b * q)


def _jacobi_regime(q, a, b) -> None:
    _aq_regime(q, a)
    _bq_regime(q, b)


def _negative(name: str, value) -> None:
    _need(value < 0, f"needs {name} < 0", name, value)


def _unit(name: str, value) -> None:
    _need(0 < value < 1, f"needs 0 < {name} < 1", name, value)


def _t_window(q, t) -> None:
    _need(q * q <= t <= 1, "needs q^2 <= t <= 1", "t", t)


def _t1_window(q, t1) -> None:
    _need(q * q <= t1 < 1, "needs q^2 <= t1 < 1", "t1", t1)


def _t_open(q, t) -> None:
    _need(q * q < t < 1, "needs q^2 < t < 1", "t", t)


def _b_regular(q, b) -> None:
    _need(neg_q_power(b, q) is None, "b = q^-m excluded")


def _contiguous(q, n, b) -> None:
    _need(n >= 1, "needs n >= 1")
    _b_regular(q, b)


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------


def _jac(n: int, a: Fraction, b: Fraction, q: Fraction) -> PolyExact:
    try:
        return _once(("jac", n, a, b, q), lambda: little_q_jacobi(n, a, b, q))
    except (DegenerateParameterError, ConstraintViolationError) as exc:
        raise _Skip(str(exc))


def _identity_contig1(q, n, a, b):
    _contiguous(q, n, b)
    lhs = -_jac(n, a, q * q * b, q)
    const = (
        a * (1 - q**n) * (1 - a * b * q ** (n + 3))
        / (q ** (n - 2) * (1 - a * q) * (1 - a * q**2))
    )
    rhs = const * (PolyExact.x() * _jac(n - 1, q**2 * a, q**2 * b, q)) - _jac(n, q * a, q * b, q)
    return [("contig-1", lhs, rhs)], None


def _identity_contig2(q, n, a, b):
    _contiguous(q, n, b)
    lhs = (1 - a * q) * (1 + b * q**n * (a * q ** (n + 1) - a * q - 1)) * _jac(n, a, b, q)
    rhs = (1 - b * q**n) * (1 - a * q ** (n + 1)) * _jac(n, q * a, b / q, q) + (
        a * q * (1 - q**n) * (1 - a * b * q ** (n + 1))
    ) * (PolyExact((-1, b * q)) * _jac(n - 1, q * a, q * b, q))
    return [("contig-2", lhs, rhs)], None


def _identity_contig3(q, n, a, b):
    _contiguous(q, n, b)
    lhs = q**n * (1 - a * b * q**n) * _jac(n, a, b, q)
    rhs = (1 - a * b * q ** (2 * n)) * _jac(n, a, b / q, q).scale_arg(q) - (1 - q**n) * _jac(
        n - 1, a, b, q
    )
    return [("contig-3", lhs, rhs)], None


def _identity_contig4(q, n, a, b):
    _b_regular(q, b)
    lhs = b * q ** (n + 1) * (1 - a * q ** (n + 1)) * _jac(n + 1, a, b, q)
    rhs = (1 - a * b * q ** (2 * n + 2)) * (PolyExact((1, -q * b)) * _jac(n, a, q * b, q)) - (
        1 - b * q ** (n + 1)
    ) * _jac(n, a, b, q)
    return [("contig-4", lhs, rhs)], None


def _identity_contig3_shifted(q, n, a, b):
    _contiguous(q, n, b)
    lhs = (1 - a * b * q ** (2 * n + 1)) * _jac(n, a, b, q).scale_arg(q)
    rhs = (1 - q**n) * _jac(n - 1, a, q * b, q) + q**n * (1 - a * b * q ** (n + 1)) * _jac(
        n, a, q * b, q
    )
    return [("contig-3-shifted", lhs, rhs)], None


def _identity_qderiv_jacobi(q, n, a, b):
    _need(n >= 1, "needs n >= 1")
    lhs = q_derivative(_jac(n, a, b, q), q)
    const = q * (1 - q ** (-n)) * (1 - a * b * q ** (n + 1)) / ((1 - q) * (1 - a * q))
    rhs = const * _jac(n - 1, q * a, q * b, q)
    return [("qderiv-jacobi", lhs, rhs)], {"constant": rat_str(const)}


def _phi(n, upper, lower, q) -> PolyExact:
    try:
        return _once(
            ("phi", n, upper, lower, q),
            lambda: build_qhyper(HyperSpec(n=n, upper=upper, lower=lower, q=q)),
        )
    except ConstraintViolationError as exc:
        raise _Skip(str(exc))


def _identity_qderiv_hyper(q, n, a, b):
    _need(n >= 1, "needs n >= 1")
    shapes = [("2phi1", (a,), (b,)), ("1phi1", (), (b,)), ("2phi0", (a,), ())]
    comparisons = []
    constants = {}
    for label, upper, lower in shapes:
        p = _phi(n, upper, lower, q)
        shifted = _phi(n - 1, tuple(q * u for u in upper), tuple(q * l for l in lower), q)
        d = len(lower) - len(upper)
        const = Fraction(-1) ** d * (1 - q ** (-n)) / (1 - q)
        for u in upper:
            const *= 1 - u
        for l in lower:
            const /= 1 - l
        comparisons.append((label, q_derivative(p, q), const * shifted.scale_arg(q**d)))
        constants[label] = rat_str(const)
    return comparisons, {"constants": constants}


def _identity_recip1(q, n, b):
    _need(b != 0, "needs b != 0")
    _need(qpoch_finite(b, q, n) != 0, "(b;q)_n vanishes")
    lhs = _phi(n, (), (b,), q)
    inner = _phi(n, (q ** (1 - n) / b,), (Fraction(0),), q).scale_arg(b * q ** (n + 1))
    rhs = (1 / (qpoch_finite(b, q, n) * q**n)) * inner.reversed_to(n)
    return [("recip-1", lhs, rhs)], None


def _identity_recip2(q, n, a, b):
    _need(a != 0 and b != 0, "needs a, b != 0")
    _need(qpoch_finite(b, q, n) != 0, "(b;q)_n vanishes")
    lhs = _phi(n, (a,), (b,), q)
    inner = _phi(n, (q ** (1 - n) / b,), (q ** (1 - n) / a,), q).scale_arg(
        b * q ** (n + 1) / a
    )
    const = (
        qpoch_finite(a, q, n)
        / qpoch_finite(b, q, n)
        * q ** (-n - n * (n - 1) // 2)
        * Fraction(-1) ** n
    )
    rhs = const * inner.reversed_to(n)
    return [("recip-2", lhs, rhs)], None


def _identity_recip3(q, n, a):
    _need(a != 0, "needs a != 0")
    lhs = _phi(n, (a,), (), q)
    inner = _phi(n, (Fraction(0),), (q ** (1 - n) / a,), q).scale_arg(q ** (n + 1) / a)
    const = qpoch_finite(a, q, n) * q ** (-n * n)
    rhs = const * inner.reversed_to(n)
    return [("recip-3", lhs, rhs)], {
        "note": "constant corrected by q^(-n(n-1)) relative to the usual citation"
    }


def _identity_factor_bneg(q, n, a, k):
    _need(1 <= k <= n, "needs 1 <= k <= n")
    lhs = _jac(n, a, q ** (-k), q)
    rhs = e_factor(k, q).scale_arg(q) * _jac(n - k, a, q**k, q).scale_arg(q ** (-k))
    return [("factor-bneg", lhs, rhs)], None


def _identity_factor_anorm(q, n, b, k):
    _need(1 <= k <= n, "needs 1 <= k <= n")
    lhs = normalized_little_q_jacobi(n, k, b, q)
    const = normalization_constant(n, k, b, q)
    rhs = (const * q**k) * _jac(n - k, q**k, b, q).shift_up(k)
    return [("factor-anorm", lhs, rhs)], {"constant": rat_str(const)}


def _identity_qdiff_bessel(q, n, b):
    _need(b != 0, "needs b != 0")
    B = q_bessel(n, b, q)
    combo = (
        PolyExact((1, -(q ** (-n) + b * q**n))) * B.scale_arg(q)
        + b * (PolyExact.x() * B.scale_arg(q * q))
        - PolyExact((1, -1)) * B
    )
    return [("qdiff-bessel", combo, PolyExact.zero())], {
        "form": "(1-(q^-n+bq^n)x) B(qx) + bx B(q^2 x) - (1-x) B(x) = 0"
    }


def _deviation_profile(pairs: list[tuple[PolyExact, PolyExact]]) -> list[Fraction]:
    """Relative max-coefficient deviations, one per (approximant, target) pair.

    With approximant a/A and target t/T, max |a_i/A - t_i/T| / max |t_i/T|
    is max |a_i T - t_i A| / (A max |t_i|): one ``Fraction`` per pair.
    """
    devs = []
    for approx, target in pairs:
        A, T = approx.den, target.den
        coeff_pairs = itertools.zip_longest(approx.num, target.num, fillvalue=0)
        top = max(abs(a * T - t * A) for a, t in coeff_pairs)
        devs.append(Fraction(top, A * max(map(abs, target.num))))
    return devs


def _limit_record(devs: list[Fraction], eps: Fraction) -> tuple[Status, dict]:
    monotone = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    final = devs[-1]
    witness = {
        "monotone_decreasing": monotone,
        "final_deviation": f"{float(final):.3e}",
        "eps": rat_str(eps),
    }
    status = Status.PASS if monotone and final < eps else Status.FAIL
    return status, witness


def _identity_bessel_limit(q, n, b, eps=_GRID_EPS):
    _need(n >= 1, "needs n >= 1")  # at n = 0 every deviation is 0, none decreasing
    target = q_bessel(n, b, q).scale_arg(q)
    pairs = []
    for m in _LIMIT_EXPONENTS:
        a = q**m
        pairs.append((_jac(n, a, b / (q * a), q), target))
    return _limit_record(_deviation_profile(pairs), eps)


def _identity_sw_limit(q, n, eps=_GRID_EPS):
    _need(n >= 1, "needs n >= 1")
    target = stieltjes_wigert(n, q)
    pairs = []
    for m in _LIMIT_EXPONENTS:
        b = q**m
        pairs.append((q_laguerre(n, b, q).scale_arg(q / b), target))
    return _limit_record(_deviation_profile(pairs), eps)


def _exact(points: Callable, sides: Callable) -> _Check:
    """An identity check: ``sides`` builds (label, lhs, rhs) comparisons and
    a witness for a Pass; every comparison must hold coefficient by
    coefficient."""

    def fn(**point):
        comparisons, extra = sides(**point)
        status, witness = _compare_sides(comparisons)
        return status, extra if status is Status.PASS else witness

    return _Check(points, fn)


SELFTEST_ID = "harness-selftest"
_SELFTEST_POINT = {"q": Fraction(1, 2), "n": 2, "a": Fraction(1, 3), "b": Fraction(-1)}


def _selftest(coeff_index=1, **point):
    """Add x^i to the first right-hand side of a known-true identity,
    contig-4, and expect a Fail whose witness names exactly index i.  With
    no point given it runs at the default point."""

    def corrupted(**pt):
        ((label, lhs, rhs), *rest), extra = _identity_contig4(**pt)
        bump = PolyExact([Fraction(0)] * coeff_index + [Fraction(1)])
        return [(label, lhs, rhs + bump), *rest], extra

    inner = _record("contig-4", _exact(_QNAB, corrupted), point or _SELFTEST_POINT)
    ok = inner.status is Status.FAIL and inner.witness["coeff_index"] == coeff_index
    return Status.PASS if ok else Status.FAIL, {
        "corrupted_index": coeff_index,
        "inner_status": inner.status.value,
        "inner_witness": inner.witness,
    }


IDENTITY_CHECKS: dict[str, _Check] = {
    "contig-1": _exact(_QNAB, _identity_contig1),
    "contig-2": _exact(_QNAB, _identity_contig2),
    "contig-3": _exact(_QNAB, _identity_contig3),
    "contig-4": _exact(_QNAB, _identity_contig4),
    "contig-3-shifted": _exact(_QNAB, _identity_contig3_shifted),
    "qderiv-jacobi": _exact(_QNAB, _identity_qderiv_jacobi),
    "qderiv-hyper": _exact(_QNAB, _identity_qderiv_hyper),
    "recip-1": _exact(_axis_points("q", "n", "b"), _identity_recip1),
    "recip-2": _exact(_QNAB, _identity_recip2),
    "recip-3": _exact(_axis_points("q", "n", "a"), _identity_recip3),
    "factor-bneg": _exact(_k_points("q", "n", "a"), _identity_factor_bneg),
    "factor-anorm": _exact(_k_points("q", "n", "b"), _identity_factor_anorm),
    "qdiff-bessel": _exact(_axis_points("q", "n", "b"), _identity_qdiff_bessel),
    "bessel-limit": _Check(_axis_points("q", "n", "b", "eps"), _identity_bessel_limit),
    "sw-limit": _Check(_axis_points("q", "n", "eps"), _identity_sw_limit),
    SELFTEST_ID: _Check(lambda grid: [dict(_SELFTEST_POINT)], _selftest),
}


def check_identity(check_id: str, params: Mapping[str, object]) -> VerificationRecord:
    """Run one identity at one parameter point (the limit checks read eps,
    default 10^-6)."""
    check = IDENTITY_CHECKS.get(check_id)
    if check is None:
        raise RegistryError(f"unknown identity check {check_id!r}")
    point = {
        k: int(v) if k in ("n", "k", "coeff_index") else as_q(v) if k == "q" else rat(v)
        for k, v in params.items()
    }
    return _record(check_id, check, point)


# --------------------------------------------------------------------------
# zero-distribution (property) checks
# --------------------------------------------------------------------------


def _interlaces(pair: tuple[PolyExact, PolyExact], weak_ok: bool = False) -> tuple[Status, dict]:
    """Pass when the first polynomial is strictly interlaced by the second
    (or weakly, with ``weak_ok``); the witness names the relation observed."""
    report = interlace(_roots(pair[0]), _roots(pair[1]))
    witness = {"relation": report.relation.value}
    if report.relation is Relation.STRICT_INTERLACE or (
        weak_ok and report.relation is Relation.WEAK_INTERLACE
    ):
        return Status.PASS, witness
    witness["chain_position"] = report.witness
    return Status.FAIL, witness


def _interlacing(points: Callable, pair: Callable, weak_ok: bool = False) -> _Check:
    """An interlacing check: ``pair`` tests its regime and builds (p, r)."""
    return _Check(points, lambda **point: _interlaces(pair(**point), weak_ok))


def _thmA_1(q, n, a, b):
    _jacobi_regime(q, a, b)
    return _jac(n + 1, a, b, q), _jac(n, a, q * b, q)


def _thmA_2(q, n, a, b):
    _jacobi_regime(q, a, b)
    return _jac(n + 1, a, b, q), _jac(n, a, q * q * b, q)


def _thmA_3(q, n, a, b):
    _jacobi_regime(q, a, b)
    return _jac(n, a, q * q * b, q), _jac(n, q * a, q * b, q)


def _thm1_monotone(q, n, lo, hi, a=None, b=None):
    """Zero-wise order of p_n at the ordered pair lo < hi of a (when the point
    has no a) or of b."""
    if a is None:
        _need(0 < lo * q < 1 and 0 < hi * q < 1, "both a values need 0 < aq < 1")
        _bq_regime(q, b)
        # zeros decrease with a: larger a sits zero-wise below smaller a
        first, second = _jac(n, hi, b, q), _jac(n, lo, b, q)
    else:
        _aq_regime(q, a)
        _need(lo * q < 1 and hi * q < 1, "both b values need bq < 1")
        # zeros increase with b
        first, second = _jac(n, a, lo, q), _jac(n, a, hi, q)
    rep = zerowise_compare(_roots(first), _roots(second))
    witness = {"any_strict_movement": rep.any_strict}
    if rep.holds:
        return Status.PASS, witness
    witness["zero_index"] = rep.witness
    return Status.FAIL, witness


def _prop_thm2_lmesh(q, n, a, b):
    _jacobi_regime(q, a, b)
    rs = _roots(_jac(n, a, b, q))
    if not rs.certified_real_rooted:
        return Status.FAIL, {"reason": "not certified real-rooted", "found": rs.total_count}
    if any(e.multiplicity > 1 for e in rs.roots):
        return Status.FAIL, {"reason": "multiple zero found"}
    ok, idx = _root_region(rs, Fraction(0), Fraction(1))
    if not ok:
        return Status.FAIL, {"reason": "zero outside (0,1)", "zero_index": idx}
    ok, detail = _lattice_separated(rs, q)
    if not ok:
        return Status.FAIL, {"reason": "lattice cell with two zeros", **(detail or {})}
    if not in_lmesh_class(rs, q, strict=True):
        return Status.FAIL, {"reason": "lmesh not strictly below q"}
    witness = {"lattice": detail} if detail else None
    return Status.PASS, witness


def _thm2_i(q, n, a, b):
    _need(n >= 1, "needs n >= 1")
    _jacobi_regime(q, a, b)
    return _jac(n, a, b, q), _jac(n - 1, q * a, q * b, q)


def _thm2_ii(q, n, a, b):
    _jacobi_regime(q, a, b)
    return _jac(n, a, q * q * b, q), _jac(n, q * q * a, b, q)


def _thm2_iii(q, n, a, b):
    _negative("b", b)
    _aq_regime(q, a)
    return _jac(n, a, b, q), _jac(n, a, q * q * b, q)


def _cor_i(q, n, a, b, t1, t2):
    _aq_regime(q, a)
    _need(0 <= b * q < 1, "needs 0 <= qb < 1", "qb", q * b)
    _t_window(q, t1)
    _t_window(q, t2)
    _need(t1 * t2 != 1, "needs t1*t2 != 1")
    _need(not (b == 0 and t2 == 1), "degenerate point: both sides identical (b=0, t2=1)")
    return _jac(n, a, t1 * b, q), _jac(n, t2 * a, b, q)


def _cor_ii(q, n, a, b, t1):
    _aq_regime(q, a)
    _negative("b", b)
    _t1_window(q, t1)
    return _jac(n, a, b, q), _jac(n, a, t1 * b, q)


def _in_class_outcome(
    p: PolyExact,
    base: Fraction,
    strict: bool,
    region: tuple[Fraction | None, Fraction | None],
    region_open: tuple[bool, bool] = (True, True),
) -> tuple[Status, dict | None]:
    rs = _roots(p)
    if not rs.certified_real_rooted:
        return Status.FAIL, {"reason": "not certified real-rooted", "found": rs.total_count}
    ok, idx = _root_region(rs, region[0], region[1], region_open[0], region_open[1])
    if not ok:
        return Status.FAIL, {"reason": "zero outside stated region", "zero_index": idx}
    if not in_lmesh_class(rs, base, strict=strict):
        kind = "strictly below" if strict else "at most"
        return Status.FAIL, {"reason": f"lmesh not {kind} {rat_str(base)}"}
    return Status.PASS, None


def _prop_bessel_lmesh(q, n, b):
    _negative("b", b)
    return _in_class_outcome(q_bessel(n, b, q), q, True, (Fraction(0), Fraction(1)))


def _bessel_pair(q, n, b, t):
    _negative("b", b)
    _t_open(q, t)
    return q_bessel(n, b, q), q_bessel(n, t * b, q)


def _prop_qlag_lmesh(q, n, b):
    _unit("b", b)
    return _in_class_outcome(q_laguerre(n, b, q), q * q, True, (Fraction(0), None))


def _qlag_pair(q, n, b, t):
    _unit("b", b)
    _t_open(q, t)
    return q_laguerre(n, b, q), q_laguerre(n, t * b, q)


def _prop_sw_lmesh(q, n):
    return _in_class_outcome(stieltjes_wigert(n, q), q * q, False, (Fraction(0), None))


def _phi21_mono1(q, n, a, b, t1, t2):
    _unit("b", b)
    _need(0 <= a < b * q ** (n - 1), "needs 0 <= a < b q^(n-1)", "a", a)
    _t_window(q, t1)
    _t_window(q, t2)
    _need(t1 * t2 != 1, "needs t1*t2 != 1")
    _need(not (a == 0 and t2 == 1), "degenerate point: both sides identical (a=0, t2=1)")
    return _phi(n, (t1 * a,), (b,), q), _phi(n, (t2 * a,), (t2 * b,), q)


def _phi21_mono2(q, n, a, b, t1):
    _negative("a", a)
    _unit("b", b)
    _t1_window(q, t1)
    return _phi(n, (a,), (b,), q), _phi(n, (t1 * a,), (b,), q)


def _prop_orthogonality(q, a, b, n, m, eps):
    _jacobi_regime(q, a, b)
    s, tail, cutoff = _orthogonality_sum(n, m, a, b, q, eps)
    witness = {
        "abs_sum": f"{float(abs(s)):.3e}",
        "tail_bound": f"{float(tail):.3e}",
        "lattice_cutoff": cutoff,
    }
    if abs(s) < eps and tail < eps:
        return Status.PASS, witness
    return Status.FAIL, witness


def _mass_bound(q: Fraction, b: Fraction) -> Fraction:
    """An upper bound for sup_k |(bq;q)_k| / (q;q)_inf.

    Both factors are bounded from a probe whose tail sum
    max(1, |b|) q^(probe+1)/(1-q) is at most 1/2.
    """
    probe = 40
    while max(1, abs(b)) * q ** (probe + 1) / (1 - q) > Fraction(1, 2):
        probe *= 2
    lower_qq = qpoch_finite(q, q, probe) * (1 - q ** (probe + 1) / (1 - q))
    if b >= 0:
        return 1 / lower_qq
    tail_sum = abs(b) * q ** (probe + 1) / (1 - q)
    return abs(qpoch_finite(b * q, q, probe)) / (1 - tail_sum) / lower_qq


def _lattice_table(key: tuple, terms: int, entry: Callable) -> list:
    """At least ``terms`` entries, entry k being ``entry(table, k)`` for the
    entries before it; inside a run the list is kept under ``key`` and grown
    as later calls need."""
    table = _once(key, list)
    while len(table) < terms:
        table.append(entry(table, len(table)))
    return table


def _orthogonality_sum(n, m, a, b, q, tol):
    """Exact partial sum of the discrete pairing plus a proven geometric tail bound."""
    pn, pm = _jac(n, a, b, q), _jac(m, a, b, q)
    phat_n = PolyExact.from_ints(map(abs, pn.num), pn.den)
    phat_m = PolyExact.from_ints(map(abs, pm.num), pm.den)
    aq = a * q
    bound = _once(("mass_bound", q, b), lambda: _mass_bound(q, b))
    # the tail is bound * lattice, and tail < tol exactly when lattice < tol / bound
    limit = tol / bound
    cutoff = 8
    while True:
        lattice = phat_n(q ** (cutoff + 1)) * phat_m(q ** (cutoff + 1)) * aq ** (cutoff + 1) / (1 - aq)
        if lattice < limit:
            break
        cutoff += 8
        if cutoff > 100_000:
            raise _Skip("tail bound did not contract")
    tail = bound * lattice
    # With q = u/v, pn(q^k) and pm(q^k) come as integer pairs from homogeneous
    # Horner at u^k/v^k, and the mass (bq;q)_k/(q;q)_k (aq)^k telescopes from
    # k-1 to k by the integer ratio (b_d v^k - b_n u^k) a_n u
    # / (b_d (v^k - u^k) a_d v).  The term denominators are
    # mass_den * L_n v^(k deg pn) * L_m v^(k deg pm), each a multiple of the
    # one before, so the sum runs as one integer over the latest of them and
    # is reduced once.  Masses and values are tables of the run, shared by
    # every degree pair at (q, a, b).
    terms = cutoff + 1
    u, v = q.numerator, q.denominator
    step_num, step_den = a.numerator * u, a.denominator * b.denominator * v

    def mass(table, k):
        if not k:
            first = weight_mass(0, a, b, q)  # checks the regime
            return first.numerator, first.denominator
        (num, den), uk, vk = table[-1], u**k, v**k
        return num * (b.denominator * vk - b.numerator * uk) * step_num, den * (vk - uk) * step_den

    def values(p):
        return _lattice_table(("values", p, q), terms, lambda _, k: p.value_parts(u**k, v**k))

    masses, values_n, values_m = _lattice_table(("masses", q, a, b), terms, mass), values(pn), values(pm)
    acc, acc_den = 0, 1
    for k in range(terms):
        (mass_num, mass_den), (hn, dn), (hm, dm) = masses[k], values_n[k], values_m[k]
        den = mass_den * dn * dm
        acc = acc * (den // acc_den) + mass_num * hn * hm
        acc_den = den
    return Fraction(acc, acc_den), tail, cutoff


# -- Table 1: stated parameter ranges, root regions and mesh bounds ---------


def _samples_interval(lo: Fraction | None, hi: Fraction | None) -> list[Fraction]:
    """Documented deterministic samples for open ranges: quartile points of a
    finite interval, offsets {1/3, 1, 3} beyond a single finite endpoint."""
    if lo is not None and hi is not None:
        if hi <= lo:
            return []
        return [lo + (hi - lo) * f for f in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    if lo is not None:
        return [lo + Fraction(1, 3), lo + 1, lo + 3]
    return [hi - 3, hi - 1, hi - Fraction(1, 3)]


@dataclass(frozen=True)
class TableRow:
    """One row of the root-location table for phi polynomials with top
    parameter q^-n: stated (a, b) ranges, the stated root region and lmesh
    bound.  The samplers give the shape: a row without ``a_samples`` has no
    upper a (1phi1), one without ``b_samples`` no lower b (2phi0), and a row
    with both is 2phi1.  ``note`` records any reading adopted where the
    printed form is unattainable; the runner still reports honestly."""

    a_samples: Callable | None
    b_samples: Callable | None
    region: Callable  # (q, n) -> (lo, hi, lo_open, hi_open)
    mesh_base: Callable  # (q) -> bound to compare lmesh against
    mesh_strict: bool
    note: str | None = None


TABLE1_ROWS: dict[int, TableRow] = {
    1: TableRow(
        lambda q, n, b: _samples_interval(None, b * q ** (n - 1)),
        lambda q, n: _samples_interval(Fraction(0), Fraction(1)),
        lambda q, n: (Fraction(0), q, True, True),
        lambda q: q,
        True,
    ),
    2: TableRow(
        lambda q, n, b: sorted({b * q**j for j in (0, (n - 1) // 2, n - 1)}),
        lambda q, n: _samples_interval(Fraction(0), Fraction(1)),
        lambda q, n: (Fraction(0), q, True, False),
        lambda q: q,
        False,
        note="top zero equals q exactly (factorization through E_k); region closed at q",
    ),
    3: TableRow(
        lambda q, n, b: _samples_interval(q ** (1 - n), None),
        lambda q, n: _samples_interval(None, Fraction(0)),
        lambda q, n: (None, Fraction(0), True, True),
        lambda q: q,
        True,
    ),
    4: TableRow(
        lambda q, n, b: _samples_interval(q ** (1 - n), b * q ** (n + 1)),
        lambda q, n: [q ** (-2 * n) * 2, q ** (-2 * n) * 4, q ** (-2 * n) * 16],
        lambda q, n: (Fraction(0), None, True, True),
        lambda q: q,
        True,
    ),
    5: TableRow(
        lambda q, n, b: _samples_interval(None, Fraction(0)),
        lambda q, n: [Fraction(0)],
        lambda q, n: (Fraction(0), q, True, True),
        lambda q: q,
        True,
    ),
    6: TableRow(
        lambda q, n, b: _samples_interval(q ** (1 - n), None),
        lambda q, n: [Fraction(0)],
        lambda q, n: (None, Fraction(0), True, True),
        lambda q: q,
        True,
    ),
    7: TableRow(
        lambda q, n, b: _samples_interval(q ** (1 - n), None),
        None,
        lambda q, n: (Fraction(0), None, True, True),
        lambda q: q,
        True,
    ),
    8: TableRow(
        None,
        lambda q, n: _samples_interval(Fraction(0), Fraction(1)),
        lambda q, n: (None, Fraction(0), True, True),
        lambda q: q * q,
        True,
    ),
    9: TableRow(
        None,
        lambda q, n: [Fraction(0)],
        lambda q, n: (None, Fraction(0), True, True),
        lambda q: q * q,
        False,
    ),
    10: TableRow(
        None,
        lambda q, n: _samples_interval(None, Fraction(0)),
        lambda q, n: (None, Fraction(0), True, True),
        lambda q: q,
        True,
    ),
}


def _table_row_points(row: TableRow, grid: GridSpec) -> list[dict]:
    points = []
    for q in grid.q_values:
        for n in grid.n_values:
            if n < 1:
                continue
            b_list = row.b_samples(q, n) if row.b_samples else [None]
            for b in b_list:
                a_list = row.a_samples(q, n, b) if row.a_samples else [None]
                for a in a_list:
                    point = {"q": q, "n": n}
                    if a is not None:
                        point["a"] = a
                    if b is not None:
                        point["b"] = b
                    points.append(point)
    return points


def _table_row(row: TableRow, q, n, a=None, b=None):
    p = _phi(n, () if a is None else (a,), () if b is None else (b,), q)
    lo, hi, lo_open, hi_open = row.region(q, n)
    status, witness = _in_class_outcome(
        p, row.mesh_base(q), row.mesh_strict, (lo, hi), (lo_open, hi_open)
    )
    if status is Status.PASS and row.note:
        witness = {"note": row.note}
    return status, witness


def _pair_points(axis: str):
    """Ordered value pairs (lo < hi) of one axis, crossed with q, n and the other axis."""
    other = "b" if axis == "a" else "a"

    def build(grid: GridSpec) -> list[dict]:
        pairs = itertools.combinations(sorted(set(getattr(grid, f"{axis}_values"))), 2)
        return [
            {"q": q, "n": n, other: value, "lo": lo, "hi": hi}
            for q, n, value, (lo, hi) in itertools.product(
                grid.q_values, grid.n_values, getattr(grid, f"{other}_values"), pairs
            )
        ]

    return build


def _orthogonality_points(grid: GridSpec) -> list[dict]:
    """Each (q, a, b) with every degree pair 0 <= n < m <= 5."""
    return [
        {"q": q, "a": a, "b": b, "n": n, "m": m, "eps": grid.eps}
        for q, a, b, (n, m) in itertools.product(
            grid.q_values, grid.a_values, grid.b_values, itertools.combinations(range(6), 2)
        )
    ]


PROPERTY_CHECKS: dict[str, _Check] = {
    "thmA-1": _interlacing(_QNAB, _thmA_1),
    "thmA-2": _interlacing(_QNAB, _thmA_2),
    "thmA-3": _interlacing(_QNAB, _thmA_3),
    "thm1-monotone-a": _Check(_pair_points("a"), _thm1_monotone),
    "thm1-monotone-b": _Check(_pair_points("b"), _thm1_monotone),
    "thm2-lmesh": _Check(_QNAB, _prop_thm2_lmesh),
    "thm2-i": _interlacing(_QNAB, _thm2_i),
    "thm2-ii": _interlacing(_QNAB, _thm2_ii),
    "thm2-iii": _interlacing(_QNAB, _thm2_iii),
    "cor-i": _interlacing(_axis_points("q", "n", "a", "b", "t1", "t2"), _cor_i),
    "cor-ii": _interlacing(_axis_points("q", "n", "a", "b", "t1"), _cor_ii),
    "bessel-lmesh": _Check(_axis_points("q", "n", "b"), _prop_bessel_lmesh),
    "bessel-interlace": _interlacing(_axis_points("q", "n", "b", "t"), _bessel_pair, weak_ok=True),
    "qlag-lmesh": _Check(_axis_points("q", "n", "b"), _prop_qlag_lmesh),
    "qlag-interlace": _interlacing(_axis_points("q", "n", "b", "t"), _qlag_pair),
    "sw-lmesh": _Check(_axis_points("q", "n"), _prop_sw_lmesh),
    "phi21-mono-1": _interlacing(_axis_points("q", "n", "a", "b", "t1", "t2"), _phi21_mono1),
    "phi21-mono-2": _interlacing(_axis_points("q", "n", "a", "b", "t1"), _phi21_mono2),
    "orthogonality": _Check(_orthogonality_points, _prop_orthogonality),
    **{
        f"table1-row-{r}": _Check(
            functools.partial(_table_row_points, row), functools.partial(_table_row, row)
        )
        for r, row in TABLE1_ROWS.items()
    },
}


def _on_grid(checks: dict[str, _Check], kind: str, check_id: str, grid: GridSpec) -> list:
    check = checks.get(check_id)
    if check is None:
        raise RegistryError(f"unknown {kind} check {check_id!r}")
    return [_record(check_id, check, point) for point in check.points(grid)]


def check_property(check_id: str, grid: GridSpec) -> list[VerificationRecord]:
    """Evaluate one zero-distribution check over the whole grid."""
    return _on_grid(PROPERTY_CHECKS, "property", check_id, grid)


def run_identity_on_grid(check_id: str, grid: GridSpec) -> list[VerificationRecord]:
    """Iterate an identity over the grid axes it consumes (plus k = 1..n for
    the factorization checks and eps for the limit checks)."""
    return _on_grid(IDENTITY_CHECKS, "identity", check_id, grid)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _identity_records(check_id: str, grid: GridSpec) -> list[VerificationRecord]:
    """One identity check's records.  Workers are sent this private name: it
    pickles by reference even while a tracer rebinds the public functions."""
    return run_identity_on_grid(check_id, grid)


@contextlib.contextmanager
def _identity_pool(identity_checks: int, property_checks: bool):
    """A pool of forked workers for the identity checks, or None to run them
    inline.

    The parent keeps one CPU for the property checks when there are any, and
    a pool starts only when two processes would then work at once.  Forked
    workers inherit the registry and start without re-importing; fork is
    skipped in a process that already runs other threads.  A worker that dies
    raises :class:`WorkerError`, and every worker has ended when the block
    exits, on return and on raise alike.
    """
    workers = min(identity_checks, _usable_cpus() - property_checks)
    if workers + property_checks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield None
        return
    import multiprocessing  # imported here only: `import qzeros` stays without them
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerError("a worker process running identity checks ended abruptly") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _property_records(check_ids: list[str], grid: GridSpec) -> dict[str, list[VerificationRecord]]:
    """Each property check's records, all under one run memo.  The memo is
    dropped on return, before identity checks run inline, so their builds
    do not pile up beside it."""
    records = {}
    token = _RUN_MEMO.set({})
    try:
        for check_id in check_ids:
            records[check_id] = check_property(check_id, grid)
    finally:
        _RUN_MEMO.reset(token)
    return records


def run_checks(grid: GridSpec) -> list[VerificationRecord]:
    """Run every check named by the grid and return the records in the order
    the grid lists the checks, each check's in its own grid-point order.

    When more than one CPU is usable, identity checks run in forked worker
    processes, one check per task, while this process runs the property
    checks; otherwise everything runs here.  The records, and so the report
    bytes, are the same either way.  A worker that dies raises
    :class:`WorkerError`; an exception a check raises in a worker is raised
    here with its own type.

    The property checks share one memo for the call: each distinct
    polynomial is built and isolated once, every decision narrows that root
    set in place (see :func:`_roots`), and the orthogonality bounds and
    lattice tables are computed once.  Identity checks run without it, since
    they isolate nothing and their builds would only hold memory; workers
    are started before the memo is set.  The memo is dropped when the
    property checks end or raise.

    A grid that yields no record at all (no check ids, or value lists that
    leave every check without a point) raises :class:`ConfigError`: an
    empty report would read as a pass.
    """
    unknown = [c for c in grid.check_ids if c not in IDENTITY_CHECKS and c not in PROPERTY_CHECKS]
    if unknown:
        raise RegistryError(f"unknown check(s) {', '.join(map(repr, unknown))}")
    identity_ids = list(dict.fromkeys(c for c in grid.check_ids if c in IDENTITY_CHECKS))
    property_ids = [c for c in grid.check_ids if c not in IDENTITY_CHECKS]
    with _identity_pool(len(identity_ids), bool(property_ids)) as pool:
        # check id -> a call giving its records, run here or read from a worker
        identity = {
            c: functools.partial(_identity_records, c, grid) if pool is None
            else pool.submit(_identity_records, c, grid).result
            for c in identity_ids
        }
        properties = _property_records(property_ids, grid)
        records = [
            rec
            for check_id in grid.check_ids
            for rec in (properties[check_id] if check_id in properties else identity[check_id]())
        ]
    if not records:
        raise ConfigError(
            f"the grid yields no records (checkIds {list(grid.check_ids)}); "
            "name at least one check and give each of its axes a value"
        )
    return records


def summarize(records: Iterable[VerificationRecord]) -> dict:
    counts = {"total": 0, "pass": 0, "fail": 0, "skipped": 0, "error": 0}
    key = {
        Status.PASS: "pass",
        Status.FAIL: "fail",
        Status.SKIPPED: "skipped",
        Status.ERROR: "error",
    }
    for rec in records:
        counts["total"] += 1
        counts[key[rec.status]] += 1
    return counts


def identity_check_ids() -> list[str]:
    """The identity checks, without the harness self-test."""
    return [c for c in IDENTITY_CHECKS if c != SELFTEST_ID]


def property_check_ids() -> list[str]:
    return list(PROPERTY_CHECKS)
