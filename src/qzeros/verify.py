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
import inspect
import itertools
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

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
from .qcore import RationalLike, _json_text, as_q, bounded_count, clip, neg_q_power, qpoch_finite, rat, rat_str
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


# Each config key and the GridSpec field it fills, in the schema's order.
_CONFIG_KEYS = {
    "qValues": "q_values", "nValues": "n_values", "aValues": "a_values", "bValues": "b_values",
    "tValues": "t_values", "eps": "eps", "checkIds": "check_ids",
}
_COUNTS = ("nValues", "n", "k", "coeff_index")


def _parse(key: str, value):
    """One raw grid or point value for ``key``: a count for nValues, n, k and
    coeff_index, q in (0, 1) for qValues and q, a string for checkIds and a
    rational otherwise, > 0 for eps; a one-line QZerosError naming ``key``."""
    if key in _COUNTS:
        return bounded_count(value, key)
    if isinstance(value, bool):  # JSON true/false, which rat() would read as 1/0
        raise ConfigError(f"{key}: cannot parse {clip(repr(value))} (a boolean is not a value)")
    parse = as_q if key in ("qValues", "q") else str if key == "checkIds" else rat
    try:
        parsed = parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: cannot parse {clip(repr(value))} ({clip(str(exc))})") from exc
    if key == "eps" and parsed <= 0:
        raise InvalidParameterError(f"eps must be > 0, got {rat_str(parsed)}")
    return parsed


@dataclass
class GridSpec:
    """Parameter grid consumed by the runner; mirrors the config file format
    and parses each value as its config key, so code and config fail alike."""

    q_values: list[Fraction]
    n_values: list[int]
    a_values: list[Fraction] = field(default_factory=list)
    b_values: list[Fraction] = field(default_factory=list)
    t_values: list[Fraction] = field(default_factory=list)
    eps: Fraction = _GRID_EPS
    check_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        for key, name in _CONFIG_KEYS.items():
            raw = getattr(self, name)
            if key != "eps" and (isinstance(raw, (str, bytes, Mapping)) or not isinstance(raw, Iterable)):
                raise ConfigError(f"{key} must be a list, got {type(raw).__name__}")
            setattr(self, name, _parse(key, raw) if key == "eps" else [_parse(key, v) for v in raw])

    @classmethod
    def from_json(cls, doc: Mapping) -> "GridSpec":
        """The grid of a config document; ConfigError unless it is an object of known keys."""
        if not isinstance(doc, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {', '.join(unknown)}; allowed keys: {', '.join(_CONFIG_KEYS)}"
            )
        fields = {"q_values": [], "n_values": []}
        fields.update((name, doc[key]) for key, name in _CONFIG_KEYS.items() if key in doc)
        return cls(**fields)


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


# The work of one property slice of a run_checks call, its property checks
# at one q value: root sets, little q-Jacobi builds and orthogonality
# tables, each under a key of what determines it.  A polynomial hashes and
# compares as its integer vector and denominator.
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
    """A registry entry: the function it runs and the grid points it runs at,
    by default the grid axes the function takes (see :func:`_axis_points`),
    with k = 1..n when it takes k (see :func:`_k_points`)."""

    fn: Callable  # (**point) -> (Status, witness | None); raises _Skip off-regime
    points: Callable | None = None  # GridSpec -> list[dict]

    def __post_init__(self):
        if self.points is None:
            takes_k = "k" in inspect.signature(self.fn).parameters
            object.__setattr__(self, "points", (_k_points if takes_k else _axis_points)(self.fn))


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


def _axis_points(fn: Callable, leave_out: str | None = None) -> Callable:
    """The cross product of the grid axes ``fn`` takes, in its parameter order (q first)."""
    axes = [x for x in inspect.signature(fn).parameters if x != leave_out]

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


def _k_points(fn: Callable) -> Callable:
    """The points of the grid axes ``fn`` takes besides k, each repeated with
    k = 1..n."""
    axis_points = _axis_points(fn, leave_out="k")
    return lambda grid: [{**pt, "k": k} for pt in axis_points(grid) for k in range(1, pt["n"] + 1)]


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
        return build_qhyper(HyperSpec(n=n, upper=upper, lower=lower, q=q))
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


def _exact(sides: Callable) -> _Check:
    """An identity check: ``sides`` builds (label, lhs, rhs) comparisons and
    a witness for a Pass; every comparison must hold coefficient by
    coefficient."""

    @functools.wraps(sides)  # so the points and check_identity read the keys sides takes
    def fn(**point):
        comparisons, extra = sides(**point)
        status, witness = _compare_sides(comparisons)
        return status, extra if status is Status.PASS else witness

    return _Check(fn)


SELFTEST_ID = "harness-selftest"
_SELFTEST_POINT = {"q": Fraction(1, 2), "n": 2, "a": Fraction(1, 3), "b": Fraction(-1)}


def _selftest(
    q=_SELFTEST_POINT["q"], n=_SELFTEST_POINT["n"], a=_SELFTEST_POINT["a"], b=_SELFTEST_POINT["b"],
    coeff_index=1,
):
    """Add x^i to the first right-hand side of a known-true identity,
    contig-4, at (q, n, a, b), and expect a Fail whose witness names exactly
    index i.  A key not given takes its value at the default point."""

    @functools.wraps(_identity_contig4)
    def corrupted(**pt):
        ((label, lhs, rhs), *rest), extra = _identity_contig4(**pt)
        bump = PolyExact([Fraction(0)] * coeff_index + [Fraction(1)])
        return [(label, lhs, rhs + bump), *rest], extra

    inner = _record("contig-4", _exact(corrupted), {"q": q, "n": n, "a": a, "b": b})
    ok = inner.status is Status.FAIL and inner.witness["coeff_index"] == coeff_index
    return Status.PASS if ok else Status.FAIL, {
        "corrupted_index": coeff_index,
        "inner_status": inner.status.value,
        "inner_witness": inner.witness,
    }


IDENTITY_CHECKS: dict[str, _Check] = {
    "contig-1": _exact(_identity_contig1),
    "contig-2": _exact(_identity_contig2),
    "contig-3": _exact(_identity_contig3),
    "contig-4": _exact(_identity_contig4),
    "contig-3-shifted": _exact(_identity_contig3_shifted),
    "qderiv-jacobi": _exact(_identity_qderiv_jacobi),
    "qderiv-hyper": _exact(_identity_qderiv_hyper),
    "recip-1": _exact(_identity_recip1),
    "recip-2": _exact(_identity_recip2),
    "recip-3": _exact(_identity_recip3),
    "factor-bneg": _exact(_identity_factor_bneg),
    "factor-anorm": _exact(_identity_factor_anorm),
    "qdiff-bessel": _exact(_identity_qdiff_bessel),
    "bessel-limit": _Check(_identity_bessel_limit),
    "sw-limit": _Check(_identity_sw_limit),
    SELFTEST_ID: _Check(_selftest, lambda grid: [dict(_SELFTEST_POINT)]),
}


def check_identity(check_id: str, params: Mapping[str, object]) -> VerificationRecord:
    """Run one identity at one parameter point (the limit checks read eps,
    default 10^-6).  A point that lacks a key the check needs, or has one it
    does not take, raises :class:`ConfigError` naming them.  Each value is
    parsed as a grid's is, so a malformed one raises, as it would in a
    config."""
    check = IDENTITY_CHECKS.get(check_id)
    if check is None:
        raise RegistryError(f"unknown identity check {check_id!r}")
    takes = inspect.signature(check.fn).parameters
    missing = [k for k, p in takes.items() if p.default is p.empty and k not in params]
    unknown = [k for k in params if k not in takes]
    if missing or unknown:
        problems = [f"{what} {', '.join(map(repr, keys))}"
                    for what, keys in (("lacks", missing), ("does not take", unknown)) if keys]
        raise ConfigError(clip(f"{check_id} {' and '.join(problems)} (it takes {', '.join(takes)})", 200))
    point = {k: _parse(k, v) for k, v in params.items()}
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


def _interlacing(pair: Callable, weak_ok: bool = False) -> _Check:
    """An interlacing check: ``pair`` tests its regime and builds (p, r); the
    check takes the keys ``pair`` takes."""
    return _Check(functools.wraps(pair)(lambda **point: _interlaces(pair(**point), weak_ok)))


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
    "thmA-1": _interlacing(_thmA_1),
    "thmA-2": _interlacing(_thmA_2),
    "thmA-3": _interlacing(_thmA_3),
    "thm1-monotone-a": _Check(_thm1_monotone, _pair_points("a")),
    "thm1-monotone-b": _Check(_thm1_monotone, _pair_points("b")),
    "thm2-lmesh": _Check(_prop_thm2_lmesh),
    "thm2-i": _interlacing(_thm2_i),
    "thm2-ii": _interlacing(_thm2_ii),
    "thm2-iii": _interlacing(_thm2_iii),
    "cor-i": _interlacing(_cor_i),
    "cor-ii": _interlacing(_cor_ii),
    "bessel-lmesh": _Check(_prop_bessel_lmesh),
    "bessel-interlace": _interlacing(_bessel_pair, weak_ok=True),
    "qlag-lmesh": _Check(_prop_qlag_lmesh),
    "qlag-interlace": _interlacing(_qlag_pair),
    "sw-lmesh": _Check(_prop_sw_lmesh),
    "phi21-mono-1": _interlacing(_phi21_mono1),
    "phi21-mono-2": _interlacing(_phi21_mono2),
    "orthogonality": _Check(_prop_orthogonality, _orthogonality_points),
    **{
        f"table1-row-{r}": _Check(
            functools.partial(_table_row, row), functools.partial(_table_row_points, row)
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


class _Entry(NamedTuple):
    """One record as the report holds it: its status, which
    :func:`summarize` counts, and its JSON text nested at four spaces."""

    status: Status
    text: str


def _encode(records: list[VerificationRecord]) -> list[_Entry]:
    """Each record as a report entry."""
    return [_Entry(rec.status, _json_text(rec.to_json(), "    ")) for rec in records]


def _identity_records(check_id: str, grid: GridSpec, finish: Callable) -> list:
    """One identity check's records, passed through ``finish``.  Workers are
    sent this private name: it pickles by reference even while a tracer
    rebinds the public functions."""
    return finish(run_identity_on_grid(check_id, grid))


@contextlib.contextmanager
def _worker_pool(tasks: int):
    """A pool of forked workers for ``tasks`` tasks, or None to run them
    inline.

    The pool has one worker per task, up to the usable CPUs, and starts only
    when two workers would then run at once.  Forked workers inherit the
    registry and start without re-importing; fork is skipped in a process
    that already runs other threads.  A worker that dies raises
    :class:`WorkerError`, and every worker has ended when the block exits,
    on return and on raise alike.
    """
    workers = min(tasks, _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield None
        return
    import multiprocessing  # imported here only: `import qzeros` stays without them
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerError("a worker process running checks ended abruptly") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _property_records(check_ids: list[str], grid: GridSpec, finish: Callable) -> dict[str, list]:
    """Each property check's records, all computed under one memo that is
    dropped on return or raise, then passed through ``finish``."""
    records = {}
    token = _RUN_MEMO.set({})
    try:
        for check_id in check_ids:
            records[check_id] = check_property(check_id, grid)
    finally:
        _RUN_MEMO.reset(token)
    return {check_id: finish(recs) for check_id, recs in records.items()}


def run_checks(grid: GridSpec) -> list[VerificationRecord]:
    """Run every check named by the grid and return the records in the order
    the grid lists the checks, each check's in its own grid-point order.

    The work is a list of tasks: the property checks at one q value, one task
    per distinct entry of ``grid.q_values``, then each identity check, one
    task each.
    When more than one CPU is usable they run in forked worker processes,
    one worker per task up to the usable CPUs, the longest (the property
    slices) submitted first; otherwise they run here in that order.  This
    process only merges the records: a property check's are its slices' in
    ``q_values`` order, which is its grid-point order, since every points
    builder iterates q outermost.  The records, and so the report bytes, are
    the same either way.  A worker that dies raises :class:`WorkerError`; an
    exception a check raises in a worker is raised here with its own type.

    Each property slice runs under its own memo: each distinct polynomial is
    isolated once, and each little q-Jacobi polynomial built once (a
    :func:`_phi` build is rarely repeated and not kept); every decision
    narrows that root set in place (see :func:`_roots`), and the
    orthogonality bounds and lattice tables are computed once.  A q value
    listed twice is one slice, whose records are used at both places.  Every
    memo key is fixed by q, so one memo over the grid would add only the
    sharing of a polynomial built at two q values; on the pinned registry
    grid each such one has degree 0 or 1, whose root set is written down,
    so the slices isolate exactly what one memo would.  Identity checks run
    without a memo, since they isolate nothing and their builds would only
    hold memory.  A memo is dropped when its slice ends or raises.

    A grid that yields no record at all (no check ids, or value lists that
    leave every check without a point) raises :class:`ConfigError`: an
    empty report would read as a pass.
    """
    return _run(grid, list)


def _report_entries(grid: GridSpec) -> list[_Entry]:
    """:func:`run_checks`' records as report entries, each encoded by the
    task that computed it, in its worker when there is one: the process
    that writes the report only counts statuses and writes text."""
    return _run(grid, _encode)


def _run(grid: GridSpec, finish: Callable[[list[VerificationRecord]], list]) -> list:
    """The runner behind :func:`run_checks`: the tasks, their pool and the
    merge, with ``finish`` (a module-level function, which pickles by
    reference) applied to each check's records in the task that computed
    them."""
    unknown = [c for c in grid.check_ids if c not in IDENTITY_CHECKS and c not in PROPERTY_CHECKS]
    if unknown:
        raise RegistryError(f"unknown check(s) {', '.join(map(repr, unknown))}")
    identity_ids = list(dict.fromkeys(c for c in grid.check_ids if c in IDENTITY_CHECKS))
    property_ids = list(dict.fromkeys(c for c in grid.check_ids if c in PROPERTY_CHECKS))
    q_values = list(dict.fromkeys(grid.q_values)) if property_ids else []
    tasks = [(_property_records, property_ids, replace(grid, q_values=[q]), finish) for q in q_values]
    tasks += [(_identity_records, c, grid, finish) for c in identity_ids]
    with _worker_pool(len(tasks)) as pool:
        calls = [functools.partial(*task) if pool is None else pool.submit(*task).result for task in tasks]
        results = [call() for call in calls]
    parts = dict(zip(q_values, results))
    by_id = dict(zip(identity_ids, results[len(q_values):]))
    by_id.update({c: [rec for q in grid.q_values for rec in parts[q][c]] for c in property_ids})
    records = [rec for check_id in grid.check_ids for rec in by_id[check_id]]
    if not records:
        raise ConfigError(
            f"the grid yields no records (checkIds {list(grid.check_ids)}); "
            "name at least one check and give each of its axes a value"
        )
    return records


def summarize(records: Iterable[VerificationRecord]) -> dict:
    """Status counts of records, or of anything else with a ``status``."""
    counts = {"total": 0, "pass": 0, "fail": 0, "skipped": 0, "error": 0}
    for rec in records:
        counts["total"] += 1
        counts[rec.status.name.lower()] += 1
    return counts


def identity_check_ids() -> list[str]:
    """The identity checks, without the harness self-test."""
    return [c for c in IDENTITY_CHECKS if c != SELFTEST_ID]


def property_check_ids() -> list[str]:
    return list(PROPERTY_CHECKS)
