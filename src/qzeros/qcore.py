"""Exact q-factorial (q-Pochhammer) arithmetic over the rationals.

All scalars are ``fractions.Fraction``: arbitrary precision, always in
canonical reduced form, with exact arithmetic and an error on division by
zero.  Every base q satisfies 0 < q < 1; :func:`as_q` is the one check of
it, which the free functions and every q-taking constructor go through.

The module also holds the one JSON writer, :func:`_json_text`, beside
:func:`rat_str`: every JSON document the CLI prints and every ``verify``
report record goes through it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Union

from .errors import InvalidParameterError, InvalidToleranceError

RationalLike = Union[Fraction, int, str]


# Exponent-form literals ("1e-5000") are bounded: the value 10^e is built in
# full, and parsing "1e-10000000" alone takes seconds.
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")  # Fraction's own exponent grammar
# "p" and "p/q" literals are read in pieces, so every value rat_str prints
# reads back; each digit run is bounded like an exponent, with room for any
# value an exponent-form literal makes and a product of two of them.
MAX_DIGITS = 2 * MAX_EXPONENT
_PLAIN = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")
# Degrees and step counts from outside (--n, --k, table1 --n, sweep --steps,
# a grid's n values, a family's n and k) are bounded too: a huge one raises
# nothing, but builds a polynomial or a list of its size.
MAX_COUNT = 1000


def clip(text: str, width: int = 60) -> str:
    """``text`` for an error message: at most ``width`` characters of it,
    and its length when it is cut."""
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


def rat(value: RationalLike) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string.

    Strings in decimal or exponent form ("0.25", "1e-3") are read exactly.
    Any value it cannot read (malformed, a zero denominator, another type, an
    exponent beyond +-MAX_EXPONENT, a "p/q" digit run over MAX_DIGITS)
    raises InvalidParameterError, one line naming the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    reason = "expected an int, a Fraction or a string"
    if isinstance(value, str):
        value = value.strip()
        plain = _PLAIN.fullmatch(value)
        if plain and max(len(plain[2]), len(plain[3] or "")) > MAX_DIGITS:
            raise InvalidParameterError(f"{clip(repr(value))} has a digit run longer than {MAX_DIGITS}")
        exponent = None if plain else _EXPONENT.search(value)
        # bounded by its significant digits, so int() never meets one past its digit limit
        digits = exponent[1].lstrip("+-").replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InvalidParameterError(f"exponent of {clip(repr(value))} is outside +-{MAX_EXPONENT}")
        try:
            if not plain:
                return Fraction(value)
            sign, num, den = plain.groups()
            n = _from_digits(num)
            return Fraction(-n if sign == "-" else n, _from_digits(den) if den else 1)
        except (ValueError, ZeroDivisionError) as exc:  # a decimal past the int-from-str limit too
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else "expected p or p/q"
    raise InvalidParameterError(f"malformed rational {clip(repr(value))} ({reason})")


def bounded_count(value, what: str, least: int = 0) -> int:
    """``value`` as an int when it is an exact integer (an int, or a Fraction
    or string :func:`rat` reads as one; never a bool or a float) in
    least..MAX_COUNT, else InvalidParameterError."""
    try:
        r = None if isinstance(value, bool) else rat(value)
    except InvalidParameterError:
        r = None
    if r is None or r.denominator != 1:
        got = clip(repr(value) if r is None else rat_str(r))
        raise InvalidParameterError(f"{what} must be an integer in {least}..{MAX_COUNT}, got {got}")
    if not least <= r <= MAX_COUNT:
        raise InvalidParameterError(f"{what} must be in {least}..{MAX_COUNT}, got {clip(rat_str(r))}")
    return r.numerator


def _from_digits(digits: str) -> int:
    """The integer of a decimal digit string, the inverse of :func:`_digits`:
    converted in pieces of at most 512 digits, below Python's int-from-str
    limit."""
    if len(digits) <= 512:
        return int(digits)
    k = len(digits) // 2
    return _from_digits(digits[:-k]) * 10**k + _from_digits(digits[-k:])


def _digits(n: int) -> str:
    """The decimal digits of an integer n >= 0.

    Python refuses int-to-str conversions past a digit limit (4300 by
    default, never below 640), so a large n is split by divmod with a power
    of ten and converted in pieces of at most 512 digits.
    """
    if n.bit_length() <= 1700:  # n < 2^1700 < 10^512
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits, as log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _digits(high) + _digits(low).zfill(k)


def rat_str(x: Fraction | int) -> str:
    """Render a rational as "p" or "p/q", at any size; round-trips through
    :func:`rat` up to MAX_DIGITS digits per run."""
    num = ("-" if x.numerator < 0 else "") + _digits(abs(x.numerator))
    return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"


def _append_json(value, indent: str, out: list[str]) -> None:
    """Append the text ``json.dumps(value, indent=2)`` gives for value, nested
    at ``indent``, to out.  Only dicts with str keys, lists, str, int, bool
    and None are written, since no output holds anything else; any other
    value raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))  # json's own ensure_ascii escape
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):  # after the bools, which are ints too
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _append_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _append_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, with nested lines starting at indent."""
    out: list[str] = []
    _append_json(value, indent, out)
    return "".join(out)


def as_q(q: RationalLike) -> Fraction:
    """q as a Fraction, when 0 < q < 1; else InvalidParameterError."""
    qq = rat(q)
    if not 0 < qq.numerator < qq.denominator:  # 0 < q < 1, on integers
        raise InvalidParameterError(f"q must satisfy 0 < q < 1, got {rat_str(qq)}")
    return qq


def neg_q_power(value: Fraction, q: Fraction) -> int | None:
    """The integer m >= 0 with value == q^-m, or None when there is none.

    With value = p/d and q = u/v, both in lowest terms, q^-m = v^m/u^m is in
    lowest terms too, so value == q^-m exactly when p = v^m and d = u^m: m
    is the number of times v divides p, in steps linear in p's bits.
    """
    p, d = value.numerator, value.denominator
    u, v = q.numerator, q.denominator
    m = 0
    while p > 1 and p % v == 0:
        p //= v
        m += 1
    return m if p == 1 and d == u**m else None


def qpoch_finite(a: RationalLike, q: RationalLike, k: int) -> Fraction:
    """The finite q-Pochhammer symbol (a;q)_k = prod_{j<k} (1 - a*q^j), exactly.

    k = 0 gives the empty product 1.  With a = a_n/a_d and q = u/v the
    product is prod_{j<k} (a_d v^j - a_n u^j) / (a_d^k v^(k(k-1)/2)): the
    numerator runs on integers and the result is reduced once.  A vanishing
    factor returns 0 at once.
    """
    if k < 0:
        raise ValueError(f"q-Pochhammer order must be >= 0, got {k}")
    av = rat(a)
    qv = as_q(q)
    a_num, a_den = av.numerator, av.denominator
    u, v = qv.numerator, qv.denominator
    num = 1
    upow = vpow = 1  # u^j, v^j
    for _ in range(k):
        factor = a_den * vpow - a_num * upow
        if not factor:
            return Fraction(0)
        num *= factor
        upow *= u
        vpow *= v
    return Fraction(num, a_den**k * v ** (k * (k - 1) // 2))


def _round_to_bits(x: Fraction, bits: int) -> Fraction:
    """x rounded toward zero to a dyadic of ``bits`` significant bits:
    |x - result| < |x| 2^-bits."""
    n, d = abs(x.numerator), x.denominator
    shift = n.bit_length() - d.bit_length() - bits - 1  # n / (d 2^shift) >= 2^bits
    sign = -1 if x < 0 else 1
    if shift >= 0:
        return Fraction(sign * (n // (d << shift)) << shift)
    return Fraction(sign * ((n << -shift) // d), 1 << -shift)


def qpoch_infinite(
    a: RationalLike, q: RationalLike, tol: RationalLike
) -> tuple[Fraction, Fraction]:
    """Truncated infinite product (a;q)_inf with a certified error bound.

    Returns (v, err) with |v - (a;q)_inf| <= err <= tol.  v is the partial
    product P_J = prod_{j<J} (1 - a q^j) with step j rounded toward zero to
    b + j significant bits, so v = P_J (1 + e) with |e| <= rho = 2^(2-b)
    (the relative errors sum below 2^(1-b)), and |v - P_J| <= r =
    |v| rho / (1 - rho).  Truncation stops at the first index J where the
    geometric tail S = |a| q^J / (1-q) drops below tol/2 and the rigorous
    bound err = (|v| + r) S/(1-S) + r is itself <= tol (the second condition
    only extends J when the partial product exceeds 1 in magnitude).  b
    starts at twice the bits of 1/tol plus 16, so rounding moves v far less
    than truncation does, and doubles, restarting the product, while r
    alone exceeds tol/4.  A factor that is exactly zero short-circuits to
    (0, 0).
    """
    av = rat(a)
    qv = as_q(q)
    tolv = rat(tol)
    if tolv <= 0:
        raise InvalidToleranceError(f"tolerance must be > 0, got {rat_str(tolv)}")
    if av == 0:
        return Fraction(1), Fraction(0)

    abs_a = abs(av)
    bits = 2 * (tolv.denominator // tolv.numerator).bit_length() + 16
    while True:
        rho = Fraction(4, 1 << bits)
        partial = Fraction(1)
        power = Fraction(1)  # q^j
        j = 0
        while True:
            tail = abs_a * power / (1 - qv)
            if tail < 1 and 2 * tail < tolv:
                rounding = abs(partial) * rho / (1 - rho)
                err = (abs(partial) + rounding) * tail / (1 - tail) + rounding
                if err <= tolv:
                    return partial, err
                if 4 * rounding > tolv:
                    break
            factor = 1 - av * power
            if factor == 0:
                return Fraction(0), Fraction(0)
            partial = _round_to_bits(partial * factor, bits + j)
            power *= qv
            j += 1
        bits *= 2
