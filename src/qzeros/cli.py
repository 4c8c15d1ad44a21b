"""Command-line interface: build, analyze, verify, sweep.

Rationals cross this boundary as exact "p/q" strings; decimals appear only
as display approximations, always next to a rational error bound.  Every
JSON document printed (``roots``, ``lmesh``, ``interlace``, the ``verify``
report) has the bytes of ``json.dumps(value, indent=2)``; ``_json_text``
(from ``qcore``) builds them.  The ``verify`` report's records arrive as
text, encoded where each check ran, and are written one by one, never
joined whole.  Exit status: 0 success (and all checks passed), 1 at least one
Fail or Error, 2 usage or configuration problem, argparse's included, with
one ``error:`` line.  argparse converts no value: the library reads them.

Only ``verify`` and ``table1`` import ``qzeros.verify`` (and with it
``qzeros.qcalc``), and only ``lmesh`` and ``interlace`` import
``qzeros.analysis``, when they run; the other commands never compile them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ConfigError, InvalidParameterError, QZerosError
from .families import Family, FamilyParams, build
from .qcore import _json_text, as_q, bounded_count, clip, rat, rat_str
from .roots import DEFAULT_EPS, RootSet, isolate_real_roots

if TYPE_CHECKING:
    from .verify import _Entry

_RATIONAL_OPTIONS = frozenset(
    f"--{name}" for name in ("a", "b", "a2", "b2", "q", "eps", "base", "start", "stop", "values")
)


def _write_report(fh, entries: list[_Entry], summary: dict) -> None:
    """Write the verify report as ``json.dumps({"records": [...], "summary":
    summary}, indent=2)`` would, from entries whose text is each record's
    JSON nested at four spaces (``verify._encode``), one entry at a time, so
    that the whole text is never joined."""
    fh.write('{\n  "records": [')
    sep = "\n    "
    for entry in entries:
        fh.write(sep + entry.text)
        sep = ",\n    "
    fh.write(("\n  ]" if entries else "]") + ',\n  "summary": ' + _json_text(summary, "  ") + "\n}")


def _check_output_path(option: str, path: str) -> None:
    """Refuse an output path that cannot be written, before any work runs."""
    if not path:
        raise QZerosError(f"{option}: the path is empty")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise QZerosError(f"{option}: {clip(repr(path))} is not in an existing directory")
    if os.path.isdir(path):
        raise QZerosError(f"{option}: {clip(repr(path))} is a directory")


def _parse_counts(text: str, option: str) -> list[int]:
    """A comma-separated list of counts in 0..MAX_COUNT, each read as a
    config's ``nValues`` entry is (``"6/2"`` is 3)."""
    return [bounded_count(v, f"{option} values") for v in text.split(",")]


def _shift10(x: Fraction, k: int) -> int:
    """floor(x * 10^k) for a rational x >= 0 and any integer k, by one
    integer division."""
    if k >= 0:
        return x.numerator * 10**k // x.denominator
    return x.numerator // (x.denominator * 10**-k)


def decimal_str(x: Fraction, digits: int = 30) -> str:
    """Exact decimal expansion of x truncated to ``digits`` fractional digits.

    Trailing zeros are dropped only when the expansion ends within them.
    """
    sign = "-" if x < 0 else ""
    whole, rest = divmod(abs(x.numerator), x.denominator)
    frac, left = divmod(rest * 10**digits, x.denominator)
    frac_digits = rat_str(frac).zfill(digits)[:digits]  # empty when digits is 0
    if not left:
        frac_digits = frac_digits.rstrip("0")
    return f"{sign}{rat_str(whole)}.{frac_digits}" if frac_digits else f"{sign}{rat_str(whole)}"


def sci_str(x: Fraction) -> str:
    """Short scientific rendering of a nonnegative rational bound."""
    if x == 0:
        return "0"
    # 10^exp <= x < 10^(exp+1) exactly when 100 <= floor(x * 10^(2-exp)) < 1000;
    # log10(2) = 0.30103 and the bit lengths place exp within a step or two of that
    exp = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    mant = _shift10(x, 2 - exp)
    while not 100 <= mant < 1000:
        exp += 1 if mant >= 1000 else -1
        mant = _shift10(x, 2 - exp)
    return f"{mant / 100:.2f}e{exp:+03d}".replace(".00e", "e")


def _family_params(args, suffix: str = "") -> FamilyParams:
    """The family options ending in ``suffix``, with --q, as the text
    FamilyParams reads (argparse's choices read the family name)."""
    fam = Family(getattr(args, "family" + suffix))
    return FamilyParams(fam, q=args.q, **{f: getattr(args, f + suffix) for f in ("n", "a", "b", "k")})


def _root_json(rs: RootSet) -> dict:
    roots = []
    for e in rs.roots:
        mid = (e.lo + e.hi) / 2
        roots.append(
            {
                "interval": [rat_str(e.lo), rat_str(e.hi)],
                "multiplicity": e.multiplicity,
                "exact": None if e.exact is None else rat_str(e.exact),
                "approx": decimal_str(mid, 32),
                "errorBound": sci_str(e.width / 2),
            }
        )
    return {
        "roots": roots,
        "totalCount": rs.total_count,
        "certifiedRealRooted": rs.certified_real_rooted,
    }


def _cmd_coeffs(args) -> int:
    poly = build(_family_params(args))
    print(", ".join(rat_str(c) for c in poly.coeffs))
    return 0


def _cmd_roots(args) -> int:
    poly = build(_family_params(args))
    rs = isolate_real_roots(poly, DEFAULT_EPS if args.eps is None else args.eps)
    print(_json_text(_root_json(rs)))
    return 0


def _cmd_lmesh(args) -> int:
    params = _family_params(args)
    # checked first, so a bad base ends the command before any build or isolation
    base = rat(args.base) if args.base is not None else params.q
    if not 0 < base < 1:
        raise InvalidParameterError(f"--base must satisfy 0 < base < 1, got {rat_str(base)}")
    rs = isolate_real_roots(build(params))
    from . import analysis

    result = analysis.lmesh(rs, base)
    cmp_word = {-1: "below", 0: "equal", 1: "above"}[result.compare_to_q()]
    print(
        _json_text(
            {
                "valueLo": rat_str(result.value_lo),
                "valueHi": rat_str(result.value_hi),
                "approx": decimal_str((result.value_lo + result.value_hi) / 2, 20),
                "argmaxIndex": result.argmax_index,
                "exactEqualsBase": result.exact_equals_q,
                "base": rat_str(base),
                "comparison": cmp_word,
            }
        )
    )
    return 0


def _cmd_interlace(args) -> int:
    # the relation is exact at any interval width, so isolate to separation only
    first = _family_params(args)
    try:
        second = _family_params(args, suffix="2")
    except InvalidParameterError as exc:  # FamilyParams names the field, so name the polynomial
        raise InvalidParameterError(f"second polynomial (--family2, --n2, ...): {exc}") from exc
    rs1, rs2 = (isolate_real_roots(build(p), None) for p in (first, second))
    from . import analysis

    report = analysis.interlace(rs1, rs2)
    print(
        _json_text(
            {
                "relation": report.relation.value,
                "degreePattern": None
                if report.degree_pattern is None
                else report.degree_pattern.value,
                "witness": report.witness,
            }
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    # checked before any check runs, so a long run cannot end on a bad path
    if args.report is not None:
        _check_output_path("--report", args.report)
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("config nests too deeply to parse") from exc
        except ValueError as exc:  # malformed JSON, or an integer past the int-from-str limit
            raise QZerosError(f"config is not valid JSON: {exc}") from exc
    grid = verify_mod.GridSpec.from_json(doc)
    entries = verify_mod._report_entries(grid)
    summary = verify_mod.summarize(entries)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            _write_report(fh, entries, summary)
    else:
        _write_report(sys.stdout, entries, summary)
        print()
    print(
        f"total={summary['total']} pass={summary['pass']} fail={summary['fail']} "
        f"skipped={summary['skipped']} error={summary['error']}",
        file=sys.stderr,
    )
    return 1 if summary["fail"] or summary["error"] else 0


def _cmd_sweep(args) -> int:
    import csv

    # checked before anything is built, as verify checks --report
    if args.out is not None:
        _check_output_path("--out", args.out)
    steps = None if args.steps is None else bounded_count(args.steps, "--steps", least=1)
    if args.values is not None:
        values = [rat(v) for v in args.values.split(",")]
    elif args.start is not None and args.stop is not None and steps is not None:
        lo, hi = rat(args.start), rat(args.stop)
        values = [lo + (hi - lo) * Fraction(i, steps - 1) for i in range(steps)] if steps > 1 else [lo]
    else:
        raise QZerosError("sweep needs --values or --start/--stop/--steps")
    if args.vary not in ("a", "b"):
        raise QZerosError("--vary must be a or b")

    params = _family_params(args)
    rows = []
    width = 0
    for v in values:
        rs = isolate_real_roots(build(replace(params, **{args.vary: v})))
        cells = [rat_str(v)]
        for e in rs.lambdas():
            mid = (e.lo + e.hi) / 2
            cells.append(f"{decimal_str(mid, 30)}±{sci_str(e.width / 2)}")
        width = max(width, len(cells) - 1)
        rows.append(cells)

    out = sys.stdout if args.out is None else open(args.out, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow([args.vary] + [f"lambda_{k+1}" for k in range(width)])
        for cells in rows:
            writer.writerow(cells + [""] * (width - (len(cells) - 1)))
    finally:
        if args.out is not None:
            out.close()
    return 0


def _cmd_table1(args) -> int:
    from . import verify as verify_mod

    samples = None if args.samples is None else bounded_count(args.samples, "--samples", least=1)
    rows = _parse_counts(args.rows, "--rows") if args.rows is not None else list(range(1, 11))
    for r in rows:
        if r not in verify_mod.TABLE1_ROWS:
            raise QZerosError(f"table rows are 1..10, got {r}")
    q_values = (
        [as_q(v) for v in args.q.split(",")]
        if args.q is not None
        else [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    )
    n_values = _parse_counts(args.n, "--n") if args.n is not None else [2, 3, 4, 5]
    grid = verify_mod.GridSpec(q_values=q_values, n_values=n_values)
    runs = []
    for r in rows:
        check_id = f"table1-row-{r}"
        records = verify_mod.check_property(check_id, grid)
        if not records:
            # as in run_checks: an empty row would read as a pass
            raise ConfigError(f"{check_id} yields no records for --q and --n given")
        runs.append((check_id, records[:samples]))
    failed = False
    for check_id, records in runs:
        summary = verify_mod.summarize(records)
        print(
            f"{check_id}: pass={summary['pass']} fail={summary['fail']} "
            f"skipped={summary['skipped']} error={summary['error']}"
        )
        failed = failed or summary["fail"] or summary["error"]
    return 1 if failed else 0


def _add_family_args(sub, suffix: str = ""):
    sub.add_argument("--family" + suffix, required=True, choices=[f.value for f in Family],
                     metavar="FAMILY" + suffix, help="family name, e.g. little-q-jacobi")
    sub.add_argument("--n" + suffix, required=True)
    sub.add_argument("--a" + suffix)
    sub.add_argument("--b" + suffix)
    sub.add_argument("--k" + suffix)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a refusal ends in main's one error line, as every other does
        raise QZerosError(message)


@functools.cache  # parse_args leaves the parser as it was, so one build serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qzeros",
        description="Exact q-hypergeometric polynomial families with certified zero analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="print exact coefficients, constant term first")
    _add_family_args(p)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_coeffs)

    p = subs.add_parser("roots", help="certified real-root isolation (JSON)")
    _add_family_args(p)
    p.add_argument("--q", required=True)
    p.add_argument("--eps", help="isolation interval width, rational (default 2^-100)")
    p.set_defaults(fn=_cmd_roots)

    p = subs.add_parser("lmesh", help="logarithmic-mesh enclosure and comparison (JSON)")
    _add_family_args(p)
    p.add_argument("--q", required=True)
    p.add_argument("--base", help="compare lmesh against this rational (default: q)")
    p.set_defaults(fn=_cmd_lmesh)

    p = subs.add_parser("interlace", help="interlacing relation of two family polynomials (JSON)")
    _add_family_args(p)
    _add_family_args(p, suffix="2")
    p.add_argument("--q", required=True, help="shared base q")
    p.set_defaults(fn=_cmd_interlace)

    p = subs.add_parser("verify", help="run a check grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--report", help="write the JSON report here (default: stdout)")
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("sweep", help="trace each zero against one varying parameter (CSV)")
    _add_family_args(p)
    p.add_argument("--q", required=True)
    p.add_argument("--vary", required=True, help="a or b")
    p.add_argument("--values", help="comma-separated rationals")
    p.add_argument("--start")
    p.add_argument("--stop")
    p.add_argument("--steps")
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = subs.add_parser("table1", help="run the root-location table rows")
    p.add_argument("--rows", help="comma-separated row numbers 1..10 (default: all)")
    p.add_argument("--samples", help="cap the number of samples per row")
    p.add_argument("--q", help="comma-separated q values (default: 1/4,1/2,3/4)")
    p.add_argument("--n", help="comma-separated degrees (default: 2,3,4,5)")
    p.set_defaults(fn=_cmd_table1)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--b -1/2`` as ``--b=-1/2`` after every rational option.

    argparse takes a token that starts with '-' for an option unless it reads
    as a negative integer or decimal, so a negative p/q would leave the
    option without its value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and re.match(r"-[0-9.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except (QZerosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
