"""Command-line surface: grammar, exact rational I/O, report schema, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qzeros
from qzeros import cli, rat, rat_str
from qzeros import verify as verify_mod
from qzeros.cli import decimal_str, main, sci_str
from qzeros.qcore import MAX_COUNT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_exact_output(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--family", "little-q-jacobi", "--n", "1",
        "--q", "1/2", "--a", "1/2", "--b", "1/2",
    )
    assert code == 0
    assert out.strip() == "1, -5/4"


def test_roots_constant_polynomial(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--family", "q-bessel", "--n", "0", "--q", "1/2", "--b", "-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["roots"] == [] and doc["certifiedRealRooted"] is True


def test_roots_output_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--family", "q-laguerre", "--n", "2", "--q", "1/2", "--b", "1/2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["totalCount"] == 2
    for entry in doc["roots"]:
        lo, hi = (rat(s) for s in entry["interval"])
        assert lo <= hi
        if entry["exact"] is not None:
            assert lo <= rat(entry["exact"]) <= hi


def test_roots_at_a_tiny_eps_refine_by_qir(capsys, monkeypatch):
    """q-Bessel zeros at eps = 10^-2000: every width is below eps, in at most
    150 Horner evaluations for the three zeros (89 when written), where
    counted halving takes 19,922."""
    from qzeros import roots

    evaluations = []
    real = roots._value

    def counting(*args):
        evaluations.append(args[1])
        return real(*args)

    monkeypatch.setattr(roots, "_value", counting)
    code, out, _ = run_cli(
        capsys, "roots", "--family", "q-bessel", "--n", "3", "--q", "1/2", "--b=-1", "--eps", "1e-2000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["totalCount"] == 3 and doc["certifiedRealRooted"] is True
    for entry in doc["roots"]:
        lo, hi = (rat(s) for s in entry["interval"])
        assert 0 <= hi - lo < F(1, 10**2000)
    assert len(evaluations) <= 150, len(evaluations)


def test_lmesh_command(capsys):
    code, out, _ = run_cli(
        capsys, "lmesh", "--family", "stieltjes-wigert", "--n", "4", "--q", "1/2",
        "--base", "1/4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["comparison"] == "below"
    assert rat(doc["valueLo"]) <= rat(doc["valueHi"]) <= F(1, 4)


def test_interlace_command(capsys):
    code, out, _ = run_cli(
        capsys, "interlace", "--q", "1/2",
        "--family", "little-q-jacobi", "--n", "3", "--a", "1/2", "--b", "1/2",
        "--family2", "little-q-jacobi", "--n2", "2", "--a2", "1/4", "--b2", "1/4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "StrictInterlace"
    assert doc["degreePattern"] == "DegreeMinusOne"


def test_malformed_rational_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--family", "q-bessel", "--n", "1", "--q", "1/2", "--b", "x7"
    )
    assert code == 2 and "malformed rational" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--family", "nonesuch", "--n", "1", "--q", "1/2"
    )
    assert code == 2 and "unknown family" in err


def test_malformed_integer_inputs_exit_2(capsys):
    """Malformed or negative integer options end in one error line, exit 2."""
    for argv in (
        ("table1", "--rows", "abc"),
        ("table1", "--rows", "1", "--n", "2,-3"),
        ("coeffs", "--family", "q-bessel", "--n", "-2", "--q", "1/2", "--b", "-1"),
        ("table1", "--rows", "1", "--samples", "-1"),
        ("table1", "--rows", "1", "--samples", "0"),
        *(
            ("sweep", "--family", "little-q-jacobi", "--n", "2", "--q", "1/2", "--b", "1/2",
             "--vary", "a", "--start", "0", "--stop", "1", "--steps", steps)
            for steps in ("-3", "0")
        ),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("argv, word", [
    (("coeffs", "--family", "little-q-laguerre", "--n", "2", "--q", "1/2", "--a", "1/2",
      "--b", "7"), "b"),
    (("coeffs", "--family", "q-bessel", "--n", "2", "--q", "1/2", "--a", "1/2", "--b", "-1"), "a"),
    (("coeffs", "--family", "little-q-jacobi", "--n", "2", "--q", "1/2", "--a", "1/2",
      "--k", "1"), "k"),
    (("sweep", "--family", "stieltjes-wigert", "--n", "2", "--q", "1/2", "--vary", "a",
      "--values", "1/4,1/2"), "a"),
    (("interlace", "--family", "stieltjes-wigert", "--n", "2", "--family2", "q-laguerre",
      "--n2", "1", "--b2", "1/2", "--a2", "1/2", "--q", "1/2"), "a"),
])
def test_parameter_the_family_does_not_take_exits_2(capsys, argv, word):
    """A family option the family does not use is an error, not ignored."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert f"does not take parameter {word}" in err, argv


def test_counts_past_max_count_exit_2_before_building(tmp_path, capsys, monkeypatch):
    """Degrees, orders and step counts past MAX_COUNT end in one error line,
    exit 2, before any polynomial or grid is built."""

    def refuse(*args):
        raise AssertionError("built despite an out-of-range count")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(verify_mod, "check_property", refuse)
    monkeypatch.setattr(verify_mod, "run_checks", refuse)
    over = str(MAX_COUNT + 1)
    config = tmp_path / "config.json"
    grid = {"qValues": ["1/2"], "nValues": [2, 10**30], "checkIds": ["sw-lmesh"]}
    config.write_text(json.dumps(grid))
    for argv in (
        ("roots", "--family", "stieltjes-wigert", "--n", over, "--q", "1/2"),
        ("roots", "--family", "stieltjes-wigert", "--n", str(10**30), "--q", "1/2"),
        ("coeffs", "--family", "e-factor", "--n", "1", "--k", over, "--q", "1/2"),
        ("interlace", "--family", "stieltjes-wigert", "--n", "2", "--family2", "stieltjes-wigert",
         "--n2", over, "--q", "1/2"),
        ("table1", "--rows", "1", "--n", f"2,{over}"),
        ("sweep", "--family", "little-q-jacobi", "--n", "2", "--q", "1/2", "--b", "1/2",
         "--vary", "a", "--start", "0", "--stop", "1", "--steps", over),
        ("verify", "--config", str(config)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"..{MAX_COUNT}, got" in err, argv


def test_python_m_qzeros_runs_the_cli():
    src = str(Path(qzeros.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qzeros", "coeffs", "--family", "little-q-jacobi", "--n", "1",
         "--q", "1/2", "--a", "1/2", "--b", "1/2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1, -5/4"


def _fresh_cli(*argv, timeout=60):
    """``python -m qzeros argv`` in a new process."""
    src = str(Path(qzeros.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "qzeros", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_import_and_help_load_no_process_pool():
    """`import qzeros` and `python -m qzeros --help` import neither
    multiprocessing nor concurrent.futures: only a run that starts workers
    does, so start-up time does not pay for them."""
    src = str(Path(qzeros.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["-c", "import qzeros"], ["-m", "qzeros", "--help"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "qzeros.verify" in imported, argv
        assert not {m for m in imported if m.split(".")[0] in ("multiprocessing", "concurrent")}, argv


def test_one_parser_serves_every_call(capsys):
    """main builds its parser once per process; calls that reuse it, with
    different subcommands and a negative --b, print what fresh processes do."""
    calls = [
        ["roots", "--family", "little-q-jacobi", "--n", "3", "--q", "1/2", "--a", "1/2", "--b", "-1/2"],
        ["coeffs", "--family", "q-bessel", "--n", "2", "--q", "3/4", "--b", "-1"],
        ["lmesh", "--family", "stieltjes-wigert", "--n", "3", "--q", "1/2"],
    ]
    outputs = []
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        outputs.append(out)
    assert cli.build_parser() is cli.build_parser()
    for argv, out in zip(calls, outputs):
        proc = _fresh_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out, argv


def test_coeffs_at_a_huge_a_with_q_near_one_exits_promptly():
    """a = 10^30 at q = 9999/10000 is no power q^-m: neg_q_power decides it
    in a few divisions, where stepping by q took about 690,000 steps."""
    proc = _fresh_cli(
        "coeffs", "--family", "little-q-jacobi", "--n", "2", "--q", "9999/10000", "--a", "1e30", "--b", "0",
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1, ")


def test_out_of_range_q_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--family", "stieltjes-wigert", "--n", "1", "--q", "3/2"
    )
    assert code == 2


def test_out_of_range_lmesh_base_names_the_option(capsys):
    for base in ("2", "1", "0", "-1/2"):
        code, out, err = run_cli(
            capsys, "lmesh", "--family", "little-q-jacobi", "--n", "3", "--q", "1/2",
            "--a", "1/2", "--b", "1/2", "--base", base,
        )
        assert code == 2 and out == "", base
        assert err.startswith("error: --base ") and err.count("\n") == 1, err


def test_verify_report(tmp_path, capsys):
    config = {
        "qValues": ["1/2"],
        "nValues": [1, 2],
        "aValues": ["1/2"],
        "bValues": ["-1", "1/2"],
        "tValues": ["1/4", "5/8", "1"],
        "eps": "1/1000000",
        "checkIds": ["contig-4", "thm2-lmesh", "harness-selftest"],
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg), "--report", str(report_path))
    assert code == 0, err
    report = json.loads(report_path.read_text())
    assert set(report) == {"records", "summary"}
    summary = report["summary"]
    assert summary["total"] == len(report["records"])
    assert summary["fail"] == 0 and summary["error"] == 0
    # record count: contig-4 over (q,n,a,b) + thm2-lmesh same + one selftest
    assert summary["total"] == 4 + 4 + 1
    for rec in report["records"]:
        assert set(rec) == {"checkId", "params", "status", "witness"}
        if rec["status"] == "Fail":
            assert rec["witness"] is not None
    # determinism: a second run produces the identical report
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg), "--report", str(report_path))
    assert json.loads(report_path.read_text()) == report


def test_verify_exit_1_on_fail(tmp_path, capsys):
    config = {
        "qValues": ["1/2"],
        "nValues": [2],
        "bValues": ["-1"],
        "eps": "1/10**40" if False else "1/100000000000000000000000000000000000000",
        "checkIds": ["bessel-limit"],
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 1  # eps far below what m <= 20 can reach


def test_verify_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "JSON" in err
    code, _, _ = run_cli(capsys, "verify", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    for doc in (
        '{"qvalues": ["1/2"], "nValues": [2]}',  # unknown key
        '{"qValues": ["1/2"], "nValues": [-3]}',
        "[1, 2]",  # not an object
        '{"qValues": ["abc"], "nValues": [2]}',
        '{"qValues": [], "checkIds": ["thm2-lmesh"]}',  # no records
        '{"qValues": ["1/2"], "nValues": [2]}',  # no check ids
        # JSON booleans, which would otherwise read as 1 and 0
        '{"qValues": ["1/2"], "nValues": [true], "checkIds": ["sw-lmesh"]}',
        '{"qValues": ["1/2"], "nValues": [2], "aValues": [false], "bValues": ["1/2"], "checkIds": ["thm2-lmesh"]}',
        '{"qValues": ["1/2"], "nValues": [2], "aValues": ["1/2"], "bValues": [true], "checkIds": ["thm2-lmesh"]}',
        '{"qValues": ["1/2"], "nValues": [2], "tValues": [true], "checkIds": ["sw-lmesh"]}',
        '{"qValues": ["1/2"], "nValues": [2], "eps": true, "checkIds": ["sw-lmesh"]}',
        '{"qValues": [true], "nValues": [2], "checkIds": ["sw-lmesh"]}',
        "[" * 100000 + "]" * 100000,  # nests beyond the parser's recursion limit
    ):
        cfg.write_text(doc)
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, doc


def test_verify_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bytes.json"
    cfg.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and err.startswith("error: ") and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


def test_negative_rational_option_value(capsys):
    """A negative p/q may follow its option as the next token."""
    base = ["roots", "--family", "little-q-jacobi", "--n", "3", "--q", "1/2", "--a", "1/2"]
    code, spaced, _ = run_cli(capsys, *base, "--b", "-1/2")
    assert code == 0
    code, joined, _ = run_cli(capsys, *base, "--b=-1/2")
    assert code == 0 and spaced == joined


def test_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--family", "little-q-jacobi", "--n", "3", "--q", "1/2",
        "--b", "1/2", "--vary", "a", "--values", "1/4,1/2,3/4", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["a", "lambda_1", "lambda_2", "lambda_3"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert rat(row[0])  # the parameter column is an exact rational
        for cell in row[1:]:
            value, bound = cell.split("±")
            assert float(value) > 0 and float(bound.replace("e", "E")) >= 0


def test_sweep_monotone_zero_trace(tmp_path, capsys):
    """Zeros decrease as the first parameter grows, visible in the CSV."""
    out_file = tmp_path / "sweep.csv"
    run_cli(
        capsys, "sweep", "--family", "little-q-jacobi", "--n", "2", "--q", "1/2",
        "--b", "1/2", "--vary", "a", "--start", "1/8", "--stop", "7/8", "--steps", "4",
        "--out", str(out_file),
    )
    rows = list(csv.reader(io.StringIO(out_file.read_text())))[1:]
    first = [float(r[1].split("±")[0]) for r in rows]
    assert all(x > y for x, y in zip(first, first[1:]))


def test_table1_command(capsys):
    code, out, _ = run_cli(
        capsys, "table1", "--rows", "5,9", "--samples", "6", "--q", "1/2", "--n", "2,3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("table1-row-5: pass=")
    assert "fail=0" in lines[0] and "fail=0" in lines[1]


def test_table1_row_without_records_exits_2(capsys):
    """A row selection the grid leaves without records is an error, not a
    line of zero counts that exits 0."""
    code, out, err = run_cli(capsys, "table1", "--rows", "1", "--n", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: table1-row-1") and len(err.strip().splitlines()) == 1


def test_decimal_and_sci_rendering():
    assert decimal_str(F(1, 4), 6) == "0.25"
    assert decimal_str(F(-22, 7), 4).startswith("-3.1428")
    assert decimal_str(F(3), 4) == "3"
    assert sci_str(F(0)) == "0"
    assert sci_str(F(1, 2**100)).endswith("e-31")


def _decimal_str_by_digits(x, digits=30):
    """The digit-at-a-time Fraction expansion that ``decimal_str`` replaced."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole = x.numerator // x.denominator
    frac = x - whole
    out = []
    for _ in range(digits):
        if frac == 0:
            break
        frac *= 10
        d = frac.numerator // frac.denominator
        out.append(str(d))
        frac -= d
    return f"{sign}{rat_str(whole)}." + "".join(out) if out else f"{sign}{rat_str(whole)}"


def _sci_str_by_steps(x):
    """The step-by-ten Fraction loop that ``sci_str`` replaced."""
    if x == 0:
        return "0"
    exp = 0
    v = x
    while v < 1:
        v *= 10
        exp -= 1
    while v >= 10:
        v /= 10
        exp += 1
    mant = (v * 100).numerator // (v * 100).denominator
    return f"{mant / 100:.2f}e{exp:+03d}".replace(".00e", "e")


_SIGNED = st.integers(-(10**40), 10**40)
_RENDERED = st.one_of(
    st.just(F(0)),
    st.fractions(max_denominator=10**40),
    st.builds(lambda k, e: F(k, 10**e), _SIGNED.filter(bool), st.integers(0, 45)),  # near 30 digits
    # below 1e-30
    st.builds(lambda k, e: F(k, 10**e), st.integers(-999, 999).filter(bool), st.integers(31, 80)),
    st.builds(lambda k: F(k, 10**30), _SIGNED),  # exactly 30 fractional digits or fewer
    st.integers(10**29, 10**30 - 1).map(F),  # 30 integer digits
)


@given(
    x=_RENDERED,
    shift=st.sampled_from([0, 0, 4350, -4350]),
    digits=st.sampled_from([0, 1, 20, 30, 32, 45]),
)
@settings(max_examples=250, deadline=None)
def test_decimal_and_sci_rendering_match_the_digit_loops(x, shift, digits):
    """One integer division renders every value exactly as the loops did,
    also past 4300 digits (x times 10^shift; Hypothesis cannot print such a
    value, so it draws x and shift)."""
    x *= F(10) ** shift
    assert decimal_str(x, digits) == _decimal_str_by_digits(x, digits)
    assert sci_str(abs(x)) == _sci_str_by_steps(abs(x))


def _digits_by_chunks(n):
    """The decimal digits of n >= 0, 100 at a time: a second algorithm."""
    parts = []
    while n >= 10**100:
        n, r = divmod(n, 10**100)
        parts.append(f"{r:0100d}")
    return str(n) + "".join(reversed(parts))


def test_huge_rationals_print_exactly(capsys):
    """Coefficients past Python's 4300-digit int-to-str limit print in full."""
    code, out, err = run_cli(capsys, "coeffs", "--family", "stieltjes-wigert", "--n", "1", "--q", "1e-5000")
    assert code == 0 and not err
    expected = []
    for c in qzeros.stieltjes_wigert(1, F(1, 10**5000)).coeffs:
        text = ("-" if c < 0 else "") + _digits_by_chunks(abs(c.numerator))
        expected.append(text if c.denominator == 1 else f"{text}/{_digits_by_chunks(c.denominator)}")
    assert out.strip() == ", ".join(expected) and len(out) > 5000


def test_out_of_range_exponent_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "coeffs", "--family", "stieltjes-wigert", "--n", "1", "--q", "1e-10000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_verify_guard_message_prints_a_huge_value(tmp_path, capsys):
    """A regime guard names an offending value past the int-to-str digit limit
    exactly, in a Skipped record, instead of crashing."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"qValues": ["1/2"], "nValues": [2], "bValues": ["1e5000"], "checkIds": ["qlag-lmesh"]}
    ))
    code, out, _ = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["status"] == "SkippedOutOfRegime"
    assert record["witness"]["reason"] == f"needs 0 < b < 1 (b = 1{'0' * 5000})"


def test_sweep_reads_back_a_value_past_the_digit_limit(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "little-q-jacobi", "--n", "2", "--q", "1/2",
        "--a", "1/2", "--b", "1/2", "--vary", "b", "--values", "1e-6000,1/3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["b", "lambda_1", "lambda_2"]
    assert [row[0] for row in rows[1:]] == ["1/1" + "0" * 6000, "1/3"]


def test_verify_reads_back_a_report_value_past_the_digit_limit(tmp_path, capsys):
    """The 5001-digit parameter a report prints, fed back as a config value,
    runs and gives the same report."""
    config, first, second = tmp_path / "config.json", tmp_path / "first.json", tmp_path / "second.json"

    def verify(b, report):
        config.write_text(json.dumps(
            {"qValues": ["1/2"], "nValues": [2], "bValues": [b], "checkIds": ["qlag-lmesh"]}
        ))
        return main(["verify", "--config", str(config), "--report", str(report)])

    assert verify("1e-5000", first) == 0
    printed = json.loads(first.read_text())["records"][0]["params"]["b"]
    assert printed == "1/1" + "0" * 5000
    assert verify(printed, second) == 0
    capsys.readouterr()
    assert second.read_bytes() == first.read_bytes()


def test_long_malformed_inputs_exit_2_with_a_short_message(tmp_path, capsys):
    config = tmp_path / "config.json"
    cases = [
        '{"qValues": ["1/2"], "nValues": [1], "bValues": ["1/%s"]}' % ("3" * 30000),  # run past MAX_DIGITS
        '{"qValues": ["1/2"], "nValues": [%s]}' % ("1" * 5000),  # JSON integer past int-from-str limit
        '{"qValues": ["1/2"], "nValues": [1], "bValues": ["%s"]}' % ("1/2x" * 2000),  # malformed
        '{"qValues": ["1/2"], "nValues": ["-1%s"]}' % ("0" * 5000),  # a count past the digit limit
    ]
    for text in cases:
        config.write_text(text)
        code, _, err = run_cli(capsys, "verify", "--config", str(config))
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        assert len(err) < 400, err[:400]
    code, _, err = run_cli(capsys, "coeffs", "--family", "q-bessel", "--n", "1", "--q", "1/2", "--b", "x" * 5000)
    assert code == 2 and len(err) < 200
