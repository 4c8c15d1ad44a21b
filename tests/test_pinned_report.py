"""The `verify` reports on the benchmark's pinned registry and identity grids
are byte-identical to the pinned references, and the registry lists its
check ids in pinned order.  The pinned relation decisions and the
high-degree `qzeros roots` calls match their references too.  The CLI's
JSON outputs have the bytes of ``json.dumps(..., indent=2)``, and the
report is written record by record, on stdout as in a --report file.

Every registry entry's points on the pinned grids fit its function's
parameters.  The grids, the pinned id lists, the reference digests and the
reference outcomes are read from ``bench/``; nothing there is written.
"""

import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from qzeros import GridSpec, Status, cli, identity_check_ids, property_check_ids, rat_str, summarize, verify
from qzeros.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _reference(name: str):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))


def _stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    return buf.getvalue()


def _assert_indent_2(out: str) -> None:
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _pinned_digest(name: str) -> str:
    return _reference(name)["sha256"]


@pytest.mark.parametrize("name, grid", [
    ("registry-grid", workloads.REGISTRY_GRID), ("identities", workloads.IDENTITY_GRID),
])
def test_inline_and_worker_runs_give_the_pinned_report(name, grid, tmp_path, capsys, monkeypatch, pools):
    """The CLI report of checks run inline (one CPU) and of checks run in
    forked workers (two CPUs) each has the pinned bytes, so both paths give
    the same records; without --report, stdout gets the same bytes and a
    newline."""
    config, report = tmp_path / f"{name}.json", tmp_path / "report.json"
    config.write_text(json.dumps(grid), encoding="utf-8")
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        main(["verify", "--config", str(config), "--report", str(report)])
        data = report.read_bytes()
        assert hashlib.sha256(data).hexdigest() == _pinned_digest(name)
        capsys.readouterr()
        main(["verify", "--config", str(config)])
        assert capsys.readouterr().out.encode() == data + b"\n"
    assert [pool is None for pool in pools] == [True, True, False, False]


def test_registry_order_matches_pinned_ids():
    pinned = workloads.IDENTITY_IDS + workloads.PROPERTY_IDS
    assert identity_check_ids() + property_check_ids() == pinned


def _drift(checks: dict, grids: list[GridSpec]) -> list[str]:
    """The entries of which some point on some grid holds a key the entry's
    function does not take, or lacks one the function needs (has no default
    for), each with the first such point's keys."""
    problems = []
    for check_id, check in checks.items():
        takes = inspect.signature(check.fn).parameters
        needs = {k for k, p in takes.items() if p.default is p.empty}
        for point in (point for grid in grids for point in check.points(grid)):
            unknown, missing = sorted(point.keys() - takes.keys()), sorted(needs - point.keys())
            if unknown or missing:
                problems.append(f"{check_id}: takes no {unknown}, lacks {missing}")
                break
    return problems


def test_registry_points_fit_their_functions():
    """Every point each registry entry yields on the pinned registry and
    identity grids holds only keys its function takes and every key it needs,
    and every entry yields points; an entry whose function lacks b while its
    points carry b is caught."""
    grids = [GridSpec.from_json(workloads.REGISTRY_GRID), GridSpec.from_json(workloads.IDENTITY_GRID)]
    checks = {**verify.IDENTITY_CHECKS, **verify.PROPERTY_CHECKS}
    assert _drift(checks, grids) == []
    assert all(check.points(grids[0]) for check in checks.values())

    def without_b(q, n, a):
        return Status.PASS, None

    planted = verify._Check(without_b, verify._axis_points(verify._identity_contig1))
    assert _drift({**checks, "planted": planted}, grids) == ["planted: takes no ['b'], lacks []"]


def test_decisions_match_pinned_outcomes():
    draws = workloads.decide_draws(workloads.DECIDE_DEFAULT_SEED)
    assert workloads.decide_outcomes(draws) == _reference("decide-coarse")


def test_high_degree_roots_match_reference():
    reference = _reference("roots-highdeg")
    for n in workloads.ROOTS_DEGREES:
        for family in workloads.ROOTS_CASES:
            code, text = workloads.roots_call(family, n)
            assert code == 0, (family, n)
            ref = reference[workloads.roots_key(family, n)]
            problems = workloads.check_roots(json.loads(text), ref, workloads.ROOTS_EPS)
            assert problems == [], (family, n)
            _assert_indent_2(text)


def test_report_is_written_record_by_record(tmp_path):
    """Writing the registry-grid report from its entries in memory allocates
    at its peak less than a quarter of the report's size, and writes the
    pinned bytes: the text is never joined whole."""
    entries = verify._report_entries(GridSpec.from_json(workloads.REGISTRY_GRID))
    summary = summarize(entries)
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            cli._write_report(fh, entries, summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _pinned_digest("registry-grid")
    assert peak < len(data) / 4, (peak, len(data))


def test_lmesh_and_interlace_print_json_dumps_bytes():
    """`lmesh` and `interlace` (the thm2-i pair) on a spread of seeded
    decision draws, coincident zeros included, print what
    json.dumps(indent=2) prints, as `roots` does above."""
    draws = workloads.decide_draws(workloads.DECIDE_DEFAULT_SEED)[::17]
    assert {d.kind for d in draws} == {"regime", "coincide"}
    for d in draws:
        q, first = rat_str(d.q), ["--family", "little-q-jacobi", "--n", str(d.n),
                                  f"--a={rat_str(d.a)}", f"--b={rat_str(d.b)}"]
        _assert_indent_2(_stdout("lmesh", "--q", q, *first))
        _assert_indent_2(_stdout("interlace", "--q", q, *first, "--family2", "little-q-jacobi",
                                 "--n2", str(d.n - 1), f"--a2={rat_str(d.q * d.a)}",
                                 f"--b2={rat_str(d.q * d.b)}"))
