"""The `verify` reports on the benchmark's pinned registry and identity grids
are byte-identical to the pinned references, and the registry lists its
check ids in pinned order.  The pinned relation decisions and the
high-degree `qzeros roots` calls match their references too.

The grids, the pinned id lists, the reference digests and the reference
outcomes are read from ``bench/``; nothing there is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qzeros import GridSpec, identity_check_ids, property_check_ids, run_checks, verify
from qzeros.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _report_digest(tmp_path, name: str, grid: dict) -> str:
    config = tmp_path / f"{name}.json"
    report = tmp_path / "report.json"
    config.write_text(json.dumps(grid), encoding="utf-8")
    main(["verify", "--config", str(config), "--report", str(report)])
    return hashlib.sha256(report.read_bytes()).hexdigest()


def _reference(name: str):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))


def _pinned_digest(name: str) -> str:
    return _reference(name)["sha256"]


def test_registry_grid_report_matches_pinned_digest(tmp_path, capsys):
    digest = _report_digest(tmp_path, "registry-grid", workloads.REGISTRY_GRID)
    capsys.readouterr()
    assert digest == _pinned_digest("registry-grid")


def test_identity_grid_report_matches_pinned_digest(tmp_path, capsys):
    digest = _report_digest(tmp_path, "identities", workloads.IDENTITY_GRID)
    capsys.readouterr()
    assert digest == _pinned_digest("identities")


@pytest.mark.parametrize("name, grid", [
    ("registry-grid", workloads.REGISTRY_GRID), ("identities", workloads.IDENTITY_GRID),
])
def test_inline_and_worker_runs_give_the_pinned_report(name, grid, tmp_path, capsys, monkeypatch, pools):
    """Identity checks run inline (one CPU) and in forked workers (two CPUs)
    give the same records, and each path writes the pinned report bytes."""
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        runs.append([r.to_json() for r in run_checks(GridSpec.from_json(grid))])
        assert _report_digest(tmp_path, name, grid) == _pinned_digest(name)
    capsys.readouterr()
    assert [pool is None for pool in pools] == [True, True, False, False]
    assert runs[0] == runs[1]


def test_registry_order_matches_pinned_ids():
    pinned = workloads.IDENTITY_IDS + workloads.PROPERTY_IDS
    assert identity_check_ids() + property_check_ids() == pinned


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
