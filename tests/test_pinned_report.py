"""The `verify` reports on the benchmark's pinned registry and identity grids
are byte-identical to the pinned references, and the registry lists its
check ids in pinned order.

The grid, the pinned id lists and the reference digest are read from
``bench/``; nothing there is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from qzeros import identity_check_ids, property_check_ids
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


def _pinned_digest(name: str) -> str:
    return json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))["sha256"]


def test_registry_grid_report_matches_pinned_digest(tmp_path, capsys):
    digest = _report_digest(tmp_path, "registry-grid", workloads.REGISTRY_GRID)
    capsys.readouterr()
    assert digest == _pinned_digest("registry-grid")


def test_identity_grid_report_matches_pinned_digest(tmp_path, capsys):
    digest = _report_digest(tmp_path, "identities", workloads.IDENTITY_GRID)
    capsys.readouterr()
    assert digest == _pinned_digest("identities")


def test_registry_order_matches_pinned_ids():
    pinned = workloads.IDENTITY_IDS + workloads.PROPERTY_IDS
    assert identity_check_ids() + property_check_ids() == pinned
