"""Write the pinned references in bench/reference from the current source.

Run only when an output change is intended and reviewed:

    python3 bench/make_reference.py [--workload NAME ...]

The references are what every benchmark run checks its outputs against.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def verify_reference(name: str, config: dict, workdir: Path) -> None:
    config_path = workdir / f"{name}-config.json"
    report_path = workdir / f"{name}-report.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    wl.cli.main(["verify", "--config", str(config_path), "--report", str(report_path)])
    data = report_path.read_bytes()
    report = json.loads(data)
    _write_json(wl.REFERENCE_DIR / f"{name}.json", {
        "sha256": hashlib.sha256(data).hexdigest(),
        "records": len(report["records"]),
        "summary": report["summary"],
    })
    (wl.REFERENCE_DIR / f"{name}.report.json.gz").write_bytes(gzip.compress(data, 9, mtime=0))


def roots_reference() -> None:
    doc = {}
    for n in wl.ROOTS_DEGREES:
        for family in wl.ROOTS_CASES:
            rc, text = wl.roots_call(family, n)
            if rc != 0:
                raise SystemExit(f"roots {family} n={n} exited {rc}")
            out = json.loads(text)
            doc[wl.roots_key(family, n)] = {
                "totalCount": out["totalCount"],
                "certifiedRealRooted": out["certifiedRealRooted"],
                "roots": [
                    {k: r[k] for k in ("interval", "multiplicity", "exact")} for r in out["roots"]
                ],
            }
    _write_json(wl.REFERENCE_DIR / "roots-highdeg.json", doc)


def decide_reference() -> None:
    outcomes = wl.decide_outcomes(wl.decide_draws(wl.DECIDE_DEFAULT_SEED))
    for i, outcome in enumerate(outcomes):
        for label, reason in wl.consistency_problems(outcome):
            raise SystemExit(f"draw {i}: {label}: {reason}")
        for label, got in outcome.items():
            if isinstance(got, list) and got[:1] == ["raised"]:
                raise SystemExit(f"draw {i}: {label} raised {got[1]}")
    _write_json(wl.REFERENCE_DIR / "decide-coarse.json", outcomes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(wl.WORKLOADS))
    args = parser.parse_args()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    chosen = args.workload or list(wl.WORKLOADS)
    scratch = BENCH / "results"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in chosen:
            print(f"writing the {name} reference", file=sys.stderr)
            if name == "registry-grid":
                verify_reference(name, wl.REGISTRY_GRID, Path(tmp))
            elif name == "identities":
                verify_reference(name, wl.IDENTITY_GRID, Path(tmp))
            elif name == "roots-highdeg":
                roots_reference()
            else:
                decide_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
