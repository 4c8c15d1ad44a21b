"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload, a correct output checked against its reference gives no
failure, and the same output checked against a copy of the reference with
one value corrupted gives failed_frac > 0; a raised decision fails too.  It
also checks that the per-layer metric names in BENCHMARK.json are the ones
the traced run prints.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import copy
import gzip
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def verify_grid_cases(name: str):
    reference = json.loads((wl.REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    data = gzip.decompress((wl.REFERENCE_DIR / f"{name}.report.json.gz").read_bytes())
    records = json.loads(data)["records"]

    def check(ref, recs):
        attempted, failed, _, _ = wl.check_report(data, ref, lambda: recs)
        return failed / attempted

    corrupted_records = copy.deepcopy(records)
    corrupted_records[17]["status"] = "Pass" if records[17]["status"] != "Pass" else "Fail"
    corrupted_ref = {**reference, "sha256": "0" * 64}
    yield f"{name}: pinned report", check(reference, records), False
    yield f"{name}: corrupted pinned digest", check(corrupted_ref, records), True
    yield f"{name}: one corrupted reference record", check(corrupted_ref, corrupted_records), True


def roots_cases():
    reference = json.loads((wl.REFERENCE_DIR / "roots-highdeg.json").read_text(encoding="utf-8"))
    family, n = "little-q-jacobi", wl.ROOTS_DEGREES[0]
    rc, text = wl.roots_call(family, n)
    out = json.loads(text)
    ref = reference[wl.roots_key(family, n)]
    yield f"roots {family} n={n}: exit code", float(rc != 0), False
    yield f"roots {family} n={n}: reference", float(bool(wl.check_roots(out, ref, wl.ROOTS_EPS))), False
    for field, corrupt in (
        ("multiplicity", lambda r: r["roots"][0].update(multiplicity=2)),
        ("interval", lambda r: r["roots"][1].update(interval=["2", "3"])),
        ("certifiedRealRooted", lambda r: r.update(certifiedRealRooted=False)),
    ):
        bad = copy.deepcopy(ref)
        corrupt(bad)
        yield f"roots {family} n={n}: corrupted {field}", float(bool(wl.check_roots(out, bad, wl.ROOTS_EPS))), True


def decide_cases():
    workload = wl.DecideCoarse(wl.DECIDE_DEFAULT_SEED, BENCH)
    workload.draws = workload.draws[:2]
    outcomes = wl.decide_outcomes(workload.draws)

    def frac(w):
        attempted, failed, _ = w.check(outcomes)
        return failed / attempted

    yield "decide-coarse: pinned outcomes", frac(workload), False
    workload.pinned = copy.deepcopy(workload.pinned)
    workload.pinned[1]["lmesh"][0] = 1
    yield "decide-coarse: one corrupted pinned outcome", frac(workload), True
    other = wl.DecideCoarse(wl.DECIDE_DEFAULT_SEED + 1, BENCH)
    other.draws = other.draws[:2]
    decided = wl.decide_outcomes(other.draws)
    outcomes = decided
    yield "decide-coarse: cross-consistency on another seed", frac(other), False
    outcomes = copy.deepcopy(decided)
    outcomes[0]["class-strict"] = not outcomes[0]["class-strict"]
    yield "decide-coarse: inconsistent strict class", frac(other), True
    outcomes = copy.deepcopy(decided)
    outcomes[1]["lmesh"] = ["raised", "ValueError"]
    yield "decide-coarse: one raised decision", frac(other), True


def spec_cases():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    want = [(n, *spans.unit_of(n)) for n in spans.per_layer_names(wl.CHECK_IDS)]
    yield "BENCHMARK.json per_layer matches the traced metrics", float(per_layer != want), False


def main() -> int:
    ok = True
    for cases in (verify_grid_cases("registry-grid"), verify_grid_cases("identities"),
                  roots_cases(), decide_cases(), spec_cases()):
        for label, failed_frac, expect_failure in cases:
            good = (failed_frac > 0) == expect_failure
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {label}: failed_frac={failed_frac:.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
