"""Compare a parent and a change with identical benchmark code.

    python3 bench/compare.py --parent TREE --change TREE [--pairs 10]
                             [--workload NAME ...]

TREE is a checkout of a commit (it must hold src/qzeros).  Both sides run
this file's bench/run.py, pointed at their tree's src with --src, for
BENCHMARK.json's run_seconds.  For each workload it makes ``--pairs`` pairs
of runs, alternating which side runs first.  Every run uses run.py's default
seed: its decide-coarse outcomes are pinned, so every output is checked
against a reference and the pairs differ only by machine noise.  Per
workload and end-to-end metric it reports each side's median and quartiles
and a verdict, the first that applies:

  regression    the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json
  gain          the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range
  unresolved    the parent's own spread (IQR / median) exceeds the bound,
                and not every change run beats every parent run
  within bound  none of the above

A gain does not count when more operations fail on the change.  The exit
status is 1 when any row is a regression or unresolved, because no
regression is then established.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(tree: Path, workload: str, out: Path) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0", "--src", str(tree / "src"), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], bound: float, lower_better: bool,
            failed_parent: int, failed_change: int) -> tuple[str, dict]:
    sign = 1 if lower_better else -1
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    spread = (p_q3 - p_q1) / p_med
    worse_by = sign * (c_med - p_med) / p_med
    every_better = all(sign * c < sign * p for c in change for p in parent)
    stats = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "change_wins": wins, "pairs": len(parent),
        "parent_spread": spread, "change_worse_by": worse_by, "bound": bound,
    }
    if worse_by > bound:
        return "regression", stats
    if (wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1
            and failed_change <= failed_parent):
        return "gain", stats
    if spread > bound and not every_better:
        return "unresolved", stats
    return "within bound", stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for the 9/10-wins rule")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    out_dir = BENCH / "results" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}"
    out_dir.mkdir(parents=True)

    rows = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                res = run(tree, workload, out_dir / f"{workload}-{side}-{i}.json")
                runs[side].append(res)
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            word, stats = verdict(values["parent"], values["change"], metric["bound"],
                                  metric["better"] == "lower", failed["parent"], failed["change"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "verdict": word, "failed": failed, **stats})

    (out_dir / "summary.json").write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"{'workload':<15} {'metric':<13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<15} {r['metric']:<13} "
              f"{p['median']:>11.5g} [{p['q1']:.5g}, {p['q3']:.5g}] {r['unit']:<4}"
              f"{c['median']:>11.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {r['unit']:<4}"
              f"{r['change_wins']:>3}/{r['pairs']:<3} {r['verdict']}")
    print(f"runs and summary in {out_dir}")
    return 1 if any(r["verdict"] in ("regression", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
