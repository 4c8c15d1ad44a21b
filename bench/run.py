"""Run one qzeros benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]

A run repeats whole checked passes of the workload, closed loop, until the
next pass would end after ``--seconds``.  It makes at least two, so that the
fastest pass is a choice, unless one pass alone outlasts ``--seconds`` (a
registry-grid pass does); a traced run makes at least one untraced and one
traced pass.  With ``--trace 0`` it
reports the end-to-end metrics: setup_s (median of fresh processes that
start the interpreter, import qzeros and make the inputs, sampled before
every pass and at the end), wall_s (fastest
pass), item_p50_ms and item_tail_ms (over each item's fastest latency
across the passes) and peak_rss_mb.  The times are scaled to a reference
machine speed by a fixed calibration task timed around every pass (see
plain_run); the results file keeps the unscaled setup_s and wall_s too.
With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
bench/spans.py, including the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with the environment goes to
bench/results/ (or ``--out``).  ``--workload all`` runs every workload in
turn, each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
SETUP_REPEATS = 9
SETUP_PER_ROUND = 3
CALIBRATION_REPEATS = 10
# calibration_s() on the machine the benchmark was tuned on (a 2-vCPU Intel
# Xeon VM, Python 3.11) when it runs at full speed.  Times are reported at
# that speed.
CALIBRATION_REF_S = 0.0055
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qzeros benchmark")
    parser.add_argument("--workload", required=True, help="a name in bench/workloads.py's WORKLOADS, or all")
    parser.add_argument("--seed", type=int, default=1,
                        help="default 1, the seed whose decide-coarse outcomes are pinned")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the qzeros package (default: this checkout's src)")
    parser.add_argument("--out", type=Path, help="results file (default: under bench/results)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ----------------------------------------------------------------


def tail_percentile(items_per_pass: int) -> float:
    """The highest ladder percentile with at least ten items beyond it; 100
    (the slowest item) when there are too few items for any."""
    chosen = 100.0
    for p in TAIL_LADDER:
        if items_per_pass - math.ceil(p / 100 * items_per_pass) >= 10:
            chosen = p
    return chosen


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# -- environment ---------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def git_state(tree: Path) -> dict:
    """Commit and dirty flag of the tree, when it is a git work tree of its own."""
    if not (tree / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment(src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git": git_state(src.resolve().parent),
        "loadavg_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


# -- runs ----------------------------------------------------------------------


def setup_times(args, repeats: int) -> list[float]:
    """Wall time of fresh processes that only import qzeros and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(args.src), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_passes(passes_of_one_round, seconds: float, min_rounds: int) -> list:
    """Repeat rounds until the next one would end after ``seconds``, making
    at least ``min_rounds`` unless the first alone outlasts ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(passes_of_one_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds and (len(rounds) >= min_rounds or elapsed > seconds):
            return rounds


def _calibration_work() -> None:
    """A fixed task in the style of qzeros' inner loops that does not use
    qzeros: an exact rational sum and a small-integer interpreter loop."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i * i + 1)
    x = 0
    for i in range(60000):
        x += i * i % 7


def calibration_s() -> float:
    """The fastest of CALIBRATION_REPEATS runs of the calibration task: how
    fast the machine runs Python right now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    return min(times)


def plain_run(args, workload) -> tuple[list, dict, dict]:
    # On a shared machine other tenants can slow Python by up to 1.6x for
    # tens of seconds at a time, longer than a run.  So each pass's times are
    # scaled to CALIBRATION_REF_S by the calibration measured around that
    # pass, and set-up is sampled before every pass and scaled by the run's
    # median calibration.
    setups, cals = [], []

    def one_round():
        setups.extend(setup_times(args, SETUP_PER_ROUND))
        before = calibration_s()
        done = workload.run_pass()
        cals.append((before + calibration_s()) / 2)
        return done

    passes = run_passes(one_round, args.seconds, min_rounds=2)
    setups += setup_times(args, max(0, SETUP_REPEATS - len(setups)))
    scales = [CALIBRATION_REF_S / c for c in cals]
    # Short bursts only ever add time, so the fastest of repeated identical
    # passes is the steadiest estimate of the program's own time.  Every pass
    # issues the same items in the same order.
    items = [min(ms * k for ms, k in zip(col, scales)) for col in zip(*(p.item_ms for p in passes))]
    tail_p = tail_percentile(len(items))
    metrics = {
        "setup_s": statistics.median(setups) * CALIBRATION_REF_S / statistics.median(cals),
        "wall_s": min(p.wall_s * k for p, k in zip(passes, scales)),
        "item_p50_ms": statistics.median(items),
        "item_tail_ms": percentile(items, tail_p),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "calibration_s": cals,
        "unscaled": {"setup_s": statistics.median(setups), "wall_s": min(p.wall_s for p in passes)},
        "setup_samples_s": setups, "items": len(items), "tail_percentile": tail_p,
    }
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


def traced_run(args, workload) -> tuple[list, dict, dict]:
    import spans
    from workloads import CHECK_IDS

    tracers = []

    def one_round():
        plain = workload.run_pass()
        with spans.Tracer() as tracer:
            traced = workload.run_pass()
        tracers.append((tracer, traced))
        return plain, traced

    rounds = run_passes(one_round, args.seconds, min_rounds=1)
    passes = [p for pair in rounds for p in pair]
    for plain, traced in rounds:
        if plain.digest != traced.digest:
            traced.failed += 1
            traced.problems.append("traced report bytes differ from the untraced report")
    per_trace = [t.metrics(CHECK_IDS, p.statuses) for t, p in tracers]
    names = spans.per_layer_names(CHECK_IDS)
    metrics = {}
    for name in names[:-1]:
        metrics[name] = statistics.median(m[name] for m in per_trace)
    metrics["trace_overhead_frac"] = min(t.wall_s for _, t in rounds) / min(p.wall_s for p, _ in rounds) - 1
    spans_path = RESULTS / f"spans-{args.workload}-s{args.seed}.json.gz"
    tracers[-1][0].write_spans(spans_path)
    detail = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracers[-1][0].rec.start)}
    return passes, {n: (metrics[n], spans.unit_of(n)[0]) for n in names}, detail


def run_one(args) -> int:
    import workloads

    env = environment(args.src)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            passes, metrics, detail = traced_run(args, workload)
        else:
            passes, metrics, detail = plain_run(args, workload)
    env["loadavg_end"] = list(os.getloadavg())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [text for p in passes for text in p.problems][:10]
    out = args.out or RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [{"wall_s": p.wall_s, "items": len(p.item_ms), "attempted": p.attempted,
                    "failed": p.failed} for p in passes],
        **detail,
        "problems": problems,
    }, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed; results in {out}")
    for text in problems:
        print(f"  mismatch: {text}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:.6g} {unit}")
        print(f"  {'failed_frac':<14} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, in turn; one table of the results."""
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--src", str(args.src)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}")
            return 1
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    header = ["workload"] + [f"{m} ({u})" for m, u in END_TO_END.items()] + ["failed_frac"]
    print("  ".join(f"{h:>18}" for h in header))
    for name, res in rows:
        cells = [name] + [f"{res['metrics'][m]['value']:.6g}" for m in END_TO_END]
        cells.append(f"{res['failed'] / res['attempted']:.3g}")
        print("  ".join(f"{c:>18}" for c in cells))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(BENCH))
    try:
        import qzeros
    except ImportError as exc:
        print(f"error: cannot import qzeros from {args.src}: {exc}", file=sys.stderr)
        return 2
    if not Path(qzeros.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: qzeros was imported from {qzeros.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in [*workloads.WORKLOADS, "all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.setup_only:
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        return 0
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
