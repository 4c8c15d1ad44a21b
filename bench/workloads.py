"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs closed-loop passes over them
(one caller; each item is issued only after the previous one returns) and
checks every output of a pass against a pinned reference in
``bench/reference``.  Library calls go through module attributes
(``analysis.lmesh``, ``cli.main``, ...) so that a traced pass, which rebinds
those names, sees them.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from qzeros import analysis, cli, families, roots

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The registry order of the check ids at the commit that defined the
# benchmark.  Pinned here, not read from the registry, so that a check added
# later does not silently change what the grids measure.
IDENTITY_IDS = [
    "contig-1", "contig-2", "contig-3", "contig-4", "contig-3-shifted",
    "qderiv-jacobi", "qderiv-hyper", "recip-1", "recip-2", "recip-3",
    "factor-bneg", "factor-anorm", "qdiff-bessel", "bessel-limit", "sw-limit",
]
PROPERTY_IDS = [
    "thmA-1", "thmA-2", "thmA-3", "thm1-monotone-a", "thm1-monotone-b",
    "thm2-lmesh", "thm2-i", "thm2-ii", "thm2-iii", "cor-i", "cor-ii",
    "bessel-lmesh", "bessel-interlace", "qlag-lmesh", "qlag-interlace",
    "sw-lmesh", "phi21-mono-1", "phi21-mono-2", "orthogonality",
] + [f"table1-row-{r}" for r in range(1, 11)]
SELFTEST_ID = "harness-selftest"
CHECK_IDS = [SELFTEST_ID] + IDENTITY_IDS + PROPERTY_IDS

# The full-registry grid pinned in ROADMAP.md ("Baseline"); t is
# default_t_values(1/2) written out.
REGISTRY_GRID = {
    "qValues": ["1/2", "3/4"],
    "nValues": [1, 2, 3, 4, 5],
    "aValues": ["1/4", "1/2", "1"],
    "bValues": ["-2", "-1/2", "0", "1/2"],
    "tValues": ["1/4", "5/8", "1"],
    "checkIds": CHECK_IDS,
}
# Acceptance criterion 1's a and b lists over a wider q and n range.
IDENTITY_GRID = {
    "qValues": ["1/4", "1/2", "3/4", "9/10"],
    "nValues": list(range(1, 13)),
    "aValues": ["1/3", "-2", "2/3"],
    "bValues": ["1/3", "-1", "3/2"],
    "checkIds": [SELFTEST_ID] + IDENTITY_IDS,
}

ROOTS_CASES = {
    "little-q-jacobi": ["--family", "little-q-jacobi", "--a", "1/2", "--b=-1/2"],
    "q-laguerre": ["--family", "q-laguerre", "--b", "1/2"],
    "stieltjes-wigert": ["--family", "stieltjes-wigert"],
    "q-bessel": ["--family", "q-bessel", "--b=-1"],
}
ROOTS_Q = "9/10"
ROOTS_DEGREES = (10, 12, 14)
ROOTS_EPS = Fraction(1, 2**100)  # the CLI default, which the calls use

DECIDE_Q = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
DECIDE_N = range(4, 10)
DECIDE_DRAWS_PER_CELL = 3
DECIDE_B_EIGHTHS = range(-16, 7)  # b in eighths from -2 to 3/4, so bq < 1 for every q
DECIDE_EPS = Fraction(1, 16)
DECIDE_DEFAULT_SEED = 1
MAX_PROBLEMS = 5


@dataclass
class Pass:
    """One checked pass: its wall time, per-item latencies and failures."""

    wall_s: float
    item_ms: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    digest: str | None = None


def _note(problems: list[str], text: str) -> None:
    if len(problems) < MAX_PROBLEMS:
        problems.append(text)


# -- verify grids ------------------------------------------------------------


def check_report(data: bytes, reference: dict, reference_records) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, status counts) of a verify report.

    A record fails when it is an Error record or differs from the reference
    record at the same position; missing and extra records fail too.  A
    report whose records all match but whose bytes do not hash to the pinned
    digest counts as one failure, because the report must stay byte-identical.
    """
    records = json.loads(data)["records"] if data else []
    statuses = dict(Counter(r["status"] for r in records))
    problems: list[str] = []
    if hashlib.sha256(data).hexdigest() == reference["sha256"] and "Error" not in statuses:
        return len(records), 0, problems, statuses
    expected = reference_records()
    attempted = max(len(records), len(expected))
    failed = 0
    for i in range(attempted):
        got = records[i] if i < len(records) else None
        want = expected[i] if i < len(expected) else None
        if got is None or got != want or got["status"] == "Error":
            failed += 1
            _note(problems, f"record {i}: got {json.dumps(got)[:200]}, want {json.dumps(want)[:200]}")
    if failed == 0:
        failed = 1
        _note(problems, "records match but the report bytes differ from the pinned digest")
    return attempted, failed, problems, statuses


class VerifyGrid:
    """`qzeros verify` through ``cli.main`` on a pinned grid, with a report file.

    One item is one verify call (a check id's time alone, measured in a
    single pass, is too short to be steady on a shared machine).  The seed
    does not change the grid: the report digest is pinned, so the inputs
    are the same for every seed.
    """

    def __init__(self, name: str, config: dict, seed: int, workdir: Path):
        self.name = name
        self.config_path = workdir / f"{name}-config.json"
        self.report_path = workdir / f"{name}-report.json"
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))

    def reference_records(self) -> list[dict]:
        with gzip.open(REFERENCE_DIR / f"{self.name}.report.json.gz", "rb") as fh:
            return json.load(fh)["records"]

    def run_pass(self) -> Pass:
        self.report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", "--config", str(self.config_path), "--report", str(self.report_path)])
        item_ms = (time.perf_counter() - start) * 1e3
        data = self.report_path.read_bytes() if self.report_path.exists() else b""
        attempted, failed, problems, statuses = check_report(data, self.reference, self.reference_records)
        wall = time.perf_counter() - start
        return Pass(wall, [item_ms], attempted, failed, problems, statuses, hashlib.sha256(data).hexdigest())


# -- roots at high degree ----------------------------------------------------


def roots_key(family: str, n: int) -> str:
    return f"{family}/n={n}"


def check_roots(out: dict, ref: dict, eps: Fraction) -> list[str]:
    """Differences of one `qzeros roots` output from its reference.

    Independent of the isolation algorithm: root count, multiplicities,
    certifiedRealRooted and exact roots must equal the reference; each
    interval must be narrower than eps and overlap the reference interval of
    the same index.
    """
    problems = []
    for key in ("totalCount", "certifiedRealRooted"):
        if out.get(key) != ref[key]:
            problems.append(f"{key} {out.get(key)!r} != {ref[key]!r}")
    got, want = out.get("roots", []), ref["roots"]
    if len(got) != len(want):
        return problems + [f"{len(got)} distinct roots != {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if g["multiplicity"] != w["multiplicity"]:
            problems.append(f"root {i}: multiplicity {g['multiplicity']} != {w['multiplicity']}")
        if g["exact"] != w["exact"]:
            problems.append(f"root {i}: exact {g['exact']} != {w['exact']}")
        lo, hi = (Fraction(v) for v in g["interval"])
        rlo, rhi = (Fraction(v) for v in w["interval"])
        if not hi - lo < eps:
            problems.append(f"root {i}: interval width {float(hi - lo):.3g} not below eps")
        if hi < rlo or rhi < lo:
            problems.append(f"root {i}: interval misses the reference interval")
    return problems


def roots_call(family: str, n: int) -> tuple[int, str]:
    """One `qzeros roots` call at the default eps; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["roots", *ROOTS_CASES[family], "--q", ROOTS_Q, "--n", str(n)])
    return rc, buf.getvalue()


class RootsHighdeg:
    """Certified `qzeros roots` calls at high degree; one item is one call.

    The call set is fixed; the seed sets the order in which it is issued.
    """

    name = "roots-highdeg"

    def __init__(self, seed: int, workdir: Path):
        self.calls = [(family, n) for n in ROOTS_DEGREES for family in ROOTS_CASES]
        random.Random(seed).shuffle(self.calls)
        self.reference = json.loads((REFERENCE_DIR / "roots-highdeg.json").read_text(encoding="utf-8"))

    def run_pass(self) -> Pass:
        items, problems, failed = [], [], 0
        start = time.perf_counter()
        for family, n in self.calls:
            t = time.perf_counter()
            rc, text = roots_call(family, n)
            items.append((time.perf_counter() - t) * 1e3)
            bad = [f"exit code {rc}"] if rc != 0 else check_roots(
                json.loads(text), self.reference[roots_key(family, n)], ROOTS_EPS)
            if bad:
                failed += 1
                _note(problems, f"{roots_key(family, n)}: {'; '.join(bad[:3])}")
        return Pass(time.perf_counter() - start, items, len(self.calls), failed, problems)


# -- relation decisions at coarse isolation ----------------------------------


@dataclass(frozen=True)
class Draw:
    q: Fraction
    n: int
    a: Fraction
    b: Fraction
    kind: str  # "regime": orthogonal regime; "coincide": b = q^-k, zeros 1, q, ..., q^(k-1)


def decide_draws(seed: int) -> list[Draw]:
    """Stratified seeded draws, so that the work per pass varies little
    between seeds.  In every (q, n) cell, regime draw j takes a from the j-th
    of DECIDE_DRAWS_PER_CELL equal slices of (0, 1] and b from a seeded
    permutation of equal slices of DECIDE_B_EIGHTHS (so 0 < aq < 1 and
    bq < 1); one more draw sets b = q^-k."""
    rng = random.Random(seed)
    per_cell = DECIDE_DRAWS_PER_CELL
    nb = len(DECIDE_B_EIGHTHS)
    draws = []
    for q in DECIDE_Q:
        for n in DECIDE_N:
            b_slices = list(range(per_cell))
            rng.shuffle(b_slices)
            for j, i in enumerate(b_slices):
                a = Fraction(4 * j + rng.randint(1, 4), 4 * per_cell)
                b = Fraction(DECIDE_B_EIGHTHS[rng.randrange(nb * i // per_cell, nb * (i + 1) // per_cell)], 8)
                draws.append(Draw(q, n, a, b, "regime"))
            k = rng.randint(2, 4)
            draws.append(Draw(q, n, Fraction(rng.randint(1, 8), 8), q**-k, "coincide"))
    return draws


def _isolate(n: int, a: Fraction, b: Fraction, q: Fraction):
    return roots.isolate_real_roots(families.little_q_jacobi(n, a, b, q), DECIDE_EPS)


DECISION_LABELS = ["interlace", "lmesh", "class-strict", "class-closure", "zerowise", "zerowise-twin"]


def _decisions(d: Draw):
    """The draw's decisions as (label, thunk) pairs; builds and isolates first."""
    q = d.q
    p = _isolate(d.n, d.a, d.b, q)
    partner = _isolate(d.n - 1, q * d.a, q * d.b, q)  # the thm2-i pair
    moved = _isolate(d.n, d.a, q * q * d.b, q)
    twin = _isolate(d.n, d.a, d.b, q)  # identical zero set, isolated separately

    def zerowise(x, y):
        rep = analysis.zerowise_compare(x, y)
        return [rep.holds, rep.witness, rep.any_strict]

    def interlace():
        rep = analysis.interlace(p, partner)
        return [rep.relation.value, rep.witness]

    def lmesh():
        res = analysis.lmesh(p, q)
        return [res.compare_to_q(), res.exact_equals_q]

    return [
        ("interlace", interlace),
        ("lmesh", lmesh),
        ("class-strict", lambda: analysis.in_lmesh_class(p, q, strict=True)),
        ("class-closure", lambda: analysis.in_lmesh_class(p, q, strict=False)),
        ("zerowise", lambda: zerowise(p, moved)),
        ("zerowise-twin", lambda: zerowise(p, twin)),
    ]


def consistency_problems(outcome: dict) -> list[tuple[str, str]]:
    """(decision, reason) for each decision that contradicts another.

    lmesh < q exactly when the strict class holds, lmesh <= q exactly when
    the closure class holds, and identical zero sets compare as ties.
    """
    bad = []
    lm = outcome.get("lmesh")
    if isinstance(lm, list) and lm[:1] != ["raised"]:  # a raised lmesh is counted by the caller
        cmp = lm[0]
        if "class-strict" in outcome and outcome["class-strict"] != (cmp < 0):
            bad.append(("class-strict", f"strict class {outcome['class-strict']} vs lmesh {cmp}"))
        if "class-closure" in outcome and outcome["class-closure"] != (cmp <= 0):
            bad.append(("class-closure", f"closure class {outcome['class-closure']} vs lmesh {cmp}"))
    if "zerowise-twin" in outcome and outcome["zerowise-twin"] != [True, None, False]:
        bad.append(("zerowise-twin", f"identical zero sets gave {outcome['zerowise-twin']}"))
    return bad


def decide_outcomes(draws: list[Draw], items: list[float] | None = None) -> list[dict]:
    """Every draw's decided outcomes; a raised decision gives ``["raised", type]``.

    When ``items`` is given, each decision call's latency in ms is appended.
    """
    out = []
    for d in draws:
        try:
            decisions = _decisions(d)
        except Exception as exc:  # a failed build or isolation fails all of the draw's decisions
            out.append({label: ["raised", type(exc).__name__] for label in DECISION_LABELS})
            continue
        outcome = {}
        for label, thunk in decisions:
            t = time.perf_counter()
            try:
                outcome[label] = thunk()
            except Exception as exc:  # recorded and counted as a failed decision
                outcome[label] = ["raised", type(exc).__name__]
            if items is not None:
                items.append((time.perf_counter() - t) * 1e3)
        out.append(outcome)
    return out


class DecideCoarse:
    """Relation decisions on inputs isolated at a coarse eps.

    Building and isolating are inside the timed pass; one item is one
    decision call.  The default seed's outcomes are pinned; every seed is
    also checked for cross-consistency.
    """

    name = "decide-coarse"

    def __init__(self, seed: int, workdir: Path):
        self.draws = decide_draws(seed)
        self.pinned = None
        if seed == DECIDE_DEFAULT_SEED:
            self.pinned = json.loads((REFERENCE_DIR / "decide-coarse.json").read_text(encoding="utf-8"))

    def run_pass(self) -> Pass:
        items: list[float] = []
        start = time.perf_counter()
        attempted, failed, problems = self.check(decide_outcomes(self.draws, items))
        return Pass(time.perf_counter() - start, items, attempted, failed, problems)

    def check(self, outcomes: list[dict]) -> tuple[int, int, list[str]]:
        failed, problems = 0, []
        for i, (d, outcome) in enumerate(zip(self.draws, outcomes)):
            bad = {label for label, _ in consistency_problems(outcome)}
            for label in DECISION_LABELS:
                got = outcome.get(label)
                if isinstance(got, list) and got[:1] == ["raised"]:
                    bad.add(label)
                if self.pinned is not None and got != self.pinned[i][label]:
                    bad.add(label)
            failed += len(bad)
            for label in sorted(bad):
                _note(problems, f"draw {i} {d}: {label} -> {outcome.get(label)}")
        return len(self.draws) * len(DECISION_LABELS), failed, problems


WORKLOADS = {
    "registry-grid": lambda seed, workdir: VerifyGrid("registry-grid", REGISTRY_GRID, seed, workdir),
    "roots-highdeg": RootsHighdeg,
    "decide-coarse": DecideCoarse,
    "identities": lambda seed, workdir: VerifyGrid("identities", IDENTITY_GRID, seed, workdir),
}
