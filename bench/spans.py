"""Span recorder for the traced run, and the per-layer metrics it yields.

The spans are recorded from the benchmark's side.  ``Tracer`` rebinds the
public functions and methods of each qzeros module (each module is a layer)
to timing wrappers, in this process only, and puts the originals back when
it exits; no file of the library changes.  A span has a name, a start, an
end and the span open when it began (its parent).  A span's self time is its
duration minus the durations of its children.  Spans stay in memory until
``write_spans`` writes them out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from math import gcd, lcm
from pathlib import Path
from time import perf_counter

LAYERS = ("qcore", "qhyper", "qcalc", "families", "roots", "analysis", "verify", "cli")

# Conversion helpers and the polynomial value type: called hundreds of
# thousands of times per grid, so a span would cost more than the work.
# Their time stays in the caller's span.
UNTRACED = {"qcore.rat", "qcore.rat_str", "qcore.as_q", "qhyper.PolyExact"}
# Counted instead of spanned; each call counts against the layer of the
# innermost open span (the nearest traced caller).
COUNTED = {"roots.RootEntry.bisect_once": "bisect"}
# Spans of these are named after the check id, their first argument.
CHECK_RUNNERS = {"verify.run_identity_on_grid", "verify.check_property"}

ISOLATE = "roots.isolate_real_roots"
FAMILY_CTORS = (
    "little_q_jacobi", "little_q_laguerre", "q_laguerre", "stieltjes_wigert",
    "q_bessel", "normalized_little_q_jacobi", "e_factor", "build",
)
ANALYSIS_FNS = ("interlace", "zerowise_compare", "lmesh", "in_lmesh_class", "compare_root_to_point")
STATUSES = {"pass": "Pass", "fail": "Fail", "skipped": "SkippedOutOfRegime", "error": "Error"}


def per_layer_names(check_ids: list[str]) -> list[str]:
    """Every per-layer metric, in report order."""
    return [
        "roots.isolate.calls", "roots.isolate.distinct", "roots.isolate.reuse_ratio",
        "roots.isolate.self_s", "roots.refine.self_s", "roots.bisect.calls",
        "analysis.bisect.calls", "roots.sturm.builds", "roots.sturm.self_s",
        "roots.sturm.variations.calls", "qhyper.coeff_bits_max",
        "qhyper.poly_gcd.calls", "qhyper.poly_gcd.self_s",
        "qhyper.square_free_decomposition.self_s", "analysis.gcd_proofs",
        *(f"analysis.{fn}.{kind}" for fn in ANALYSIS_FNS for kind in ("calls", "self_s")),
        *(f"families.{ctor}.self_s" for ctor in FAMILY_CTORS),
        "qhyper.build_qhyper.self_s", "qcalc.q_derivative.self_s", "qcore.qpoch_finite.calls",
        *(f"verify.check.{cid}_s" for cid in check_ids),
        *(f"verify.status.{s}" for s in STATUSES),
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace_overhead_frac",
    ]


def unit_of(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric."""
    if name.endswith("_s"):
        return "s", "lower"
    if name == "roots.isolate.reuse_ratio":
        return "ratio", "higher"
    if name == "trace_overhead_frac":
        return "ratio", "lower"
    if name == "qhyper.coeff_bits_max":
        return "bits", "lower"
    return "count", "higher" if name == "verify.status.pass" else "lower"


class SpanRecorder:
    """Spans in flat arrays: name id, parent index, start and end times."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return nid

    def open(self, nid: int) -> None:
        stack = self.stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        stack.append(len(self.start))
        self.end.append(0.0)
        self.start.append(perf_counter())

    def close(self) -> None:
        self.end[self.stack.pop()] = perf_counter()

    def current_layer(self) -> str:
        return self.layer_of[self.name[self.stack[-1]]] if self.stack else "bench"

    def aggregate(self) -> tuple[dict[str, list], Counter]:
        """Per span name [calls, total_s, self_s], and the poly_gcd spans
        counted by the layer of their parent span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_name: dict[str, list] = {}
        gcd_parents: Counter = Counter()
        gcd_id = self._ids.get("qhyper.poly_gcd")
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = by_name.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if self.name[i] == gcd_id:
                p = self.parent[i]
                gcd_parents[self.layer_of[self.name[p]] if p >= 0 else "bench"] += 1
        return by_name, gcd_parents


def _primitive_bits(coeffs) -> int:
    """Bit size of the largest coefficient of the primitive integer form."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints) or 1
    return max(abs(v) // g for v in ints).bit_length()


class Tracer:
    """Context manager: while open, calls into qzeros are recorded as spans."""

    def __init__(self):
        self.rec = SpanRecorder()
        self.counts: Counter = Counter()
        self.isolated: set = set()
        self.coeff_bits_max = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- instrumentation ----------------------------------------------------

    def _on_isolate(self, args) -> None:
        coeffs = tuple(args[0].coeffs)
        self.isolated.add(coeffs)
        self.coeff_bits_max = max(self.coeff_bits_max, _primitive_bits(coeffs))

    def _wrap(self, name: str, fn):
        rec = self.rec
        if name in COUNTED:
            counts, kind = self.counts, COUNTED[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[(rec.current_layer(), kind)] += 1
                return fn(*args, **kwargs)

            return counted
        open_, close = rec.open, rec.close
        if name in CHECK_RUNNERS:
            def span_id(args):
                return rec.name_id(f"verify.check.{args[0]}")
        else:
            nid = rec.name_id(name)

            def span_id(args):
                return nid
        hook = self._on_isolate if name == ISOLATE else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if hook is not None:
                hook(args)
            open_(span_id(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return spanned

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("qzeros")
        modules = [importlib.import_module(f"qzeros.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(name, value)
                elif inspect.isclass(value) and not issubclass(value, (enum.Enum, BaseException)):
                    self._wrap_methods(name, value)
        for mod in (package, *modules):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        return self

    def _wrap_methods(self, class_name: str, cls) -> None:
        explicit_init = not dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and explicit_init):
                continue
            name = f"{class_name}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def __exit__(self, *exc) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self, check_ids: list[str], statuses: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics of this trace, without trace_overhead_frac."""
        by_name, gcd_parents = self.rec.aggregate()

        def calls(name):
            return by_name.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return by_name.get(name, (0, 0.0, 0.0))[2]

        iso_calls = calls(ISOLATE)
        m = {
            "roots.isolate.calls": iso_calls,
            "roots.isolate.distinct": len(self.isolated),
            # no isolation at all repeats nothing
            "roots.isolate.reuse_ratio": len(self.isolated) / iso_calls if iso_calls else 1.0,
            "roots.isolate.self_s": self_s(ISOLATE),
            "roots.refine.self_s": self_s("roots.RootEntry.refine_below"),
            "roots.bisect.calls": self.counts[("roots", "bisect")],
            "analysis.bisect.calls": self.counts[("analysis", "bisect")],
            "roots.sturm.builds": calls("roots.SturmChain.__init__"),
            "roots.sturm.self_s": sum(row[2] for name, row in by_name.items()
                                      if name.startswith("roots.SturmChain.")),
            "roots.sturm.variations.calls": calls("roots.SturmChain.variations"),
            "qhyper.coeff_bits_max": self.coeff_bits_max,
            "qhyper.poly_gcd.calls": calls("qhyper.poly_gcd"),
            "qhyper.poly_gcd.self_s": self_s("qhyper.poly_gcd"),
            "qhyper.square_free_decomposition.self_s": self_s("qhyper.square_free_decomposition"),
            "analysis.gcd_proofs": gcd_parents["analysis"],
        }
        for fn in ANALYSIS_FNS:
            m[f"analysis.{fn}.calls"] = calls(f"analysis.{fn}")
            m[f"analysis.{fn}.self_s"] = self_s(f"analysis.{fn}")
        for ctor in FAMILY_CTORS:
            m[f"families.{ctor}.self_s"] = self_s(f"families.{ctor}")
        m["qhyper.build_qhyper.self_s"] = self_s("qhyper.build_qhyper")
        m["qcalc.q_derivative.self_s"] = self_s("qcalc.q_derivative")
        m["qcore.qpoch_finite.calls"] = calls("qcore.qpoch_finite")
        for cid in check_ids:
            m[f"verify.check.{cid}_s"] = by_name.get(f"verify.check.{cid}", (0, 0.0))[1]
        for key, status in STATUSES.items():
            m[f"verify.status.{key}"] = statuses.get(status, 0)
        layer_self = Counter()
        for name, row in by_name.items():
            layer_self[name.split(".", 1)[0]] += row[2]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write_spans(self, path: Path) -> None:
        rec = self.rec
        t0 = rec.start[0] if rec.start else 0.0
        doc = {
            "names": rec.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [rec.name[i], rec.parent[i], rec.start[i] - t0, rec.end[i] - t0]
                for i in range(len(rec.start))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
