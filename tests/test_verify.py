"""Check registry: identities, properties, regimes, witnesses, determinism."""

import json
import math
import multiprocessing
import os
from fractions import Fraction as F

import pytest

from qzeros import (
    ConfigError,
    ConstraintViolationError,
    GridSpec,
    HyperSpec,
    PolyExact,
    isolate_real_roots,
    RegistryError,
    RootSet,
    SELFTEST_ID,
    Status,
    build_qhyper,
    check_identity,
    check_property,
    default_t_values,
    identity_check_ids,
    little_q_jacobi,
    rat,
    run_checks,
    run_identity_on_grid,
    summarize,
    weight_mass,
    WorkerError,
)
from qzeros import roots, verify
from qzeros.cli import main

Q = F(1, 2)


def test_unknown_ids_raise():
    with pytest.raises(RegistryError):
        check_identity("no-such-check", {"q": Q, "n": 1})
    with pytest.raises(RegistryError):
        check_property("no-such-check", GridSpec([Q], [1]))
    with pytest.raises(RegistryError):
        run_checks(GridSpec([Q], [1], check_ids=["no-such-check"]))


def test_contiguous_identity_point():
    rec = check_identity("contig-4", {"q": Q, "n": 3, "a": F(1, 3), "b": F(-2)})
    assert rec.status is Status.PASS
    assert rec.params == {"q": "1/2", "n": 3, "a": "1/3", "b": "-2"}


def test_contig1_degree_one_point():
    # constant coefficient on both sides is 1 - a q
    rec = check_identity("contig-1", {"q": Q, "n": 1, "a": F(1, 5), "b": F(1, 7)})
    assert rec.status is Status.PASS


def test_factorization_top_case():
    rec = check_identity("factor-bneg", {"q": Q, "n": 3, "a": F(1, 3), "k": 3})
    assert rec.status is Status.PASS


def test_normalized_factorization_reports_constant():
    rec = check_identity("factor-anorm", {"q": Q, "n": 4, "b": F(1, 3), "k": 2})
    assert rec.status is Status.PASS
    assert "constant" in rec.witness


def test_inadmissible_points_are_skipped():
    rec = check_identity("contig-1", {"q": Q, "n": 2, "a": F(1, 3), "b": F(4)})
    assert rec.status is Status.SKIPPED  # b = q^-2
    rec = check_identity("recip-1", {"q": Q, "n": 2, "b": F(0)})
    assert rec.status is Status.SKIPPED
    rec = check_identity("qderiv-jacobi", {"q": Q, "n": 3, "a": F(2), "b": F(1, 2)})
    assert rec.status is Status.SKIPPED  # a = q^-1 degenerate


def test_every_fail_carries_witness():
    rec = check_identity(SELFTEST_ID, {"q": Q, "n": 2, "a": F(1, 3), "b": F(-1), "coeff_index": 2})
    assert rec.status is Status.PASS
    assert rec.witness["inner_status"] == "Fail"
    inner = rec.witness["inner_witness"]
    assert inner["coeff_index"] == 2
    assert "lhs" in inner and "rhs" in inner


def test_harness_selftest():
    rec = check_identity(SELFTEST_ID, {})
    assert rec.status is Status.PASS
    assert rec.witness["inner_status"] == "Fail"
    assert rec.witness["inner_witness"]["coeff_index"] == rec.witness["corrupted_index"]


def test_identity_comparisons_subtract_only_on_a_fail(monkeypatch):
    """Canonical sides are equal exactly when their (num, den) match, so a
    comparison subtracts only to find a Fail's witness: an all-Pass identity
    grid makes no ``PolyExact.__sub__`` call from ``_compare_sides``, and the
    self-test still names each corrupted index."""
    compare, sub = verify._compare_sides, PolyExact.__sub__
    inside, calls = [False], {"compare": 0, "sub": 0}

    def tracked(comparisons):
        inside[0] = True
        calls["compare"] += 1
        try:
            return compare(comparisons)
        finally:
            inside[0] = False

    def counted_sub(self, other):
        calls["sub"] += inside[0]
        return sub(self, other)

    monkeypatch.setattr(verify, "_compare_sides", tracked)
    monkeypatch.setattr(PolyExact, "__sub__", counted_sub)
    grid = GridSpec(q_values=[Q, F(3, 4)], n_values=[1, 2, 3, 4], a_values=[F(1, 3)], b_values=[F(-1), F(1, 3)])
    for check_id in identity_check_ids():
        if check_id not in ("bessel-limit", "sw-limit"):  # compared by a deviation profile
            records = run_identity_on_grid(check_id, grid)
            assert {r.status for r in records} <= {Status.PASS, Status.SKIPPED}, check_id
    assert calls["compare"] > 200 and calls["sub"] == 0, calls
    for index in range(4):
        rec = check_identity(SELFTEST_ID, {"q": Q, "n": 2, "a": F(1, 3), "b": F(-1), "coeff_index": index})
        assert rec.status is Status.PASS and rec.witness["inner_witness"]["coeff_index"] == index
    assert calls["sub"] == 4, calls


def test_limit_checks_pass_at_small_q():
    rec = check_identity("bessel-limit", {"q": F(1, 4), "n": 4, "b": F(-1), "eps": F(1, 10**6)})
    assert rec.status is Status.PASS
    assert rec.witness["monotone_decreasing"] is True
    rec = check_identity("sw-limit", {"q": F(1, 4), "n": 4, "eps": F(1, 10**6)})
    assert rec.status is Status.PASS


def test_limit_checks_skip_degree_zero():
    """At n = 0 both sides are the constant 1 and every deviation is 0, so
    "strictly decreasing" cannot hold: the limit checks skip the point, as
    qderiv-jacobi does, instead of reporting a Fail of the harness."""
    grid = GridSpec(q_values=[F(1, 2), F(3, 4)], n_values=[0, 1], b_values=[F(-1), F(1, 3)])
    for check_id in ("bessel-limit", "sw-limit"):
        records = run_identity_on_grid(check_id, grid)
        at_zero = [r for r in records if r.params["n"] == 0]
        assert at_zero and all(r.status is Status.SKIPPED for r in at_zero), check_id
        assert all(r.witness == {"reason": "needs n >= 1"} for r in at_zero)
        assert all(r.status is not Status.SKIPPED for r in records if r.params["n"] == 1)


def test_property_regime_filtering():
    grid = GridSpec(
        q_values=[Q], n_values=[2], a_values=[F(1, 2), F(3)], b_values=[F(-1), F(1, 2)],
        check_ids=[],
    )
    records = check_property("thm1-monotone-b", grid)
    # a = 3 gives aq > 1: those pair points must be skipped, never passed
    skipped = [r for r in records if r.params.get("a") == "3"]
    assert skipped and all(r.status is Status.SKIPPED for r in skipped)
    in_regime = [r for r in records if r.params.get("a") == "1/2"]
    assert in_regime and all(r.status is Status.PASS for r in in_regime)


def test_property_pass_on_regime_grid():
    grid = GridSpec(
        q_values=[Q], n_values=[1, 2, 3], a_values=[F(1, 2)], b_values=[F(-1), F(1, 2)],
        t_values=default_t_values(Q),
    )
    for check_id in ("thmA-1", "thm2-lmesh", "thm2-i", "cor-ii", "bessel-lmesh"):
        records = check_property(check_id, grid)
        assert records, check_id
        assert all(r.status in (Status.PASS, Status.SKIPPED) for r in records), check_id
        assert any(r.status is Status.PASS for r in records), check_id


def test_bessel_interlace_reports_observed_relation():
    grid = GridSpec(
        q_values=[Q], n_values=[3], b_values=[F(-2)], t_values=default_t_values(Q)
    )
    records = check_property("bessel-interlace", grid)
    evaluated = [r for r in records if r.status is Status.PASS]
    assert evaluated
    for r in evaluated:
        assert r.witness["relation"] in ("StrictInterlace", "WeakInterlace")
    # t = q^2 and t = 1 sit outside the open window and are skipped
    assert any(r.status is Status.SKIPPED for r in records)


def test_identity_grid_record_count():
    grid = GridSpec(
        q_values=[F(1, 2), F(1, 4)], n_values=[1, 2, 3], a_values=[F(1, 3)],
        b_values=[F(-1), F(1, 3)],
    )
    records = run_identity_on_grid("contig-3", grid)
    assert len(records) == 2 * 3 * 1 * 2
    records = run_identity_on_grid("factor-bneg", grid)
    assert len(records) == 2 * (1 + 2 + 3) * 1  # sum over k = 1..n
    records = run_identity_on_grid("recip-1", grid)
    assert len(records) == 2 * 3 * 2  # axes (q, n, b)


def test_property_grid_record_count():
    grid = GridSpec(
        q_values=[Q], n_values=[2, 3], a_values=[F(1, 2), F(1, 4)], b_values=[F(1, 2)]
    )
    records = check_property("thmA-3", grid)
    assert len(records) == 1 * 2 * 2 * 1
    records = check_property("thm1-monotone-a", grid)
    assert len(records) == 1 * 2 * 1 * 1  # one ordered a-pair per (q, n, b)


def test_orthogonality_property():
    grid = GridSpec(
        q_values=[Q], n_values=[0], a_values=[F(1, 2)], b_values=[F(1, 2)],
        eps=F(1, 10**20),
    )
    records = check_property("orthogonality", grid)
    assert len(records) == 15  # pairs 0 <= n < m <= 5
    assert all(r.status is Status.PASS for r in records)
    assert all("tail_bound" in r.witness for r in records)


def test_determinism():
    grid = GridSpec(
        q_values=[Q], n_values=[2], a_values=[F(1, 2)], b_values=[F(-1)],
        t_values=default_t_values(Q),
        check_ids=["contig-1", "thm2-ii", SELFTEST_ID],
    )
    first = run_checks(grid)
    second = run_checks(grid)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_summary_counts():
    grid = GridSpec(
        q_values=[Q], n_values=[1, 2], a_values=[F(1, 2), F(3)], b_values=[F(1, 2)],
        check_ids=["thm2-lmesh"],
    )
    records = run_checks(grid)
    summary = summarize(records)
    assert summary["total"] == len(records) == 4
    assert summary["pass"] + summary["fail"] + summary["skipped"] + summary["error"] == 4
    assert summary["skipped"] == 2  # the a = 3 points


def test_lattice_cells_found_for_q_near_one():
    """thm2-lmesh locates each zero's lattice cell by galloping and bisecting
    on k, so zeros below q^1000 are placed too: at q = 999/1000 (cells
    k ~ 1100) and q = 9999/10000 (k ~ 11000) every record passes."""
    for q in (F(999, 1000), F(9999, 10000)):
        grid = GridSpec(q_values=[q], n_values=[1, 2, 3], a_values=[F(1, 2)], b_values=[F(-1)])
        records = check_property("thm2-lmesh", grid)
        assert [r.status for r in records] == [Status.PASS] * 3, [r.witness for r in records]


def test_lattice_cell_costs_log_k_comparisons(monkeypatch):
    """A zero in cell k costs at most 2 * bit_length(k) + 1 root-versus-point
    comparisons (galloping, then bisecting on k), not a walk over k."""
    q = F(999, 1000)
    zeros_poly = PolyExact((F(1, 8), -1, 1)) * PolyExact.from_roots([F(1, 3)])
    rs = isolate_real_roots(zeros_poly, None)  # zeros (2 +- sqrt 2)/4 and 1/3, all above 1/7
    k_max = math.ceil(math.log(7) / -math.log(q))
    assert q**k_max <= F(1, 7)  # every zero lies in a cell k <= k_max ~ 1900
    probes = []
    real = verify.compare_root_to_point
    monkeypatch.setattr(
        verify, "compare_root_to_point", lambda e, pt: probes.append(pt) or real(e, pt)
    )
    assert verify._lattice_separated(rs, q) == (True, None)
    assert len(probes) <= len(rs.roots) * (2 * k_max.bit_length() + 1), len(probes)


def test_lattice_powers_shared_by_the_zeros(monkeypatch):
    """``_lattice_separated`` raises q to each power k once for the whole
    root set, not once per probe, and decides as before."""
    q = F(9, 10)
    rs = isolate_real_roots(little_q_jacobi(12, F(1, 2), F(-1, 2), q), None)
    decided = verify._lattice_separated(rs, q)
    exponents, probes = [], []
    real_pow, real_compare = F.__pow__, verify.compare_root_to_point

    def pow_logging(x, k, *mod):
        if x == q:
            exponents.append(k)
        return real_pow(x, k, *mod)

    monkeypatch.setattr(F, "__pow__", pow_logging)
    monkeypatch.setattr(verify, "compare_root_to_point", lambda e, pt: probes.append(pt) or real_compare(e, pt))
    assert verify._lattice_separated(rs, q) == decided == (True, None)
    monkeypatch.undo()
    assert len(exponents) == len(set(exponents)) < len(probes) - len(rs.roots), (exponents, len(probes))


def test_root_versus_point_work_and_shared_root_sets(monkeypatch):
    """Each ``compare_root_to_point`` call makes at most one ``sign_at`` call
    and no halving; the factor's sign at lo, which the halving frame keeps,
    is taken at most once per entry.  The root-region and lattice checks
    leave a shared root set's intervals unchanged; the lmesh class decision
    narrows them in place, each inside its old interval, and decides as it
    does on a copy."""
    from qzeros import RootEntry, compare_root_to_point, in_lmesh_class

    q = F(9, 10)
    rs = isolate_real_roots(little_q_jacobi(12, F(1, 2), F(-1, 2), q), None)
    counts = {}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapped

    for owner, name in ((PolyExact, "sign_at"), (roots, "_value"), (RootEntry, "_halve")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for e in rs.roots:
        for pt in [F(0), F(1), e.lo, e.hi, (e.lo + e.hi) / 2] + [q**k for k in range(1, 25)]:
            sign_at_before = counts.get("sign_at", 0)
            compare_root_to_point(e, pt)
            assert counts.get("sign_at", 0) - sign_at_before <= 1
    assert "_halve" not in counts and counts.get("_value", 0) <= len(rs.roots)
    assert counts["sign_at"] >= 3 * len(rs.roots), counts  # lo, hi and the midpoint lie inside
    monkeypatch.undo()
    shared = [(e.lo, e.hi, e.exact) for e in rs.roots]
    assert verify._root_region(rs, F(0), F(1)) == (True, None)
    assert verify._lattice_separated(rs, q) == (True, None)
    assert [(e.lo, e.hi, e.exact) for e in rs.roots] == shared
    before = rs.copy()
    assert in_lmesh_class(rs, q, strict=True) == in_lmesh_class(before.copy(), q, strict=True) is True
    assert all(o.lo <= e.lo <= e.hi <= o.hi for e, o in zip(rs.roots, before.roots))
    assert [(e.lo, e.hi) for e in rs.roots] != [(e.lo, e.hi) for e in before.roots]


def test_lattice_cells_and_lattice_points_unchanged():
    """Cells and zeros at lattice points are those of a walk over k = 1, 2, ..."""
    q = F(1, 2)
    for zeros in ([F(3, 4), F(3, 8)], [F(1, 2), F(1, 16)], [F(1, 3), F(1, 5), F(1, 2**40)]):
        rs = isolate_real_roots(PolyExact.from_roots(zeros), None)
        ok, detail = verify._lattice_separated(rs, q)
        walked = []
        for z in sorted(zeros):
            k = 1
            while z < q**k:
                k += 1
            walked.append((k, z == q**k))
        at_lattice = [k for k, on in walked if on]
        assert ok and detail == ({"zeros_at_lattice_points": at_lattice} if at_lattice else None)
    crowded = isolate_real_roots(PolyExact.from_roots([F(3, 4), F(5, 8), F(1, 3)]), None)
    assert verify._lattice_separated(crowded, q) == (False, {"crowded_cells": [1]})


def test_identity_ids_cover_the_registry():
    expected = {
        "contig-1", "contig-2", "contig-3", "contig-4", "contig-3-shifted",
        "qderiv-jacobi", "qderiv-hyper", "recip-1", "recip-2", "recip-3",
        "factor-bneg", "factor-anorm", "qdiff-bessel", "bessel-limit", "sw-limit",
    }
    assert expected == set(identity_check_ids())


def test_decisions_do_not_depend_on_isolation_width(monkeypatch):
    """The thm2-lmesh and thmA acceptance grids give identical records with
    roots isolated to separation only and with roots refined to 2^-64."""
    grids = [
        GridSpec(
            q_values=[F(1, 4), F(1, 2), F(3, 4), F(9, 10)],
            n_values=list(range(1, 9)),
            a_values=[F(1, 4), F(1, 2), F(1)],
            b_values=[F(-2), F(-1, 2), F(0), F(1, 2), F(1)],
            check_ids=["thm2-lmesh"],
        )
    ]
    for q in (F(1, 2), F(3, 4)):
        grids.append(
            GridSpec(
                q_values=[q],
                n_values=[1, 3, 5],
                a_values=[F(1, 2), F(1)],
                b_values=[F(-1), F(1, 2)],
                t_values=default_t_values(q),
                check_ids=["thmA-1", "thmA-2", "thmA-3"],
            )
        )
    lazy = [r.to_json() for g in grids for r in run_checks(g)]
    monkeypatch.setattr(verify, "_roots", lambda p: isolate_real_roots(p, F(1, 2**64)))
    eager = [r.to_json() for g in grids for r in run_checks(g)]
    assert len(lazy) > 400
    assert lazy == eager


def test_orthogonality_sum_matches_fraction_horner():
    """The integer-Horner partial sum equals the sum of weight_mass(k) *
    p_n(q^k) * p_m(q^k) by Fraction Horner, over the same lattice cutoff."""
    points = [
        (F(1, 2), F(1, 2), F(1, 2)), (F(1, 4), F(1), F(-1)), (F(3, 4), F(1, 2), F(1, 3)),
        (F(3, 4), F(1, 4), F(-2)), (F(1, 2), F(1), F(0)),
    ]
    for q, a, b in points:
        for n in range(0, 5):
            for m in range(n + 1, 6):
                total, _, cutoff = verify._orthogonality_sum(n, m, a, b, q, F(1, 10**20))
                pn, pm = little_q_jacobi(n, a, b, q), little_q_jacobi(m, a, b, q)
                expected = sum(
                    weight_mass(k, a, b, q) * pn(q**k) * pm(q**k) for k in range(cutoff + 1)
                )
                assert total == expected, (q, a, b, n, m)


def test_grid_without_records_raises():
    for grid in (
        GridSpec(q_values=[], n_values=[2], check_ids=["thm2-lmesh"]),
        GridSpec(q_values=[Q], n_values=[2]),  # no check ids
        GridSpec(q_values=[Q], n_values=[2], check_ids=["contig-1"]),  # no a, b values
    ):
        with pytest.raises(ConfigError):
            run_checks(grid)


def _interlacing_grids() -> list[GridSpec]:
    """The thm2, thmA and cor acceptance grids, each run as one grid of
    several checks so that the checks share polynomials."""
    grids = [
        GridSpec(
            q_values=[F(1, 4), F(1, 2), F(3, 4), F(9, 10)],
            n_values=list(range(1, 7)),
            a_values=[F(1, 4), F(1, 2), F(1)],
            b_values=[F(-2), F(-1, 2), F(0), F(1, 2), F(1)],
            check_ids=["thm2-lmesh", "thm2-i", "thm2-ii", "thm2-iii"],
        )
    ]
    for q in (F(1, 2), F(3, 4)):
        grids.append(
            GridSpec(
                q_values=[q],
                n_values=[1, 2, 3, 4, 5],
                a_values=[F(1, 2), F(1)],
                b_values=[F(-2), F(-1), F(0), F(1, 2)],
                t_values=default_t_values(q),
                check_ids=["thmA-1", "thmA-2", "thmA-3", "thm2-i", "thm2-iii", "cor-i", "cor-ii"],
            )
        )
    return grids


def test_isolation_memo_matches_fresh_isolation(monkeypatch):
    """run_checks isolates each distinct polynomial once and gives the same
    records as isolating afresh at every call."""
    isolated = []
    real_isolate = verify.isolate_real_roots

    def counting(p, eps):
        isolated.append(p.coeffs)
        return real_isolate(p, eps)

    monkeypatch.setattr(verify, "isolate_real_roots", counting)
    memo = []
    for grid in _interlacing_grids():
        isolated.clear()
        memo.extend(r.to_json() for r in run_checks(grid))
        assert len(isolated) == len(set(isolated))
    monkeypatch.setattr(verify, "_roots", lambda p: real_isolate(p, None))
    fresh = [r.to_json() for g in _interlacing_grids() for r in run_checks(g)]
    assert len(memo) > 2000
    assert memo == fresh


def test_isolation_memo_is_scoped_to_one_run(monkeypatch, pools):
    """The memo is set only inside run_checks, emptied when it returns or
    raises, and a second run isolates everything again.  A raise leaves no
    worker process behind."""
    sizes = []
    real_isolate = verify.isolate_real_roots

    def recording(p, eps):
        memo = verify._RUN_MEMO.get()
        sizes.append(None if memo is None else sum(isinstance(v, RootSet) for v in memo.values()))
        return real_isolate(p, eps)

    monkeypatch.setattr(verify, "isolate_real_roots", recording)
    grid = GridSpec(q_values=[Q], n_values=[2, 3], a_values=[F(1, 2)], b_values=[F(1, 2)],
                    check_ids=["thm2-lmesh", "thm2-i"])
    assert verify._RUN_MEMO.get() is None
    run_checks(grid)
    assert verify._RUN_MEMO.get() is None
    # thm2-lmesh isolates p_2 and p_3; thm2-i reuses them and adds two more
    assert sizes == [0, 1, 2, 3]
    run_checks(grid)
    assert sizes == [0, 1, 2, 3] * 2

    def raising(**point):
        raise RuntimeError("check raised inside the run")

    monkeypatch.setitem(verify.PROPERTY_CHECKS, "raising-check", verify._Check(verify._QNAB, raising))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # contig-1 goes to a worker
    bad = GridSpec(q_values=[Q], n_values=[2], a_values=[F(1, 2)], b_values=[F(1, 2)],
                   check_ids=["thm2-lmesh", "contig-1", "raising-check"])
    with pytest.raises(RuntimeError):
        run_checks(bad)
    assert pools[-1] is not None and multiprocessing.active_children() == []
    assert sizes[-1] == 0  # thm2-lmesh ran inside the memo before the raise
    assert verify._RUN_MEMO.get() is None
    verify._roots(little_q_jacobi(2, F(1, 2), F(1, 2), Q))  # outside a run: no memo
    assert sizes[-1] is None


def test_identity_checks_run_without_the_memo(monkeypatch, pools):
    """Identity checks isolate nothing, so they build outside the run memo:
    an identities-only run stores nothing in it, and identity checks between
    property checks see none.  This is the inline path, on one CPU."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    seen = {}
    stage = [None]
    real_record = verify._record

    def staged(check_id, check, point):
        stage[0] = check_id
        return real_record(check_id, check, point)

    monkeypatch.setattr(verify, "_record", staged)
    for name in ("little_q_jacobi", "build_qhyper"):
        real = getattr(verify, name)

        def recording(*args, real=real):
            seen.setdefault(stage[0], set()).add(verify._RUN_MEMO.get() is not None)
            return real(*args)

        monkeypatch.setattr(verify, name, recording)
    run_checks(GridSpec(q_values=[Q], n_values=[2, 3], a_values=[F(1, 3)], b_values=[F(-1)],
                        check_ids=identity_check_ids()))
    assert len(seen) > 10 and all(memo_set == {False} for memo_set in seen.values())
    seen.clear()
    ids = ["thm2-lmesh", "contig-1", "recip-2", "thm2-i"]
    run_checks(GridSpec(q_values=[Q], n_values=[2], a_values=[F(1, 3)], b_values=[F(-1)], check_ids=ids))
    assert seen == {"thm2-lmesh": {True}, "contig-1": {False}, "recip-2": {False}, "thm2-i": {True}}
    assert pools == [None, None]


def _stub_identity(monkeypatch, check_id: str, fn) -> None:
    """Register ``fn`` as an identity check with one point and no parameters;
    forked workers inherit it."""
    monkeypatch.setitem(verify.IDENTITY_CHECKS, check_id, verify._Check(lambda grid: [{}], fn))


_SMALL = dict(q_values=[Q], n_values=[2], a_values=[F(1, 3)], b_values=[F(-1)])


def test_identity_checks_in_workers_run_without_the_memo(monkeypatch, pools):
    """On two CPUs an identity check between property checks runs in a
    forked worker, which starts before the memo is set and so sees none;
    the records keep grid order."""
    parent = os.getpid()
    _stub_identity(monkeypatch, "memo-probe", lambda: (
        Status.PASS, {"memo_unset": verify._RUN_MEMO.get() is None, "in_worker": os.getpid() != parent}))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    records = run_checks(GridSpec(**_SMALL, check_ids=["thm2-lmesh", "memo-probe", "thm2-i"]))
    assert pools[-1] is not None
    assert [r.check_id for r in records] == ["thm2-lmesh", "memo-probe", "thm2-i"]
    assert records[1].witness == {"memo_unset": True, "in_worker": True}


def test_one_identity_check_beside_property_checks_matches_inline(monkeypatch, pools):
    """One identity check beside property checks runs in one worker while
    the parent runs the property checks, and gives the inline records."""
    grid = GridSpec(q_values=[Q, F(3, 4)], n_values=[1, 2, 3], a_values=[F(1, 3), F(1, 2)],
                    b_values=[F(-1), F(1, 2)], check_ids=["thm2-lmesh", "contig-1", "thm2-i", "thmA-1"])
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        runs.append([r.to_json() for r in run_checks(grid)])
    assert pools[0] is None and pools[1]._max_workers == 1
    assert len(runs[0]) > 50 and runs[0] == runs[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_check_raising_in_a_worker_raises_its_own_type(monkeypatch, pools, cpus):
    """An exception that is not a QZerosError reaches the caller with the
    same type from a worker as inline, and no worker is left running."""

    def raising():
        raise ZeroDivisionError("check raised inside the run")

    _stub_identity(monkeypatch, "raising-identity", raising)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    with pytest.raises(ZeroDivisionError, match="inside the run"):
        run_checks(GridSpec(**_SMALL, check_ids=["contig-1", "raising-identity", "thm2-i"]))
    assert (pools[-1] is None) == (cpus == 1)
    assert multiprocessing.active_children() == []


def test_a_dead_worker_ends_verify_with_one_error_line(monkeypatch, pools, tmp_path, capsys):
    """A worker that dies raises WorkerError, so `qzeros verify` exits 2
    with one error line and no traceback, writes no report, and leaves no
    worker running."""
    parent = os.getpid()

    def dying():
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("the stub ran inline")
        os._exit(3)

    _stub_identity(monkeypatch, "dying-identity", dying)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    with pytest.raises(WorkerError):
        run_checks(GridSpec(**_SMALL, check_ids=["dying-identity", "thm2-i"]))
    assert multiprocessing.active_children() == []
    config, report = tmp_path / "grid.json", tmp_path / "report.json"
    config.write_text(json.dumps({"qValues": ["1/2"], "nValues": [2], "aValues": ["1/3"], "bValues": ["-1"],
                                  "checkIds": ["thm2-lmesh", "dying-identity", "contig-1"]}))
    assert main(["verify", "--config", str(config), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not report.exists()
    assert all(pool is not None for pool in pools) and multiprocessing.active_children() == []


def test_orthogonality_tables_computed_once_per_run(monkeypatch):
    """On one (q, a, b) with its 15 degree pairs a run takes (q;q)_probe
    once and builds each degree once, and gives the records that computing
    everything afresh per pair gives."""
    q = F(3, 4)
    grid = GridSpec([q], [1], [F(1, 2)], [F(-1, 2)], check_ids=["orthogonality"])
    fresh = [r.to_json() for r in check_property("orthogonality", grid)]
    qq_probes, built = [], []
    real_qpoch, real_build = verify.qpoch_finite, verify.little_q_jacobi

    def qpoch(a, base, n):
        if a == base == q:
            qq_probes.append(n)
        return real_qpoch(a, base, n)

    monkeypatch.setattr(verify, "qpoch_finite", qpoch)
    monkeypatch.setattr(verify, "little_q_jacobi", lambda *args: built.append(args[0]) or real_build(*args))
    records = run_checks(grid)
    assert len(records) == 15 and all(r.status is Status.PASS for r in records)
    assert [r.to_json() for r in records] == fresh
    assert len(qq_probes) == 1
    assert sorted(built) == list(range(6))


def test_thmA3_builds_and_isolates_only_its_pair(monkeypatch):
    """thmA-3 builds and isolates exactly its two polynomials per point on the
    criterion-3 grid (it used to build p_(n+1)(a, b) as well and drop it)."""
    built, isolated = [], []
    real_build, real_isolate = verify.little_q_jacobi, verify.isolate_real_roots

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    def counting_isolate(p, eps):
        isolated.append(p.coeffs)
        return real_isolate(p, eps)

    monkeypatch.setattr(verify, "little_q_jacobi", counting_build)
    monkeypatch.setattr(verify, "isolate_real_roots", counting_isolate)
    records = []
    for q in (F(1, 2), F(3, 4)):
        grid = GridSpec(q_values=[q], n_values=[1, 3, 5], a_values=[F(1, 2), F(1)],
                        b_values=[F(-1), F(1, 2)], t_values=default_t_values(q))
        records += check_property("thmA-3", grid)
    assert len(records) == 24 and all(r.status is Status.PASS for r in records)
    assert len(built) == len(isolated) == 48


def test_unknown_check_id_rejected_before_any_check_runs(monkeypatch):
    """run_checks validates every check id before it runs the first check."""
    calls = []
    for name in ("run_identity_on_grid", "check_property"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda cid, grid, real=real: calls.append(cid) or real(cid, grid))
    grid = GridSpec(q_values=[F(9, 10)], n_values=[40], a_values=[F(1, 2)], b_values=[F(-1, 2)],
                    check_ids=["contig-1", "thm2-i", "thm2-lmesh", "no-such-check"])
    with pytest.raises(RegistryError, match="no-such-check"):
        run_checks(grid)
    assert calls == []
    assert verify._RUN_MEMO.get() is None


def test_selftest_is_a_registry_entry():
    """On a grid the self-test runs once at its default point; a direct call
    lists the params it was given and names the corrupted index."""
    records = run_checks(GridSpec(q_values=[Q], n_values=[3], check_ids=[SELFTEST_ID]))
    assert [r.to_json() for r in records] == [{
        "checkId": SELFTEST_ID,
        "params": {"q": "1/2", "n": 2, "a": "1/3", "b": "-1"},
        "status": "Pass",
        "witness": {
            "corrupted_index": 1,
            "inner_status": "Fail",
            "inner_witness": {
                "comparison": "contig-4", "coeff_index": 1, "lhs": "7889/7680", "rhs": "15569/7680",
            },
        },
    }]
    assert check_identity(SELFTEST_ID, {}).params == {}
    for index in (0, 3):
        params = {"q": "1/2", "n": 2, "a": "1/3", "b": "-1", "coeff_index": index}
        rec = check_identity(SELFTEST_ID, params)
        assert rec.status is Status.PASS
        assert rec.params == params
        assert rec.witness["corrupted_index"] == rec.witness["inner_witness"]["coeff_index"] == index
    assert SELFTEST_ID not in identity_check_ids()


def test_table1_polynomials_match_the_row_shapes(monkeypatch):
    """Each row builds its polynomial from the upper a and lower b its samplers
    give; on the default table1 grid that is the polynomial of the row's
    shape in the paper's table."""
    shapes = {**dict.fromkeys(range(1, 7), "2phi1"), 7: "2phi0", **dict.fromkeys((8, 9, 10), "1phi1")}
    built = []
    monkeypatch.setattr(verify, "_in_class_outcome", lambda p, *args: built.append(p) or (Status.PASS, None))
    grid = GridSpec(q_values=[F(1, 4), F(1, 2), F(3, 4)], n_values=[2, 3, 4, 5])
    compared = 0
    for row, shape in shapes.items():
        built.clear()
        records = check_property(f"table1-row-{row}", grid)
        polys = iter(built)
        for rec in records:
            pt = {k: rat(v) for k, v in rec.params.items()}
            upper = (pt["a"],) if shape in ("2phi1", "2phi0") else ()
            lower = (pt["b"],) if shape in ("2phi1", "1phi1") else ()
            assert ("a" in pt, "b" in pt) == (bool(upper), bool(lower)), (row, pt)
            spec = HyperSpec(n=int(pt["n"]), upper=upper, lower=lower, q=pt["q"])
            if rec.status is Status.SKIPPED:
                with pytest.raises(ConstraintViolationError):
                    build_qhyper(spec)
            else:
                assert next(polys) == build_qhyper(spec), (row, rec.params)
                compared += 1
        assert next(polys, None) is None
    assert compared > 300


def test_qderiv_hyper_skip_reason_is_the_series_constraint():
    """qderiv-hyper builds its series through the shared builder, so a lower
    parameter b = q^-1 skips with the constructor's own reason."""
    with pytest.raises(ConstraintViolationError) as exc:
        build_qhyper(HyperSpec(n=2, upper=(F(1, 3),), lower=(F(2),), q=Q))
    rec = check_identity("qderiv-hyper", {"q": Q, "n": 2, "a": F(1, 3), "b": F(2)})
    assert rec.status is Status.SKIPPED
    assert rec.witness == {"reason": str(exc.value)}


def test_orthogonality_tail_bound_near_q_one():
    """At q = 19/20 the probe for the tail bound grows until its own tail sum
    is at most 1/2, so the bound is positive and every pair passes."""
    for b in (F(1, 2), F(-1)):
        grid = GridSpec(q_values=[F(19, 20)], n_values=[1], a_values=[F(1, 2)], b_values=[b])
        records = check_property("orthogonality", grid)
        assert len(records) == 15
        assert all(r.status is Status.PASS for r in records), [r.witness for r in records]
        assert all(float(r.witness["tail_bound"]) > 0 for r in records)
