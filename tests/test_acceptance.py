"""Acceptance gate: the eleven release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a single test with its stated runtime budget enforced.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

from hyperfields import hypersets as hs
from hyperfields.cli import SCENARIOS
from hyperfields.finite import (build_K, build_S, build_W, build_finite_field,
                                classify, enumerate_hyperfields,
                                find_isomorphism, is_field,
                                quotient_hyperfield, squares_subgroup,
                                subgroup_closure, validate)
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, LTContext)
from hyperfields.ordgroup import ConvexSubgroup, invariance_group
from hyperfields.tropical import tropical_axiom_suite
from hyperfields.valuation import (FiniteBackend, check_coarsening_theorem,
                                   check_krasner, check_superiorly_canonical,
                                   coarsening, compare_rings, induced_ring,
                                   intrinsic_valuation,
                                   residue_embedding_check, residue_hyperfield,
                                   ultrametric_report, valuation_ring)

from oracles import lift_sum_cosets

GOLDEN = Path(__file__).parent / "golden"


def record(num: int, slug: str, ok: bool, t0: float, budget: float | None = None):
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)")
    assert ok, f"criterion {num} ({slug}) failed"
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"


def _all_subgroups(F):
    seen = {}
    for u in F.units:
        T = subgroup_closure(F, [u])
        seen[T] = sorted(T)
    return list(seen)


def test_criterion_01_axiom_suites():
    t0 = time.monotonic()
    ok = True
    for F in (build_K(), build_S(), build_W()):
        ok = ok and validate(F).ok
    for q in (2, 3, 4, 5, 7, 9):
        ok = ok and validate(build_finite_field(q)).ok
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        F = build_finite_field(q)
        for T in _all_subgroups(F):
            ok = ok and validate(quotient_hyperfield(F, T)).ok
    ok = ok and tropical_axiom_suite(1, bound=3).ok
    ok = ok and tropical_axiom_suite(1, bound=3, strict=True).ok
    ok = ok and tropical_axiom_suite(2, bound=3).ok
    record(1, "axiom-suites", ok, t0, budget=10.0)


def test_criterion_02_quotient_isomorphisms():
    t0 = time.monotonic()
    K, W = build_K(), build_W()
    ok = True
    for q in (3, 4, 5, 7, 9):
        F = build_finite_field(q)
        Q = quotient_hyperfield(F, F.units)
        ok = ok and find_isomorphism(Q, K) is not None
    for p, want in ((7, True), (11, True), (19, True), (23, True),
                    (5, False), (13, False)):
        F = build_finite_field(p)
        Q = quotient_hyperfield(F, squares_subgroup(F))
        ok = ok and (find_isomorphism(Q, W) is not None) == want
    record(2, "quotient-isomorphisms", ok, t0, budget=5.0)


def _enumeration():
    out = []
    for order in (2, 3, 4):
        out.extend(enumerate_hyperfields(order))
    return out


def test_criterion_03_field_iff_singletons():
    t0 = time.monotonic()
    ok = True
    for F in _enumeration():
        singleton = all(len(F.add_cell(x, y)) == 1
                        for x in range(F.size) for y in range(F.size))
        ok = ok and is_field(F) == singleton
    record(3, "field-iff-singleton-cells", ok, t0)


def test_criterion_04_superiorly_canonical_iff_field():
    t0 = time.monotonic()
    ok = all(classify(F).superiorly_canonical == is_field(F)
             for F in _enumeration())
    for F in (build_S(), build_W(), build_K()):
        sch1 = check_superiorly_canonical(FiniteBackend(F)).check("SCH1")
        ok = ok and not sch1.passed and sch1.witness is not None
    record(4, "superiorly-canonical-iff-field", ok, t0)


def test_criterion_05_K_characterization():
    t0 = time.monotonic()
    K = build_K()
    ok = True
    for F in _enumeration():
        c = classify(F)
        lhs = c.stringent and c.char2 and c.cchar1
        ok = ok and lhs == (find_isomorphism(F, K) is not None)
    record(5, "tropical-extension-characterization", ok, t0)


def _add_matches_oracle(ctx, x, y) -> bool:
    got = ctx.add(x, y)
    oracle, horizon = lift_sum_cosets(ctx, x, y)
    if isinstance(got, hs.Singleton):
        return oracle == {got.elem}
    if isinstance(got, hs.FiniteSet):
        return oracle == set(got.elems)
    if not isinstance(got, hs.AboveValue):
        return False
    lo = min(x.value, y.value) - 1
    universe = [None] + [u for m in range(lo, horizon + 1)
                         for u in ctx.elements_with_value(m)]
    return all(hs.contains(got, u, ctx.value_of) == (u in oracle)
               for u in universe)


def test_criterion_06_krasner_backend():
    t0 = time.monotonic()
    ok = True
    for q, gamma in itertools.product((2, 3), (0, 1, 2)):
        ctx = LTContext(q, gamma)
        v = intrinsic_valuation(ctx)
        U = ctx.elements(2)
        ok = ok and all(_add_matches_oracle(ctx, x, y)
                        for x in U for y in U)
        ok = ok and check_krasner(ctx, v, ctx.norm_cut(), bound=2).ok
        ok = ok and check_superiorly_canonical(ctx, bound=2).ok
        R = residue_hyperfield(ctx, v, bound=2)
        ok = ok and is_field(R) and R.size == q
        ok = ok and ultrametric_report(ctx, v, ctx.norm_cut(), bound=2).ok
    record(6, "krasner-backend-correctness", ok, t0, budget=60.0)


def test_criterion_07_collapsed_constants():
    t0 = time.monotonic()
    ctx = CollapsedConstantsContext()
    v = intrinsic_valuation(ctx)
    R = residue_hyperfield(ctx, v, bound=2)
    ok = find_isomorphism(R, build_K()) is not None
    ok = ok and not check_krasner(ctx, v, ctx.norm_cut(), bound=2).ok
    record(7, "collapsed-constants-not-krasner", ok, t0)


def test_criterion_08_composite_coarsening():
    t0 = time.monotonic()
    ctx = CompositeContext(2)
    w = intrinsic_valuation(ctx)
    rho = ctx.norm_cut()
    delta = invariance_group(rho)
    u = coarsening(w, delta)
    witness = ctx.elem(0, "1/2")
    U = ctx.elements(3)
    ok = u.ge_zero(witness) and not w.ge_zero(witness)
    ok = ok and all(u.ge_zero(x) for x in U if w.ge_zero(x))
    ok = ok and not compare_rings(ctx, valuation_ring(ctx, w),
                                  valuation_ring(ctx, u), 3).ok
    ok = ok and delta == ConvexSubgroup(2, 1)
    ok = ok and check_coarsening_theorem(ctx, w, rho, bound=3)
    record(8, "composite-coarsening", ok, t0, budget=30.0)


def test_criterion_09_induced_ring_matches():
    t0 = time.monotonic()
    ok = True
    for gamma in (0, 1):
        ctx = LTContext(3, gamma)
        ok = ok and compare_rings(ctx, valuation_ring(ctx, intrinsic_valuation(ctx)),
                                  induced_ring(ctx), 3).ok
    record(9, "induced-ring-trivial-invariance", ok, t0)


def test_criterion_10_residue_embedding():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3):
        ok = ok and residue_embedding_check(LTContext(q, 0)).ok
        ok = ok and not residue_embedding_check(LTContext(q, 1)).ok
    record(10, "residue-embedding-levels", ok, t0)


def test_criterion_11_cli_determinism():
    t0 = time.monotonic()
    ok = True
    for name in sorted(SCENARIOS):
        runs = [subprocess.run(
            [sys.executable, "-m", "hyperfields.cli", "scenario", name],
            capture_output=True, check=False) for _ in range(2)]
        golden = (GOLDEN / f"{name}.json").read_bytes()
        ok = ok and all(r.returncode == 0 for r in runs)
        ok = ok and runs[0].stdout == runs[1].stdout == golden
        ok = ok and json.loads(golden)["passed"] is True
    record(11, "cli-determinism", ok, t0)
