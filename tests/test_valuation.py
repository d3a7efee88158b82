"""Valuations, their rings and residues, Krasner conditions, coarsening."""

import itertools
import time

import pytest

from hyperfields import hypersets as hs
from hyperfields.finite import (build_K, build_S, build_W, build_finite_field,
                                find_isomorphism, is_field)
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, LTContext)
from hyperfields.ordgroup import ConvexSubgroup, Cut, invariance_group
from hyperfields.tropical import TropicalHyperfield
from hyperfields.valuation import (FiniteBackend, RingPredicate, Valuation,
                                   check_coarsening_theorem,
                                   check_krasner, check_superiorly_canonical,
                                   coarsening, compare_rings,
                                   induced_norm_cut, induced_ring,
                                   intrinsic_valuation, is_valuation,
                                   is_valuation_hyperring, maximal_ideal,
                                   residue_embedding_check, residue_hyperfield,
                                   table_valuation, trivial_valuation,
                                   ultrametric_report, unit_group,
                                   valuation_ring)


# -- the valuation axioms ---------------------------------------------------------

def test_trivial_valuation_on_finite_hyperfields():
    for F in (build_K(), build_S(), build_finite_field(5)):
        backend = FiniteBackend(F)
        rep = is_valuation(backend, trivial_valuation(backend))
        assert rep.ok, rep.failed()


def test_intrinsic_valuations_pass_everywhere():
    backends = [LTContext(2, 1), LTContext(3, 0), CompositeContext(2),
                CollapsedConstantsContext(), TropicalHyperfield(1),
                TropicalHyperfield(1, strict=True)]
    for backend in backends:
        rep = is_valuation(backend, intrinsic_valuation(backend), bound=2)
        assert rep.ok, (backend.describe(), rep.failed())
    # the window bound defaults to 3
    T = TropicalHyperfield(1)
    assert is_valuation(T, intrinsic_valuation(T)).window == {"bound": 3}


def test_broken_table_fails_both_routes_consistently():
    backend = FiniteBackend(build_finite_field(5))
    table = {0: None, 1: (0,), 2: (1,), 3: (0,), 4: (0,)}
    rep = is_valuation(backend, table_valuation(backend, table, rank=1))
    assert not rep.ok
    failed = {c.axiom for c in rep.failed()}
    assert "V2" in failed and "HH2" in failed


def test_value_map_must_send_only_zero_to_infinity():
    backend = FiniteBackend(build_S())
    table = {0: None, 1: (), 2: None}
    rep = is_valuation(backend, table_valuation(backend, table, rank=0))
    assert not rep.check("V1").passed


def test_intrinsic_is_read_off_the_map():
    # only the backend's own value map is intrinsic, whichever constructor made it
    for backend in (FiniteBackend(build_S()), LTContext(2, 1), CompositeContext(2),
                    CollapsedConstantsContext(), TropicalHyperfield(0),
                    TropicalHyperfield(2, strict=True)):
        iv = intrinsic_valuation(backend)
        rank = iv.rank
        table = table_valuation(backend, {}, rank)
        assert iv.intrinsic and Valuation(backend, rank, backend.value_of).intrinsic
        assert not Valuation(backend, rank, lambda x: iv(x)).intrinsic
        assert not table.intrinsic
        assert trivial_valuation(backend).intrinsic == (backend.value_rank == 0)
        for k in range(rank + 1):
            assert coarsening(iv, ConvexSubgroup(rank, k)).intrinsic == (k == rank)
        assert not coarsening(table, ConvexSubgroup(rank, rank)).intrinsic


def test_surjectivity_observation_on_the_window():
    ctx = LTContext(2, 0)
    rep = is_valuation(ctx, intrinsic_valuation(ctx), bound=2)
    assert rep.check("surjective-on-window").passed


def test_composite_valuation_within_budget():
    # 24,025 window pairs; the per-tuple loops took 0.39-0.8 s on a 2-vCPU
    # Xeon (Python 3.11), the compiled window 0.11-0.2 s.
    ctx = CompositeContext(2)
    t0 = time.perf_counter()
    rep = is_valuation(ctx, intrinsic_valuation(ctx), bound=3)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.failed()
    assert dt < 0.38, f"is_valuation on the composite carrier took {dt:.2f}s"


# -- rings ------------------------------------------------------------------------

def test_trivial_ring_is_everything():
    backend = FiniteBackend(build_S())
    v = trivial_valuation(backend)
    O = valuation_ring(backend, v)
    assert O.members() == [0, 1, 2]
    assert maximal_ideal(backend, v).members() == [0]
    assert unit_group(backend, v).members() == [1, 2]
    assert is_valuation_hyperring(backend, O).ok


def test_intrinsic_ring_on_leading_terms():
    ctx = LTContext(3, 1)
    v = intrinsic_valuation(ctx)
    O = valuation_ring(ctx, v)
    assert O.contains(None) and O.contains(ctx.one)
    assert O.contains(ctx.elem(2, (1, 0))) and not O.contains(ctx.elem(-1, (1, 0)))
    assert is_valuation_hyperring(ctx, O, bound=1).ok
    M = maximal_ideal(ctx, v)
    assert M.contains(ctx.elem(1, (2, 2))) and not M.contains(ctx.one)


def test_no_proper_valuation_hyperrings_on_small_hyperfields():
    """Exhaustive subset scan: only the whole carrier survives."""
    for F in (build_K(), build_S(), build_finite_field(5)):
        backend = FiniteBackend(F)
        rest = [x for x in range(1, F.size) if x != 1]
        good = []
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                O = frozenset({0, 1} | set(combo))
                pred = lambda x, O=O: x in O
                if is_valuation_hyperring(backend, RingPredicate(backend, pred, "O")).ok:
                    good.append(O)
        assert good == [frozenset(range(F.size))]


def test_valuation_hyperring_names_its_first_failure():
    # {0, 1, 4} in F5 is closed under products (4 = -1), but 1 - 4 = 2 is not
    # inside, and neither 2 nor its inverse 3 is.
    backend = FiniteBackend(build_finite_field(5))
    O = RingPredicate(backend, lambda x: x in {0, 1, 4}, "O")
    rep = is_valuation_hyperring(backend, O)
    assert not rep.ok
    assert [c.axiom for c in rep.checks] == ["VR1", "VR2", "VR3", "VR4"]
    assert [c.axiom for c in rep.failed()] == ["VR3", "VR4"]
    assert rep.check("VR3").witness == ("1", "4", "2")
    assert rep.check("VR4").witness == ("2",)
    rep = is_valuation_hyperring(backend, RingPredicate(backend, lambda x: x != 1, "O"))
    assert rep.failed()[0].axiom == "VR1" and rep.check("VR1").witness == ("1",)


def test_equivalence_is_ring_equality():
    ctx = LTContext(2, 0)
    v = intrinsic_valuation(ctx)
    O = valuation_ring(ctx, v)
    rep = compare_rings(ctx, O, valuation_ring(ctx, coarsening(v, ConvexSubgroup(1, 1))), 2)
    assert rep.ok and rep.check("SAME-RING").witness is None
    rep = compare_rings(ctx, O, valuation_ring(ctx, trivial_valuation(ctx)), 2)
    assert not rep.ok
    assert rep.window == {"bound": 2, "elements": 6}
    assert rep.check("SAME-RING").witness == {"value": -2, "coeffs": [1]}


def test_compare_rings_on_the_composite_window():
    ctx = CompositeContext(2)
    w = intrinsic_valuation(ctx)
    u = coarsening(w, invariance_group(ctx.norm_cut()))
    rep = compare_rings(ctx, valuation_ring(ctx, w), valuation_ring(ctx, u), 2)
    assert not rep.ok
    assert rep.window == {"bound": 2, "elements": 111}
    assert rep.check("SAME-RING").witness == {"n": 0, "c": "-3/2"}
    assert rep.mode == "bounded verification"
    rep = compare_rings(ctx, valuation_ring(ctx, u), induced_ring(ctx), 2)
    assert rep.ok and rep.window == {"bound": 2, "elements": 111}


def test_compare_rings_is_exhaustive_on_finite_backends():
    backend = FiniteBackend(build_S())
    O = valuation_ring(backend, trivial_valuation(backend))
    rep = compare_rings(backend, O, RingPredicate(backend, lambda x: x != 2, "O"), 0)
    assert rep.mode == "proof by exhaustion"
    assert rep.check("SAME-RING").witness == "-1"


# -- residue hyperfields -------------------------------------------------------------

def test_residue_of_leading_terms_is_the_base_field():
    for q, gamma in ((2, 0), (2, 1), (3, 0), (3, 1)):
        ctx = LTContext(q, gamma)
        R = residue_hyperfield(ctx, intrinsic_valuation(ctx), bound=1)
        assert R.size == q
        assert find_isomorphism(R, build_finite_field(q)) is not None


def test_residue_of_collapsed_constants_is_K():
    ctx = CollapsedConstantsContext()
    R = residue_hyperfield(ctx, intrinsic_valuation(ctx), bound=2)
    assert find_isomorphism(R, build_K()) is not None
    assert not is_field(R)


def test_residue_of_composite_is_F2():
    ctx = CompositeContext(2)
    R = residue_hyperfield(ctx, intrinsic_valuation(ctx), bound=1)
    assert find_isomorphism(R, build_finite_field(2)) is not None


def test_residue_of_tropical_depends_on_strictness():
    T = TropicalHyperfield(1)
    R = residue_hyperfield(T, intrinsic_valuation(T), bound=2)
    assert find_isomorphism(R, build_K()) is not None
    Ts = TropicalHyperfield(1, strict=True)
    Rs = residue_hyperfield(Ts, intrinsic_valuation(Ts), bound=2)
    assert find_isomorphism(Rs, build_finite_field(2)) is not None


def test_residue_of_trivial_valuation_is_the_hyperfield_itself():
    F = build_finite_field(5)
    backend = FiniteBackend(F)
    R = residue_hyperfield(backend, trivial_valuation(backend))
    assert find_isomorphism(R, F) is not None


@pytest.mark.parametrize("bound", (1, 2))
@pytest.mark.parametrize("level", (0, 1, 2))
@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_residue_embedding_only_at_level_zero(q, level, bound):
    assert residue_embedding_check(LTContext(q, level), bound).ok == (level == 0)


def test_residue_embedding_names_the_shared_class():
    # At level 1 the units (1,0) and (1,1) of LT(2,1) differ by a value-1
    # element, so they share a residue class and the section is undefined.
    rep = residue_embedding_check(LTContext(2, 1), 1)
    assert [c.axiom for c in rep.failed()] == ["RE1"]
    assert rep.check("RE1").witness == ({"value": 0, "coeffs": [1, 1]},
                                        {"value": 0, "coeffs": [1, 0]})
    assert rep.skipped == ["RE2: the section is not well defined"]
    rep = residue_embedding_check(LTContext(3, 0), 1)
    assert [c.axiom for c in rep.checks] == ["RE1", "RE2"] and rep.ok
    # the window bound defaults to 2
    assert residue_embedding_check(LTContext(3, 0)).window == {"bound": 2}


def test_a_report_has_no_truth_value():
    ctx = LTContext(2, 0)
    rep = residue_embedding_check(ctx, 1)
    with pytest.raises(TypeError, match="read .ok"):
        bool(rep)
    with pytest.raises(TypeError):
        assert is_valuation_hyperring(ctx, valuation_ring(ctx, intrinsic_valuation(ctx)), 1)


# -- Krasner conditions ---------------------------------------------------------------

def test_leading_terms_are_krasner():
    for q, gamma in ((2, 0), (2, 1), (3, 1)):
        ctx = LTContext(q, gamma)
        rep = check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=1)
        assert rep.ok, (q, gamma, rep.failed())
    # the window bound defaults to 2
    assert check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut()).window == {"bound": 2}


def test_composite_is_krasner():
    ctx = CompositeContext(2)
    rep = check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=1)
    assert rep.ok, rep.failed()


def test_trivial_valuation_is_krasner_exactly_on_fields():
    for F, want in ((build_finite_field(3), True), (build_finite_field(4), True),
                    (build_K(), False), (build_S(), False)):
        backend = FiniteBackend(F)
        rep = check_krasner(backend, trivial_valuation(backend), Cut.whole(0))
        assert rep.ok == want, F.meta
        if not want:
            assert rep.check("KVH2").witness is not None


def test_strict_tropical_is_krasner_but_inclusive_is_not():
    rho = Cut.le(1, (0,))
    Ts = TropicalHyperfield(1, strict=True)
    assert check_krasner(Ts, intrinsic_valuation(Ts), rho, bound=2).ok
    T = TropicalHyperfield(1)
    rep = check_krasner(T, intrinsic_valuation(T), rho, bound=2)
    assert not rep.check("KVH2").passed


def test_collapsed_constants_fail_kvh2():
    ctx = CollapsedConstantsContext()
    rep = check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=2)
    assert rep.check("KVH1").passed
    assert not rep.check("KVH2").passed


def test_krasner_preconditions():
    ctx = LTContext(2, 0)
    with pytest.raises(ValueError):
        check_krasner(ctx, trivial_valuation(ctx), ctx.norm_cut())
    # a map of the right rank that is not the carrier's own
    with pytest.raises(ValueError, match="intrinsic"):
        check_krasner(ctx, table_valuation(ctx, {}, 1), ctx.norm_cut())
    with pytest.raises(ValueError):
        check_krasner(ctx, intrinsic_valuation(ctx), Cut.le(1, (-1,)))
    with pytest.raises(ValueError):
        check_krasner(ctx, intrinsic_valuation(ctx), Cut.empty(1))
    # on a rank-0 value group the whole cut is the one norm, the empty cut none
    backend = FiniteBackend(build_finite_field(3))
    assert check_krasner(backend, trivial_valuation(backend), Cut.whole(0)).ok
    with pytest.raises(ValueError, match="initial segment containing 0"):
        check_krasner(backend, trivial_valuation(backend), Cut.empty(0))


def test_krasner_refuses_a_norm_of_another_rank():
    ctx = LTContext(2, 0)
    with pytest.raises(ValueError, match="norm rank mismatch"):
        check_krasner(ctx, intrinsic_valuation(ctx), Cut.le(2, (0,)))


def test_composite_krasner_within_budget():
    ctx = CompositeContext(2)
    t0 = time.perf_counter()
    rep = check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=2)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.failed()
    assert dt < 3.0, f"check_krasner on the composite carrier took {dt:.2f}s"


# -- ultrametrics -----------------------------------------------------------------------

def test_ultrametric_report_passes_for_krasner_structures():
    ctx = LTContext(2, 1)
    rep = ultrametric_report(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=1)
    assert rep.ok, rep.failed()
    for axiom in ("U1", "U2", "U3", "BALL", "BALL-CHAIN"):
        assert rep.check(axiom).passed


def test_lt_ultrametric_within_budget():
    ctx = LTContext(3, 2)
    t0 = time.perf_counter()
    rep = ultrametric_report(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=2)
    dt = time.perf_counter() - t0
    assert rep.ok, rep.failed()
    assert dt < 1.0, f"ultrametric_report on LT(3,2) took {dt:.2f}s"


def test_ball_identity_fails_without_krasner():
    backend = FiniteBackend(build_K())
    rep = ultrametric_report(backend, trivial_valuation(backend), Cut.whole(0))
    assert rep.check("U1").passed and rep.check("U3").passed
    assert not rep.check("BALL").passed

    ctx = CollapsedConstantsContext()
    rep = ultrametric_report(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), bound=2)
    assert not rep.check("BALL").passed


def test_ultrametric_report_requires_the_intrinsic_valuation():
    ctx = LTContext(2, 0)
    with pytest.raises(ValueError, match="built from the intrinsic valuation"):
        ultrametric_report(ctx, trivial_valuation(ctx), ctx.norm_cut())


# -- superior canonicity ----------------------------------------------------------------

def test_leading_terms_are_superiorly_canonical():
    for backend in (LTContext(2, 1), LTContext(3, 0), CompositeContext(2),
                    TropicalHyperfield(1, strict=True)):
        rep = check_superiorly_canonical(backend, bound=1)
        assert rep.ok, (backend.describe(), rep.failed())


def test_sch1_fails_for_inclusive_tropical_and_sign_structures():
    rep = check_superiorly_canonical(TropicalHyperfield(1), bound=2)
    assert not rep.check("SCH1").passed
    assert rep.check("SCH1").witness is not None
    for F in (build_K(), build_S(), build_W()):
        rep = check_superiorly_canonical(FiniteBackend(F))
        assert not rep.check("SCH1").passed, F.meta
    # the window bound defaults to 2
    assert check_superiorly_canonical(TropicalHyperfield(1)).window == {"bound": 2}


def test_fields_are_superiorly_canonical():
    rep = check_superiorly_canonical(FiniteBackend(build_finite_field(4)))
    assert rep.ok, rep.failed()


def test_lt_superior_canonicity_within_budget():
    # |U| = 91; the per-tuple loops took 0.16-0.3 s on a 2-vCPU Xeon
    # (Python 3.11), the compiled window 0.03-0.05 s.  Best of 3, so that
    # one scheduling stall does not fail the budget.
    ctx = LTContext(3, 2)

    def timed():
        t0 = time.perf_counter()
        rep = check_superiorly_canonical(ctx, bound=2)
        dt = time.perf_counter() - t0
        assert rep.ok, rep.failed()
        return dt

    dt = min(timed() for _ in range(3))
    assert dt < 0.12, f"check_superiorly_canonical on LT(3,2) took {dt:.2f}s"


# -- induced ring and coarsening -----------------------------------------------------------

def test_induced_ring_of_leading_terms_is_the_valuation_ring():
    for ctx in (LTContext(2, 0), LTContext(2, 1), LTContext(3, 1)):
        O = valuation_ring(ctx, intrinsic_valuation(ctx))
        assert compare_rings(ctx, O, induced_ring(ctx), 2).ok
        assert induced_norm_cut(ctx) == ctx.norm_cut()
    for p in (2, 3):
        ctx = CompositeContext(p)
        assert induced_norm_cut(ctx) == ctx.norm_cut()
    # the cut of 1 - 1 misses 0 exactly where 1 lies in 1 - 1
    assert induced_norm_cut(TropicalHyperfield(1, strict=True)) == Cut.le(1, (0,))
    for ctx in (TropicalHyperfield(1), CollapsedConstantsContext()):
        assert induced_norm_cut(ctx) == Cut.le(1, (-1,))


def test_induced_norm_needs_full_cancellation():
    with pytest.raises(ValueError):
        induced_norm_cut(FiniteBackend(build_finite_field(3)))


def test_krasner_norm_is_exactly_the_cut_of_one_minus_one():
    # a norm one step below the forced one calls some t close that x + y
    # lacks; one step above, some member of x + y is not close
    ctx = LTContext(3, 1)
    v, rho = intrinsic_valuation(ctx), induced_norm_cut(ctx)
    assert rho == Cut.le(1, (1,)) and check_krasner(ctx, v, rho, 1).ok
    for b, note in ((0, "distance bound without membership"),
                    (2, "membership without the distance bound")):
        kvh2 = check_krasner(ctx, v, Cut.le(1, (b,)), 1).check("KVH2")
        assert not kvh2.passed and kvh2.note == note, b

def test_windowed_norm_sweep_agrees_with_the_cut_of_one_minus_one():
    # the windowed reference for the exact verdict: where the cut of 1 - 1
    # misses 0, every norm {m <= b} fails KVH2 in every window
    for ctx in (CollapsedConstantsContext(), TropicalHyperfield(1)):
        v = intrinsic_valuation(ctx)
        exact = induced_norm_cut(ctx).contains((0,))
        assert exact is False
        for B in range(6):
            for b in range(B + 1):
                rep = check_krasner(ctx, v, Cut.le(1, (b,)), B)
                assert rep.ok is exact and not rep.check("KVH2").passed, (ctx, B, b)
    strict = TropicalHyperfield(1, strict=True)
    rho = induced_norm_cut(strict)
    for B in range(6):
        assert check_krasner(strict, intrinsic_valuation(strict), rho, B).ok, B


def test_coarsening_projects_the_value():
    ctx = CompositeContext(2)
    v = intrinsic_valuation(ctx)
    u = coarsening(v, ConvexSubgroup(2, 1))
    assert u.rank == 1
    x = ctx.elem(0, "1/2")
    assert v(x) == (0, -1) and u(x) == (0,)
    assert not v.ge_zero(x) and u.ge_zero(x)
    with pytest.raises(ValueError):
        coarsening(v, ConvexSubgroup(1, 1))


def test_signs_of_values_follow_the_value_order_at_every_rank():
    for backend in (FiniteBackend(build_S()), TropicalHyperfield(1), CompositeContext(2),
                    TropicalHyperfield(3)):
        v = intrinsic_valuation(backend)
        zero = (0,) * v.rank
        for x in backend.elements(1):
            vx = v(x)
            assert v.ge_zero(x) == (vx is None or vx >= zero), x
            assert v.gt_zero(x) == (vx is None or vx > zero), x


def test_signs_of_a_value_of_another_rank_raise():
    # (0, -1) > (0,) and (0, 0) != (0,) as tuples, but read at rank 1 neither
    # is a value at all
    ctx = LTContext(2, 1)
    one = ctx.one
    for table in ({one: (0, -1), None: None}, {one: (), None: None},
                  {one: (0, 0), None: None}):
        v = table_valuation(ctx, table, rank=1)
        for sign in (v.ge_zero, v.gt_zero, valuation_ring(ctx, v).contains,
                     maximal_ideal(ctx, v).contains, unit_group(ctx, v).contains):
            with pytest.raises(ValueError, match="rank mismatch"):
                sign(one)
        assert v.ge_zero(None) and v.gt_zero(None)
        assert not unit_group(ctx, v).contains(None)


def test_units_are_the_elements_of_value_zero_asked_once_each():
    for backend in (FiniteBackend(build_S()), TropicalHyperfield(1), CompositeContext(2),
                    TropicalHyperfield(3)):
        v = intrinsic_valuation(backend)
        calls = []
        units = unit_group(backend, Valuation(backend, v.rank,
                                              lambda x: calls.append(x) or v(x)))
        zero = (0,) * v.rank
        for x in backend.elements(1):
            calls.clear()
            assert units.contains(x) == (v(x) == zero), x
            assert calls == [x]


def test_hh2_reports_the_v2_witness():
    backend = FiniteBackend(build_finite_field(5))
    for table in ({0: None, 1: (0,), 2: (1,), 3: (0,), 4: (0,)},
                  {0: None, 1: (0,), 2: (0,), 3: (0,), 4: (2,)}):
        rep = is_valuation(backend, table_valuation(backend, table, rank=1))
        assert not rep.check("V2").passed
        assert rep.check("HH2").witness == rep.check("V2").witness


def test_composite_coarsening_theorem():
    ctx = CompositeContext(2)
    v = intrinsic_valuation(ctx)
    rho = ctx.norm_cut()
    delta = invariance_group(rho)
    assert delta == ConvexSubgroup(2, 1)
    u = coarsening(v, delta)
    O_v = valuation_ring(ctx, v)
    assert not compare_rings(ctx, O_v, valuation_ring(ctx, u), 2).ok
    assert check_coarsening_theorem(ctx, v, rho, bound=2) is True
    # O_v sits strictly inside O_u; the induced ring recovers O_u, not O_v
    assert not compare_rings(ctx, O_v, induced_ring(ctx), 2).ok


def test_kgamma_coarsening_theorem_is_the_identity_case():
    for gamma in (0, 1):
        ctx = LTContext(3, gamma)
        v = intrinsic_valuation(ctx)
        rho = ctx.norm_cut()
        assert invariance_group(rho) == ConvexSubgroup(1, 1)
        assert check_coarsening_theorem(ctx, v, rho, bound=2) is True


# -- work done once per distinct input ---------------------------------------------------

def _count_adds(ctx) -> list:
    """Count ctx's hypersums from here on, in the returned one-item list."""
    calls, add = [0], ctx.add

    def counted(x, y):
        calls[0] += 1
        return add(x, y)

    ctx.add = counted
    return calls


def test_krasner_reads_differences_from_the_window_sums():
    # Making every z - t afresh took 19,838 adds here (2.4 n^2).
    ctx = LTContext(3, 2)
    n = len(ctx.elements(2))
    assert n == 91
    calls = _count_adds(ctx)
    assert check_krasner(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), 2).ok
    assert calls[0] < 1.5 * n * n, calls[0]


def test_ultrametric_reads_differences_from_the_window_sums():
    # Making every x - y and every ball's sum afresh took 17,198 adds here.
    ctx = LTContext(3, 2)
    n = len(ctx.elements(2))
    calls = _count_adds(ctx)
    assert ultrametric_report(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), 2).ok
    assert calls[0] < 1.2 * n * n, calls[0]


def test_coarsening_decides_inclusion_once_per_difference(monkeypatch):
    # x - x depends on v(x) alone here, so the induced ring meets one
    # hyperset per window value; deciding each element took 379 subset calls.
    ctx = LTContext(3, 2)
    U = ctx.elements(10)
    assert len(U) == 379
    subset, calls = hs.subset, [0]

    def counted(*args):
        calls[0] += 1
        return subset(*args)

    monkeypatch.setattr(hs, "subset", counted)
    assert check_coarsening_theorem(ctx, intrinsic_valuation(ctx), ctx.norm_cut(), 10) is True
    assert calls[0] <= len({ctx.value_of(x) for x in U}) + 1, calls[0]


def test_valuation_ring_cross_checks_each_value_once(monkeypatch):
    ctx = LTContext(3, 1)
    v = intrinsic_valuation(ctx)
    contains, calls = hs.contains, [0]

    def counted(*args):
        calls[0] += 1
        return contains(*args)

    monkeypatch.setattr(hs, "contains", counted)
    O = valuation_ring(ctx, v)
    U = ctx.elements(3)
    assert [O.contains(x) for x in U] == [v.ge_zero(x) for x in U]
    assert calls[0] == len({v(x) for x in U})


def test_valuation_ring_raises_on_every_read_of_a_disputed_value(monkeypatch):
    """A value whose two routes disagree keeps no verdict: each read asks
    both routes again and raises, while an agreed value is asked once."""
    ctx = LTContext(2, 0)
    v = intrinsic_valuation(ctx)
    contains, asked = hs.contains, []

    def disputed(s, val, value_of):
        asked.append(val)
        return contains(s, val, value_of) != (val == (1,))

    monkeypatch.setattr(hs, "contains", disputed)
    O = valuation_ring(ctx, v)
    x, y = ctx.elem(1, (1,)), ctx.elem(-1, (1,))
    for _ in range(3):
        with pytest.raises(RuntimeError, match="O_v disagrees"):
            O.contains(x)
        assert O.contains(y) is False
    assert asked == [(1,), (-1,), (1,), (1,)]


def test_residue_cells_that_are_rays_need_the_intrinsic_valuation():
    # the identity map, but not the backend's own value_of: 1 + 1 is a ray
    T = TropicalHyperfield(1)
    v = Valuation(T, 1, lambda x: x, "identity")
    assert not v.intrinsic
    with pytest.raises(NotImplementedError,
                       match="symbolic residue cells need the intrinsic valuation"):
        residue_hyperfield(T, v, 1)
