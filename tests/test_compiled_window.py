"""The compiled-window checkers against the loops they replaced.

``check_krasner``, ``ultrametric_report``, ``is_valuation``,
``check_superiorly_canonical`` and ``tropical_axiom_suite`` intern the window
once and compare hypersums as bitmasks or interned ids, and the ring
predicates of ``valuation_ring`` and ``induced_ring`` keep their verdicts.
The references below are the per-tuple (and per-element) loops they used
before, copied unchanged, with their own copies of the helpers they
shared with the checkers (``_ref_all_values_single``, ``_ref_all_above``,
``_ref_distance`` and ``_ref_ball_of``), so that a fault in a helper shows
as a disagreement:
``ref_is_valuation`` imports ``window`` by its absolute name and finds
``_vge`` here, ``ref_ultrametric_report`` keeps d's answers, which only
saves time, and ``ref_tropical_axiom_suite`` reads ``t_add`` through the
``tropical`` module, so that a patched ``t_add`` reaches it as it reaches
the suite and ``_sum_sets``.  Every case must give the same report JSON, or
the same exception type and message.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields import hypersets as hs
from hyperfields import tropical
from hyperfields.finite import (_mult_order, build_K, build_S, build_W,
                                build_finite_field, enumerate_hyperfields,
                                quotient_hyperfield)
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, LTContext)
from hyperfields.ordgroup import (ConvexSubgroup, Cut, gzero, invariance_group,
                                  vadd, value_gt_cut, vcompare, vmin, vneg)
from hyperfields.report import ValidationReport
from hyperfields.tropical import (TropicalHyperfield, _sum_sets, t_add, t_mul,
                                  t_neg, t_value, tropical_axiom_suite)
from hyperfields.valuation import (RingPredicate, Valuation,
                                   check_coarsening_theorem, check_krasner,
                                   coarsening, compare_rings, induced_ring,
                                   intrinsic_valuation, is_valuation,
                                   residue_embedding_check, table_valuation,
                                   trivial_valuation, ultrametric_report,
                                   valuation_ring)
from hyperfields.window import (FiniteBackend, _hs_key, _is_finite, _j, _mode,
                                _Window, check_superiorly_canonical)

ROOT = Path(__file__).resolve().parent.parent


# -- the per-tuple references ------------------------------------------------------

def _ref_all_values_single(backend, s) -> bool:
    """Whether the finite hyperset s has one value."""
    _, values = hs.values_of(s, backend.value_of)
    return len(values) == 1


def _ref_all_above(desc, cut: Cut) -> bool:
    """Does every value the descriptor desc describes lie above cut?"""
    kind, data = desc
    if kind == "above":
        return cut.subseteq(data)
    if data is None:
        return True  # every member is the additive zero
    return value_gt_cut(data, cut)


def _ref_diff_descriptor(backend, z, t, cache):
    """Summary of z - t good enough to decide 'every value above a cut':
    ("vals", least finite value or None when all members are zero) or
    ("above", cut)."""
    key = (z, t)
    if key not in cache:
        s = backend.add(z, backend.neg(t))
        kind, data = hs.values_of(s, backend.value_of)
        if kind == "above":
            cache[key] = ("above", data)
        else:
            finite_vals = [v for v in data if v is not None]
            cache[key] = ("vals", min(finite_vals) if finite_vals else None)
    return cache[key]


def ref_check_krasner(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    if not v.intrinsic or v.rank != backend.value_rank:
        raise ValueError("check_krasner runs against the intrinsic valuation")
    if rho.rank != v.rank:
        raise ValueError("norm rank mismatch")
    if not (rho.is_whole or rho.contains(gzero(rho.rank))) or rho.is_empty:
        raise ValueError("the norm must be an initial segment containing 0")

    U = backend.elements(bound)
    rep = ValidationReport(subject=f"Krasner conditions for {v.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    w = None
    sums = {}
    for x in U:
        for y in U:
            s = backend.add(x, y)
            sums[(x, y)] = s
            if hs.contains(s, backend.zero, backend.value_of):
                continue
            if not _ref_all_values_single(backend, s):
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("KVH1", w is None, w)

    diff_cache: dict = {}
    w = None
    note = ""
    for x in U:
        vx = v(x)
        for y in U:
            if w:
                break
            s = sums[(x, y)]
            m = vmin(vx, v(y))
            shifted = None if m is None else rho.shift(m)
            for z in hs.members(s, U, backend.value_of):
                for t in U:
                    lhs = hs.contains(s, t, backend.value_of)
                    desc = _ref_diff_descriptor(backend, z, t, diff_cache)
                    if shifted is None:
                        rhs = desc == ("vals", None)
                    else:
                        rhs = _ref_all_above(desc, shifted)
                    if lhs != rhs:
                        w = _j(backend, x, y, z, t)
                        note = ("membership without the distance bound"
                                if lhs else "distance bound without membership")
                        break
                if w:
                    break
        if w:
            break
    rep.add("KVH2", w is None, w, note=note)
    rep.observe("norm", True, rho.to_json(), note="initial segment used as the norm")
    return rep


def _kept(d):
    """d with its answers kept: the reference below asks each pair many
    times.  Raising pairs are asked again and raise again."""
    known = {}

    def kept(x, y):
        if (x, y) not in known:
            known[x, y] = d(x, y)
        return known[x, y]

    return kept


def _ref_distance(backend, v: Valuation):
    """d(x, y) = the single value of x - y (None for x = y); a multivalued
    difference, or one holding 0 for distinct x, y, raises."""
    if not v.intrinsic:
        raise ValueError("the ultrametric is built from the intrinsic valuation")

    def d(x, y):
        if x == y:
            return None
        kind, data = hs.values_of(backend.add(x, backend.neg(y)), backend.value_of)
        if kind == "above":
            raise ValueError("0 lies in x-y for distinct x, y; not a "
                             "valid hypergroup difference")
        if len(data) != 1:
            raise ValueError(f"difference has several values {sorted(set(data))}; "
                             "not a Krasner structure")
        return next(iter(data))

    return d


def _ref_ball_of(d, z, cut: Cut):
    """Membership predicate of the ball around z with radius cut:
    everything strictly closer than the cut allows."""
    return lambda t: value_gt_cut(d(z, t), cut)


def ref_ultrametric_report(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    d = _kept(_ref_distance(backend, v))
    U = backend.elements(bound)
    rep = ValidationReport(subject=f"ultrametric of {v.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    w = None
    for x in U:
        if d(x, x) is not None:
            w = _j(backend, x)
            break
        for y in U:
            if x != y and d(x, y) is None:
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("U1", w is None, w)

    w = None
    for x in U:
        for y in U:
            if d(x, y) != d(y, x):
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("U2", w is None, w)

    w = None
    for x in U:
        for y in U:
            dxy = d(x, y)
            for z in U:
                if vcompare(d(x, z), vmin(dxy, d(y, z))) < 0:
                    w = _j(backend, x, y, z)
                    break
            if w:
                break
        if w:
            break
    rep.add("U3", w is None, w)

    w = None
    balls = []
    for x in U:
        vx = v(x)
        for y in U:
            s = backend.add(x, y)
            m = vmin(vx, v(y))
            if m is None:
                continue
            cut = rho.shift(m)
            z = hs.members(s, U, backend.value_of)[0]
            balls.append((z, cut))
            ball = _ref_ball_of(d, z, cut)
            for t in U:
                if hs.contains(s, t, backend.value_of) != ball(t):
                    w = _j(backend, x, y) + (cut.to_json(),)
                    break
            if w:
                break
        if w:
            break
    rep.add("BALL", w is None, w,
            note="x+y equals the ball around each member with radius rho+min")

    w = None
    seen = sorted({(backend.sort_key(z), z, cut) for z, cut in balls},
                  key=lambda item: (item[0], item[2].prefix_len,
                                    item[2].bound, item[2].inclusive))[:40]
    for i, (_, z1, c1) in enumerate(seen):
        b1 = {t for t in U if _ref_ball_of(d, z1, c1)(t)}
        for (_, z2, c2) in seen[i + 1:]:
            b2 = {t for t in U if _ref_ball_of(d, z2, c2)(t)}
            if (b1 & b2) and not (b1 <= b2 or b2 <= b1):
                w = (backend.elem_json(z1), c1.to_json(),
                     backend.elem_json(z2), c2.to_json())
                break
        if w:
            break
    rep.add("BALL-CHAIN", w is None, w,
            note="intersecting balls are nested (windowed sample)")
    return rep


def _vge(a, b) -> bool:
    return vcompare(a, b) >= 0


def ref_is_valuation(backend, v: Valuation, bound: int = 3) -> ValidationReport:
    U = backend.elements(bound)
    rep = ValidationReport(subject=f"{v.describe()}", mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    w = next((_j(backend, x) for x in U if (v(x) is None) != (x == backend.zero)), None)
    rep.add("V1", w is None, w)

    w = None
    for x in U:
        for y in U:
            if v(backend.mul(x, y)) != vadd(v(x), v(y)):
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("V2", w is None, w)

    w = None
    for x in U:
        for y in U:
            s = backend.add(x, y)
            m = vmin(v(x), v(y))
            if v.intrinsic and m is not None and isinstance(s, hs.AboveValue):
                ok = s.cut.all_below_in(m)
            else:
                ok = all(_vge(v(z), m) for z in hs.members(s, U, backend.value_of))
            if not ok:
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("V3", w is None, w)

    v_verdict = rep.ok

    rep.add("HH1", v(backend.zero) is None)
    rep.add("HH4", v(backend.one) == gzero(v.rank))

    w = None
    for x in U:
        for y in U:
            if v(backend.mul(x, y)) != t_mul(v(x), v(y)):
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("HH2", w is None, w)

    w = None
    for x in U:
        for y in U:
            target = t_add(v(x), v(y))
            s = backend.add(x, y)
            for z in hs.members(s, U, backend.value_of):
                if not hs.contains(target, v(z), t_value):
                    w = _j(backend, x, y, z)
                    break
            if w:
                break
        if w:
            break
    rep.add("HH3", w is None, w)

    w = None
    for x in U:
        if x == backend.zero:
            continue
        if v(backend.inv(x)) != vneg(v(x)):
            w = _j(backend, x)
            break
    rep.add("HH5", w is None, w)

    hh_verdict = all(c.passed for c in rep.checks if c.axiom.startswith("HH"))
    if v_verdict != hh_verdict:
        raise RuntimeError(
            "V1..V3 and the induced-homomorphism criteria disagree "
            f"({v_verdict} vs {hh_verdict}); this is a checker bug")

    if v.rank >= 1:
        seen = {v(x) for x in U if v(x) is not None}
        from hyperfields.ordgroup import window as _window
        small = [g for g in _window(v.rank, 1)]
        missing = [g for g in small if g not in seen]
        rep.observe("surjective-on-window", not missing,
                    [list(g) for g in missing] or None,
                    note="every value in [-1,1]^rank is attained")
    return rep


def ref_check_superiorly_canonical(backend, bound: int = 2) -> ValidationReport:
    U = backend.elements(bound)
    val = backend.value_of
    rep = ValidationReport(subject=f"superior canonicity of {backend.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    sums = {}
    for x in U:
        for y in U:
            sums[(x, y)] = backend.add(x, y)

    w = None
    for (x, y), s in sums.items():
        if hs.contains(s, x, val) and not hs.equal(s, hs.Singleton(x)):
            w = _j(backend, x, y)
            break
    rep.add("SCH1", w is None, w, note="x in x+y forces x+y = {x}")

    distinct = {}
    for s in sums.values():
        distinct.setdefault(_hs_key(s), s)
    w = None
    items = sorted(distinct.items())
    for i, (_, a) in enumerate(items):
        for (_, b) in items[i + 1:]:
            if hs.intersects(a, b, val) and not (
                    hs.subset(a, b, val) or hs.subset(b, a, val)):
                w = (repr(a), repr(b))
                break
        if w:
            break
    rep.add("SCH2", w is None, w, note="meeting hypersums are nested")

    selfdiff = {}

    def sd(x):
        if x not in selfdiff:
            selfdiff[x] = backend.add(x, backend.neg(x))
        return selfdiff[x]

    w = None
    for x in U:
        for y in U:
            if x == y:
                continue
            diff = backend.add(x, backend.neg(y))
            base = None
            for z in hs.members(diff, U, val):
                if base is None:
                    base = sd(z)
                elif not hs.equal(sd(z), base):
                    w = _j(backend, x, y)
                    break
            if w:
                break
        if w:
            break
    rep.add("SCH3", w is None, w, note="members of x-y share their z-z set")

    w = None
    for z in U:
        sz = sd(z)
        inner = [x for x in U if hs.contains(sz, x, val)]
        outer = [y for y in U if not hs.contains(sz, y, val)]
        for x in inner:
            for y in outer:
                if not hs.subset(sd(x), sd(y), val):
                    w = _j(backend, x, y, z)
                    break
            if w:
                break
        if w:
            break
    rep.add("SCH4", w is None, w,
            note="x in z-z and y outside force x-x inside y-y")
    return rep


def ref_valuation_ring(backend, v: Valuation) -> RingPredicate:
    zero = gzero(v.rank)
    target = t_add(zero, zero)

    def pred(x):
        val = v(x)
        primary = val is None or val >= zero
        if primary != hs.contains(target, val, t_value):
            raise RuntimeError("O_v disagrees with the preimage of v(1)+v(1)")
        return primary

    return RingPredicate(backend, pred, f"valuation ring of {v.label}")


def ref_induced_ring(backend) -> RingPredicate:
    one_minus_one = backend.add(backend.one, backend.neg(backend.one))

    def pred(x):
        return hs.subset(backend.add(x, backend.neg(x)), one_minus_one,
                         backend.value_of)

    return RingPredicate(backend, pred, "induced ring (x-x inside 1-1)")


def ref_coarsened_rings(backend, v: Valuation, rho: Cut, bound: int) -> ValidationReport:
    """compare_rings on the per-element rings of check_coarsening_theorem."""
    u = coarsening(v, invariance_group(rho))
    return compare_rings(backend, ref_valuation_ring(backend, u),
                         ref_induced_ring(backend), bound)


def coarsened_rings(backend, v: Valuation, rho: Cut, bound: int) -> ValidationReport:
    u = coarsening(v, invariance_group(rho))
    return compare_rings(backend, valuation_ring(backend, u), induced_ring(backend), bound)


def _bool_outcome(checker, *args):
    try:
        return checker(*args)
    except Exception as exc:  # the exception is part of the outcome
        return (type(exc), str(exc))


def _assert_same_rings(backend, v, rho, bound):
    """The memoised ring predicates against the per-element ones: the
    report JSON, check_coarsening_theorem's bool, or the same exception."""
    assert _outcome(coarsened_rings, backend, v, rho, bound) == \
        _outcome(ref_coarsened_rings, backend, v, rho, bound)
    assert _bool_outcome(check_coarsening_theorem, backend, v, rho, bound) == \
        _bool_outcome(lambda *a: ref_coarsened_rings(*a).ok, backend, v, rho, bound)


def ref_tropical_axiom_suite(rank: int, bound: int = 3, strict: bool = False) -> ValidationReport:
    T = TropicalHyperfield(rank, strict)
    U: list = T.elements(bound)
    rep = ValidationReport(
        subject=T.describe(), mode="bounded verification",
        window={"bound": bound, "rank": rank})

    def sadd(x, y):
        return tropical.t_add(x, y, strict)

    j = T.elem_json
    sums = {(x, y): sadd(x, y) for x in U for y in U}

    w = next(((j(x), j(y)) for x in U for y in U
              if not hs.equal(sums[x, y], sums[y, x])), None)
    rep.add("CH2", w is None, w)

    w = None
    for x in U:
        inverses = [u for u in U if hs.contains(sums[x, u], None, t_value)]
        if len(inverses) != 1:
            w = (j(x), [j(u) for u in inverses])
            break
    rep.add("CH3", w is None, w)

    w = next(((j(x), j(y), j(z)) for x in U for y in U
              for z in hs.members(sums[x, y], U, t_value)
              if not hs.contains(sums[z, t_neg(x)], y, t_value)), None)
    rep.add("CH4", w is None, w)

    w = next(((j(x), j(y), j(z)) for x in U for y in U
              for left in (sums[x, y],) for z in U
              if not hs.equal(_sum_sets(left, hs.Singleton(z), strict),
                              _sum_sets(hs.Singleton(x), sums[y, z], strict))),
             None)
    rep.add("CH1", w is None, w)

    def scale(x, s):
        if isinstance(s, hs.Singleton):
            return hs.Singleton(t_mul(x, s.elem))
        if x is None:
            return hs.Singleton(None)
        return hs.AboveValue(s.cut.shift(x))

    w = next(((j(x), j(y), j(z)) for x in U for y in U for z in U
              if not hs.equal(scale(x, sums[y, z]), sadd(t_mul(x, y), t_mul(x, z)))),
             None)
    rep.add("HR3", w is None, w)

    one_plus_one = sadd(T.one, T.one)
    rep.observe("char2", hs.contains(one_plus_one, None, t_value),
                note="0 belongs to 1+1")
    rep.observe("cchar1", hs.contains(one_plus_one, T.one, t_value),
                note="1 belongs to 1+1")
    # Always true (a ray contains infinity); recorded for the classification.
    stringent = all(isinstance(s, hs.Singleton) or hs.contains(s, None, t_value)
                    for s in sums.values())
    rep.observe("stringent", stringent,
                note="every cell avoiding 0 is a singleton")
    return rep


PAIRS = ((check_krasner, ref_check_krasner),
         (ultrametric_report, ref_ultrametric_report))


def _outcome(checker, *args):
    try:
        return json.dumps(checker(*args).to_json(), sort_keys=True)
    except Exception as exc:  # the exception is part of the outcome
        return (type(exc), str(exc))


def _assert_same(backend, v, rho, bound):
    for new, ref in PAIRS:
        assert _outcome(new, backend, v, rho, bound) == \
            _outcome(ref, backend, v, rho, bound), (new.__name__, backend.describe())


# -- wrapper backends ----------------------------------------------------------------

class Wrapped:
    """A backend delegating to ``base``, with every ``step``-th window element
    kept (the zero comes first in every carrier, so it stays) and, optionally,
    one add entry replaced by ``result``."""

    def __init__(self, base, step=1, entry=None, result=None):
        self.base, self.step = base, step
        self.entry, self.result = entry, result
        self.zero, self.one = base.zero, base.one
        self.value_rank = base.value_rank

    def __getattr__(self, name):
        return getattr(self.base, name)

    def elements(self, bound):
        return self.base.elements(bound)[::self.step]

    def add(self, x, y):
        if self.entry is not None and (x, y) == self.entry:
            return self.result
        return self.base.add(x, y)

    def describe(self):
        return f"{self.base.describe()} (wrapped)"


def _norms(rank):
    out = [Cut.whole(rank)]
    if rank:
        out += [Cut.le(rank, (b,)) for b in range(3)]
    if rank >= 2:
        out.append(Cut.le(rank, (0,) * rank))
    return out


# Windows above this many elements are thinned to a sample of about this
# size, so that the per-tuple references stay quick.
SAMPLE = 30


def _carrier_cases():
    cases = []
    for q in (2, 3, 4, 5):
        for gamma in range(4):
            ctx = LTContext(q, gamma)
            for bound in (0, 1):
                n = len(ctx.elements(bound))
                step = -(-n // SAMPLE)
                backend = ctx if step == 1 else Wrapped(ctx, step)
                cases.append((f"lt:{q}:{gamma}:{bound}", backend, bound))
    for p in (2, 3):
        cases.append((f"composite:{p}:0", CompositeContext(p), 0))
        cases.append((f"composite:{p}:1", Wrapped(CompositeContext(p), 3), 1))
    for bound in (0, 1, 2, 3):
        cases.append((f"collapsed:{bound}", CollapsedConstantsContext(), bound))
    for strict in (False, True):
        name = "tropical-strict" if strict else "tropical"
        for rank, bounds in ((1, (0, 1, 3)), (2, (0, 1, 2)), (3, (1,))):
            for bound in bounds:
                cases.append((f"{name}:{rank}:{bound}",
                              TropicalHyperfield(rank, strict), bound))
    return cases


CARRIERS = _carrier_cases()


@pytest.mark.parametrize("name,backend,bound", CARRIERS, ids=[c[0] for c in CARRIERS])
def test_carriers_match_the_references(name, backend, bound):
    v = intrinsic_valuation(backend)
    for rho in _norms(backend.value_rank):
        _assert_same(backend, v, rho, bound)
        _assert_same_rings(backend, v, rho, bound)


FINITE = [build_K(), build_S(), build_W()] + [
    build_finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9)]


@pytest.mark.parametrize("F", FINITE, ids=[repr(F) for F in FINITE])
def test_finite_tables_match_the_references(F):
    backend = FiniteBackend(F)
    _assert_same(backend, trivial_valuation(backend), Cut.whole(0), 0)


# -- is_valuation and check_superiorly_canonical ------------------------------------------

def _override(backend, x0, value):
    """The intrinsic valuation with v(x0) replaced by value."""
    iv = intrinsic_valuation(backend)
    return Valuation(backend, iv.rank, lambda x: value if x == x0 else iv(x),
                     label=f"v with v({backend.elem_json(x0)}) = {value}")


def _maps(backend, bound):
    """The intrinsic and trivial valuations, every proper coarsening and two
    broken maps: table valuations on finite tables, overrides otherwise."""
    iv = intrinsic_valuation(backend)
    maps = [iv, trivial_valuation(backend)]
    maps += [coarsening(iv, ConvexSubgroup(iv.rank, k)) for k in range(iv.rank)]
    U = backend.elements(bound)
    last = U[-1]
    if _is_finite(backend):
        maps.append(table_valuation(
            backend, {x: None if x in (backend.zero, last) else () for x in U}, 0))
        maps.append(table_valuation(
            backend, {x: None if x == backend.zero else (1,) if x == last else (0,)
                      for x in U}, 1))
    else:
        maps += [_override(backend, last, None),
                 _override(backend, last, gzero(iv.rank))]
    return maps


def _proper_quotient(q: int, index: int):
    """F_q / T for the subgroup T of F_q^x of the given index."""
    F = build_finite_field(q)
    return quotient_hyperfield(F, [next(u for u in F.units
                                        if _mult_order(F.mul, u) == (q - 1) // index)])


# Every enumerated class of orders 2-5 and three proper quotients: since
# classify runs check_superiorly_canonical, the old loops are its reference.
VALUATION_CASES = CARRIERS + [
    (repr(F), FiniteBackend(F), 0) for F in FINITE] + [
    (f"enumerated:{order}:{i}", FiniteBackend(F), 0) for order in (2, 3, 4, 5)
    for i, F in enumerate(enumerate_hyperfields(order))] + [
    (f"F{q}/T:{index}", FiniteBackend(_proper_quotient(q, index)), 0)
    for q, index in ((13, 4), (31, 6), (49, 8))]


@pytest.mark.parametrize("name,backend,bound", VALUATION_CASES,
                         ids=[c[0] for c in VALUATION_CASES])
def test_valuation_checkers_match_the_references(name, backend, bound):
    for v in _maps(backend, bound):
        assert _outcome(is_valuation, backend, v, bound) == \
            _outcome(ref_is_valuation, backend, v, bound), v.label
    assert _outcome(check_superiorly_canonical, backend, bound) == \
        _outcome(ref_check_superiorly_canonical, backend, bound)


# -- corrupted add entries -------------------------------------------------------------

BASES = [(LTContext(2, 1), 1), (LTContext(3, 1), 0), (LTContext(2, 2), 1),
         (CompositeContext(2), 0), (TropicalHyperfield(1, strict=True), 2),
         (TropicalHyperfield(2), 1), (CollapsedConstantsContext(), 2),
         (FiniteBackend(build_finite_field(5)), 0), (FiniteBackend(build_W()), 0)]


@st.composite
def corrupted(draw):
    """A base backend, thinned to every step-th window element, with one add
    entry replaced by a hyperset drawn from the window and the elements just
    outside it, a norm and the bound.  A thinned window is not closed under
    negation, so a checker reading x - y from the window sums must make
    some differences afresh."""
    base, bound = draw(st.sampled_from(BASES))
    step = draw(st.sampled_from((1, 2, 3)))
    U = base.elements(bound)
    outside = [x for x in base.elements(bound + 1) if x not in U][:8]
    elem = st.sampled_from(U + outside)
    x, y = draw(st.sampled_from(U)), draw(st.sampled_from(U))
    rank = base.value_rank
    result = draw(st.one_of(
        st.builds(hs.Singleton, elem),
        st.lists(elem, min_size=2, max_size=3, unique=True).map(
            lambda es: hs.FiniteSet(frozenset(es))),
        st.sampled_from(_norms(rank)).map(hs.AboveValue)))
    rho = draw(st.sampled_from(_norms(rank)))
    return Wrapped(base, step=step, entry=(x, y), result=result), rho, bound


def _kvh1_pair(backend, bound):
    """The first window pair whose sum avoids 0 yet has several values."""
    U = backend.elements(bound)
    return next((_j(backend, x, y) for x in U for y in U
                 if not hs.contains(backend.add(x, y), backend.zero, backend.value_of)
                 and not _ref_all_values_single(backend, backend.add(x, y))), None)


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_corrupted_entries_match_the_references(case):
    backend, rho, bound = case
    v = intrinsic_valuation(backend)
    _assert_same_rings(backend, v, rho, bound)
    got = _outcome(ultrametric_report, backend, v, rho, bound)
    assert got == _outcome(ref_ultrametric_report, backend, v, rho, bound)
    got = _outcome(check_krasner, backend, v, rho, bound)
    want = _outcome(ref_check_krasner, backend, v, rho, bound)
    if isinstance(want, tuple) and want[0] is KeyError:
        # The reference looked KVH2 sums up in a table that a failed KVH1
        # left half built; the compiled checker finishes the report.
        rep = json.loads(got)
        kvh1 = next(c for c in rep["checks"] if c["axiom"] == "KVH1")
        assert not kvh1["passed"]
        assert tuple(kvh1["witness"]) == _kvh1_pair(backend, bound)
    else:
        assert got == want


@st.composite
def corrupted_valuations(draw):
    """Either one add entry of a base backend replaced (as in corrupted), with
    the intrinsic valuation, or one value of the intrinsic valuation replaced
    at an element of the window or just outside it."""
    if draw(st.booleans()):
        backend, _, bound = draw(corrupted())
        return backend, intrinsic_valuation(backend), bound
    base, bound = draw(st.sampled_from(BASES))
    U = base.elements(bound)
    outside = [x for x in base.elements(bound + 1) if x not in U][:8]
    x0 = draw(st.sampled_from(U + outside))
    rank = base.value_rank
    value = draw(st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * rank)))
    iv = intrinsic_valuation(base)
    v = Valuation(base, rank, lambda x: value if x == x0 else iv(x),
                  label="corrupted")
    return base, v, bound


@settings(max_examples=100, deadline=None)
@given(corrupted_valuations())
def test_corrupted_valuations_match_the_references(case):
    backend, v, bound = case
    assert _outcome(is_valuation, backend, v, bound) == \
        _outcome(ref_is_valuation, backend, v, bound)
    for rho in _norms(v.rank):
        _assert_same_rings(backend, v, rho, bound)
    assert _outcome(check_superiorly_canonical, backend, bound) == \
        _outcome(ref_check_superiorly_canonical, backend, bound)


LT21 = LTContext(2, 1)
_e = LT21.elem

# One corrupted entry of LT(2,1) per first-witness path, at bound 1 (window
# values -1..1): (entry, replacement hypersum).
WITNESS_CASES = {
    # no corruption: 1 + 1 at level 1 holds two members of value 2
    "out-of-window-z": (None, None),
    "membership-without-bound": ((None, None), hs.Singleton(_e(-1, (1, 0)))),
    "bound-without-membership": ((None, _e(-1, (1, 0))), hs.Singleton(None)),
    "ball": ((None, _e(-1, (1, 0))), hs.Singleton(None)),
    # 1 + 0 moves up a level: the balls around 0 and 1 overlap unnested
    "ball-chain": ((_e(0, (1, 0)), None), hs.Singleton(_e(1, (1, 0)))),
    "out-of-window-witness": ((_e(0, (1, 0)), _e(0, (1, 0))), hs.FiniteSet(
        frozenset([_e(2, (1, 0)), _e(2, (1, 1))]))),
    "raises": ((None, _e(-1, (1, 0))), hs.FiniteSet(
        frozenset([_e(0, (1, 0)), _e(-1, (1, 0))]))),
}


NOTES = {"membership-without-bound": "membership without the distance bound",
         "bound-without-membership": "distance bound without membership"}


@pytest.mark.parametrize("path", sorted(WITNESS_CASES))
def test_witness_paths_match_the_references(path):
    entry, result = WITNESS_CASES[path]
    backend, rho = Wrapped(LT21, entry=entry, result=result), LT21.norm_cut()
    v = intrinsic_valuation(backend)
    _assert_same(backend, v, rho, 1)
    kvh2 = check_krasner(backend, v, rho, 1).check("KVH2")
    U = backend.elements(1)
    if path == "out-of-window-z":
        assert any(z not in U for x in U for y in U
                   for z in hs.members(backend.add(x, y), U, backend.value_of))
        assert kvh2.passed
        assert ultrametric_report(backend, v, rho, 1).ok
    elif path == "raises":
        with pytest.raises(ValueError, match="several values"):
            ultrametric_report(backend, v, rho, 1)
    elif path.startswith("ball"):
        axiom = path.upper()
        assert not ultrametric_report(backend, v, rho, 1).check(axiom).passed
    elif path == "out-of-window-witness":
        assert not kvh2.passed
        assert kvh2.witness[2] not in [backend.elem_json(x) for x in U]
    else:
        assert kvh2.note == NOTES[path]


def test_residue_section_can_fail_on_its_own():
    # 0 + 0 = {t} in LT(3,0): the unit cosets still lie in distinct classes
    # (RE1), but the residue sum 0 + 0 = {0} is carried onto no hypersum
    # member among the representatives (RE2).
    ctx = LTContext(3, 0)
    backend = Wrapped(ctx, entry=(None, None), result=hs.Singleton(ctx.elem(1, (1,))))
    rep = residue_embedding_check(backend, 1)
    assert rep.check("RE1").passed and rep.skipped == []
    assert [c.axiom for c in rep.failed()] == ["RE2"]
    assert rep.check("RE2").witness == (None, None)


def test_failed_kvh1_still_reports_kvh2():
    # x + y = two members of different values: KVH1 fails at (0, 0) while
    # KVH2 holds there, so the reference reached a pair it never summed.
    backend = Wrapped(LT21, entry=(None, None), result=hs.FiniteSet(
        frozenset([_e(2, (1, 0)), _e(-2, (1, 0))])))
    v = intrinsic_valuation(backend)
    with pytest.raises(KeyError):
        ref_check_krasner(backend, v, LT21.norm_cut(), 1)
    rep = check_krasner(backend, v, LT21.norm_cut(), 1)
    assert rep.check("KVH1").witness == _kvh1_pair(backend, 1) == (None, None)
    assert [c.axiom for c in rep.checks] == ["KVH1", "KVH2"]


def _lt(value, coeffs):
    return {"value": value, "coeffs": list(coeffs)}


F5 = FiniteBackend(build_finite_field(5))
T1 = TropicalHyperfield(1)
ZERO_RAY = Wrapped(LT21, entry=(None, None), result=hs.AboveValue(Cut.le(1, (0,))))

# First witnesses of the per-tuple loops: (backend, map, bound, axiom, witness).
VALUATION_WITNESSES = {
    "V1": (LT21, _override(LT21, _e(0, (1, 1)), None), 1, (_lt(0, (1, 1)),)),
    "V2": (LT21, _override(LT21, _e(0, (1, 1)), (5,)), 1,
           (_lt(-1, (1, 0)), _lt(0, (1, 1)))),
    "V3": (LT21, _override(LT21, _e(-1, (1, 0)), (0,)), 1,
           (_lt(-1, (1, 0)), _lt(0, (1, 0)))),
    "HH2": (LT21, _override(LT21, _e(0, (1, 1)), (5,)), 1,
            (_lt(-1, (1, 0)), _lt(0, (1, 1)))),
    # z = {value 2} lies outside the window
    "HH3": (LT21, _override(LT21, _e(1, (1, 0)), (0,)), 1,
            (_lt(1, (1, 0)), _lt(1, (1, 1)), _lt(2, (1, 0)))),
    "HH5": (LT21, _override(LT21, _e(1, (1, 0)), None), 1, (_lt(-1, (1, 0)),)),
    "V3-finite": (F5, table_valuation(F5, {0: None, 1: (0,), 2: (1,), 3: (-1,),
                                           4: (0,)}, 1), 0, ("1", "2")),
    "HH3-finite": (F5, table_valuation(F5, {0: None, 1: (0,), 2: (1,), 3: (-1,),
                                            4: (0,)}, 1), 0, ("1", "2", "3")),
    # a negated tropical valuation: V3 through the members of a ray
    "V3-ray": (T1, Valuation(T1, 1, lambda x: None if x is None else (-x[0],)), 1,
               ([-1], [-1])),
    "HH3-ray": (T1, Valuation(T1, 1, lambda x: None if x is None else (-x[0],)), 1,
                ([-1], [-1], [0])),
    # the carrier's zero is None, and a finite v(0) still fails V1
    "V1-zero": (LT21, _override(LT21, None, (-2,)), 1, (None,)),
    # the intrinsic valuation on a backend whose 0 + 0 is a ray
    "V3-infinite": (ZERO_RAY, intrinsic_valuation(ZERO_RAY), 1, (None, None)),
    "HH3-infinite": (ZERO_RAY, intrinsic_valuation(ZERO_RAY), 1,
                     (None, None, _lt(1, (1, 0)))),
}


@pytest.mark.parametrize("case", sorted(VALUATION_WITNESSES))
def test_valuation_first_witnesses(case):
    backend, v, bound, witness = VALUATION_WITNESSES[case]
    axiom = case.split("-")[0]
    for checker in (is_valuation, ref_is_valuation):
        check = checker(backend, v, bound).check(axiom)
        assert not check.passed
        assert check.witness == witness, checker.__name__


_PAIR = hs.FiniteSet(frozenset([_e(0, (1, 0)), _e(1, (1, 0))]))
_RAY0 = "AboveValue(cut=Cut(rank=1, prefix_len=1, bound=(0,), inclusive=True))"
# the window members of T'(Z) above -1: every indexed member of the ray
# (0,) + (0,) plus (0,) below its cut, so the two meet and are not nested
_ABOVE_MINUS_1 = hs.FiniteSet(frozenset([(0,), (1,), None]))

# First witnesses of the per-tuple loops: (backend, bound, {failing axiom: witness}).
SCH_WITNESSES = {
    "enumerated:4:2": (FiniteBackend(enumerate_hyperfields(4)[2]), 0, {
        "SCH1": ("1", "1"),
        "SCH2": ("FiniteSet(elems=frozenset({0, 1, 2}))",
                 "FiniteSet(elems=frozenset({0, 1, 3}))"),
        "SCH3": ("1", "a2"),
        "SCH4": ("1", "a3", "1")}),
    "tropical:1": (T1, 2, {"SCH1": ([-2], [-2])}),
    # 0 + t = {t^0, t^1}: the two members have different z - z
    "members-apart": (Wrapped(LT21, entry=(None, _e(-1, (1, 0))), result=_PAIR), 1, {
        "SCH2": (_RAY0, repr(_PAIR)),
        "SCH3": (None, _lt(-1, (1, 0)))}),
    "outside-member": (Wrapped(LT21, entry=(None, None),
                               result=hs.Singleton(_e(2, (1, 0)))), 1, {
        "SCH4": (None, _lt(1, (1, 0)), _lt(0, (1, 0)))}),
    "ray-in-finite-members": (Wrapped(TropicalHyperfield(1, strict=True), entry=((-1,), (-1,)),
                                      result=_ABOVE_MINUS_1), 1, {
        "SCH2": (_RAY0, repr(_ABOVE_MINUS_1)),
        "SCH4": ([0], [-1], [-1])}),
    "zero-ray": (ZERO_RAY, 1, {
        "SCH1": (None, None),
        "SCH4": (None, _lt(0, (1, 0)), None)}),
}


@pytest.mark.parametrize("case", sorted(SCH_WITNESSES))
def test_superior_canonicity_first_witnesses(case):
    backend, bound, witnesses = SCH_WITNESSES[case]
    for checker in (check_superiorly_canonical, ref_check_superiorly_canonical):
        rep = checker(backend, bound)
        assert {c.axiom: c.witness for c in rep.failed()} == witnesses, checker.__name__


# -- the tropical axiom suite --------------------------------------------------------

# Every window of the grid: bounds up to 10 at rank 1, 3 at rank 2, 1 at rank 3.
TROPICAL_GRID = [(rank, bound, strict) for rank, top in ((0, 2), (1, 10), (2, 3), (3, 1))
                 for bound in range(top + 1) for strict in (False, True)]


@pytest.mark.parametrize("rank,bound,strict", TROPICAL_GRID)
def test_tropical_suite_matches_the_reference(rank, bound, strict):
    assert _outcome(tropical_axiom_suite, rank, bound, strict) == \
        _outcome(ref_tropical_axiom_suite, rank, bound, strict)


def _corrupt_t_add(entry, result):
    """t_add with the sum of the pair entry replaced by result."""
    original = tropical.t_add

    def t_add(x, y, strict=False):
        return result if (x, y) == entry else original(x, y, strict)
    return t_add


def _cuts(rank):
    """_norms with the open cuts beside the closed ones."""
    return _norms(rank) + [Cut.lt(rank, (b,) + (0,) * (rank - 1)) for b in range(-1, 3)
                           if rank]


@st.composite
def corrupted_tropical(draw):
    """A tropical setting and one window pair whose sum becomes a Singleton
    of the window or just outside it, or an AboveValue."""
    rank, bound = draw(st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (3, 0)]))
    strict = draw(st.booleans())
    T = TropicalHyperfield(rank, strict)
    U = T.elements(bound)
    outside = [x for x in T.elements(bound + 1) if x not in U][:8]
    entry = (draw(st.sampled_from(U)), draw(st.sampled_from(U)))
    result = draw(st.one_of(st.builds(hs.Singleton, st.sampled_from(U + outside)),
                            st.sampled_from(_cuts(rank)).map(hs.AboveValue)))
    return (rank, bound, strict), entry, result


@settings(max_examples=100, deadline=None)
@given(corrupted_tropical())
def test_corrupted_tropical_sums_match_the_reference(case):
    args, entry, result = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tropical, "t_add", _corrupt_t_add(entry, result))
        assert _outcome(tropical_axiom_suite, *args) == \
            _outcome(ref_tropical_axiom_suite, *args)


# First witnesses of the per-tuple loop: ((rank, bound, strict), corrupted pair,
# its replacement sum, {failing axiom: witness}).
TROPICAL_WITNESSES = {
    "ray-for-0+1": ((1, 1, False), (None, (1,)), hs.AboveValue(Cut.le(1, (0,))), {
        "CH2": (None, [1]), "CH3": (None, [None, [1]]), "CH4": (None, [1], None),
        "HR3": ([-1], None, [1])}),
    "t^-1+t^-1": ((1, 1, False), ((-1,), (-1,)), hs.Singleton((-1,)), {
        "CH3": ([-1], []), "CH4": ([-1], None, [-1]), "HR3": ([-1], [-1], [-1])}),
    "ray-for-inf+inf": ((1, 1, False), (None, None), hs.AboveValue(Cut.le(1, (-1,))), {
        "CH4": (None, None, [0]), "CH1": (None, None, [0]), "HR3": (None, None, None)}),
    # {inf} written as a ray: equal as sets, not as hypersets
    "inf-as-ray": ((1, 1, False), (None, None), hs.AboveValue(Cut.whole(1)), {
        "HR3": (None, None, None)}),
    "moved-singleton": ((1, 1, False), (None, (-1,)), hs.Singleton((0,)), {
        "CH2": (None, [-1]), "CH4": (None, [-1], [0]), "CH1": (None, [-1], [-1]),
        "HR3": ([-1], None, [-1])}),
    "rank-0": ((0, 0, True), ((), ()), hs.Singleton(()), {
        "CH3": ([], []), "CH4": ([], None, [])}),
    "strict-rank-2": ((2, 1, True), ((0, 1), (0, 1)), hs.AboveValue(Cut.le(2, (0,))), {
        "HR3": ([-1, -1], [0, 1], [0, 1])}),
    "strict-rank-2-singleton": ((2, 1, True), ((1, -1), (0, 1)), hs.Singleton((1, -1)), {
        "CH2": ([0, 1], [1, -1]), "CH4": ([0, 1], [0, 1], [1, -1]),
        "CH1": ([0, 1], [1, -1], [0, 1]), "HR3": ([-1, -1], [1, -1], [0, 1])}),
}


@pytest.mark.parametrize("case", sorted(TROPICAL_WITNESSES))
def test_tropical_first_witnesses(case, monkeypatch):
    args, entry, result, witnesses = TROPICAL_WITNESSES[case]
    monkeypatch.setattr(tropical, "t_add", _corrupt_t_add(entry, result))
    for suite in (tropical_axiom_suite, ref_tropical_axiom_suite):
        rep = suite(*args)
        assert {c.axiom: c.witness for c in rep.failed()} == witnesses, suite.__name__


def test_tropical_suite_raises_on_an_outside_member(monkeypatch):
    # inf + inf = {t^2}, outside the window: CH4 looks t^2 + inf up among the
    # window sums
    monkeypatch.setattr(tropical, "t_add", _corrupt_t_add((None, None), hs.Singleton((2,))))
    for suite in (tropical_axiom_suite, ref_tropical_axiom_suite):
        with pytest.raises(KeyError) as info:
            suite(1, 1)
        assert str(info.value) == "((2,), None)", suite.__name__


# -- pinned benchmark digests ----------------------------------------------------------

def test_windowed_digests_match_the_pins():
    """Every windowed check_krasner, ultrametric_report, is_valuation,
    check_superiorly_canonical and tropical_axiom_suite candidate of the
    benchmark gives its pinned witness digest (bench/pinned.json is read,
    never written)."""
    import sys
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    pinned = workloads.load_pinned()["digests"]
    inputs = workloads.Inputs(ROOT)
    checkers = {"check_krasner": check_krasner,
                "ultrametric_report": ultrametric_report,
                "is_valuation": lambda ctx, v, rho, bound: is_valuation(ctx, v, bound),
                "check_superiorly_canonical":
                    lambda ctx, v, rho, bound: check_superiorly_canonical(ctx, bound)}
    seen = {kind: 0 for kind in checkers} | {"tropical_axiom_suite": 0}
    for cand in workloads.windowed_candidates():
        kind, carrier, bound = cand["kind"], cand["args"]["carrier"], cand["args"]["bound"]
        if kind == "tropical_axiom_suite":
            name, rank = carrier.split(":")
            rep = tropical_axiom_suite(int(rank), bound, name == "tropical-strict")
        elif kind in checkers:
            ctx, v, rho = inputs.carrier(carrier)
            rep = checkers[kind](ctx, v, rho, bound)
        else:
            continue
        assert workloads.triples_digest([rep.to_json()]) == pinned[cand["pin"]], cand["pin"]
        seen[kind] += 1
    assert seen.pop("tropical_axiom_suite") == 16
    assert min(seen.values()) > 40, seen


# -- the window's contract and the references' own helpers ----------------------------

def test_ball_membership_is_a_strict_radius():
    ctx = LTContext(2, 0)
    d = _ref_distance(ctx, intrinsic_valuation(ctx))
    ball = _ref_ball_of(d, ctx.one, Cut.le(1, (0,)))
    assert ball(ctx.one)
    assert ball(ctx.elem(1, (1,))) is False  # distance 0, not above the cut
    assert ball(None) is False


# (name, backend, bound, whether some -t lies outside the window)
WINDOWS = [("lt:2:1", LTContext(2, 1), 1, False),
           ("tropical:2", TropicalHyperfield(2), 2, False),
           ("composite:2", CompositeContext(2), 1, False),
           ("thinned-lt:3:1", Wrapped(LTContext(3, 1), 2), 1, True)]


@pytest.mark.parametrize("name,backend,bound,open_under_neg", WINDOWS,
                         ids=[c[0] for c in WINDOWS])
def test_window_sums_and_differences_are_the_backend_sums(name, backend, bound,
                                                          open_under_neg):
    win = _Window(backend, bound)
    U, sets = win.window, win.sets
    for a, x in enumerate(U):
        for b, y in enumerate(U):
            assert hs.equal(sets[win.sums[a][b]], backend.add(x, y))
    assert any(win.index(backend.neg(t)) >= win.n for t in U) == open_under_neg
    # rows k beyond the window are always made afresh
    outside = [win.index(x) for x in backend.elements(bound + 1) if x not in U][:6]
    assert outside and min(outside) >= win.n
    for k in list(range(win.n)) + outside:
        z = win.elems[k]
        for t, h in zip(U, win.minus(k)):
            assert hs.equal(sets[h], backend.add(z, backend.neg(t))), (k, t)


def _ref_ray_mask(win, cut) -> int:
    """A ray's window mask as ``_Window.mask_of`` made it before it read
    the value levels: one ``value_gt_cut`` per window element."""
    return sum(1 << k for k, x in enumerate(win.window)
               if value_gt_cut(win.value_of(x), cut))


class ZeroLast(Wrapped):
    """A backend whose window lists the zero last: a ray's mask must not
    lean on the zero's place."""

    def elements(self, bound):
        U = self.base.elements(bound)
        return U[1:] + U[:1]


RAY_WINDOWS = [(f"{name}:{bound}", backend, bound) for bound in (0, 1, 2)
               for name, backend in (("lt:2:1", LTContext(2, 1)),
                                     ("zero-last-lt:2:1", ZeroLast(LTContext(2, 1))),
                                     ("lt:3:0", LTContext(3, 0)),
                                     ("composite:2", CompositeContext(2)),
                                     ("composite:5", CompositeContext(5)),
                                     ("collapsed", CollapsedConstantsContext()),
                                     ("tropical:1", TropicalHyperfield(1)),
                                     ("tropical:2", TropicalHyperfield(2)),
                                     ("tropical-strict:2", TropicalHyperfield(2, True)))]


@pytest.mark.parametrize("name,backend,bound", RAY_WINDOWS, ids=[c[0] for c in RAY_WINDOWS])
def test_ray_masks_match_the_per_element_scan(name, backend, bound):
    win = _Window(backend, bound)
    # the differences from members outside the window reach further rays
    outside = [win.index(x) for x in backend.elements(bound + 1) if x not in win.window]
    assert outside
    for k in list(range(win.n)) + outside:
        win.minus(k)
    assert any(isinstance(s, hs.AboveValue) for s in win.sets)
    vals = [win.value_of(x) for x in win.window if x != backend.zero]
    rank = backend.value_rank
    top = win.intern(hs.AboveValue(Cut.le(rank, max(vals))))    # above every value
    bottom = win.intern(hs.AboveValue(Cut.lt(rank, min(vals))))  # below every value
    for h in [h for h, s in enumerate(win.sets) if isinstance(s, hs.AboveValue)]:
        assert win.mask_of(h) == _ref_ray_mask(win, win.sets[h].cut), win.sets[h]
    assert win.mask_of(top) == 1 << win.window.index(backend.zero)  # only the zero
    assert win.mask_of(bottom) == (1 << win.n) - 1
