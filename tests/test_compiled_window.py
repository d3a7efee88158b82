"""The compiled-window checkers against the loops they replaced.

``check_krasner`` and ``ultrametric_report`` intern the window once and
compare hypersums as bitmasks.  The references below are the per-tuple loops
they used before, copied unchanged; every case must give the same report
JSON, or the same exception type and message.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields import hypersets as hs
from hyperfields.finite import build_K, build_S, build_W, build_finite_field
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, LTContext)
from hyperfields.ordgroup import Cut, gzero, vcompare, vmin
from hyperfields.report import ValidationReport
from hyperfields.tropical import TropicalHyperfield
from hyperfields.valuation import (FiniteBackend, Valuation, _all_above,
                                   _all_values_single, _is_finite, _j, _mode,
                                   ball_of, check_krasner, intrinsic_valuation,
                                   trivial_valuation, ultrametric,
                                   ultrametric_report)

ROOT = Path(__file__).resolve().parent.parent


# -- the per-tuple references ------------------------------------------------------

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
            if not _all_values_single(backend, s):
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
                        rhs = _all_above(desc, shifted)
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


def ref_ultrametric_report(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    d = ultrametric(backend, v)
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
            ball = ball_of(backend, d, z, cut)
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
        b1 = {t for t in U if ball_of(backend, d, z1, c1)(t)}
        for (_, z2, c2) in seen[i + 1:]:
            b2 = {t for t in U if ball_of(backend, d, z2, c2)(t)}
            if (b1 & b2) and not (b1 <= b2 or b2 <= b1):
                w = (backend.elem_json(z1), c1.to_json(),
                     backend.elem_json(z2), c2.to_json())
                break
        if w:
            break
    rep.add("BALL-CHAIN", w is None, w,
            note="intersecting balls are nested (windowed sample)")
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


FINITE = [build_K(), build_S(), build_W()] + [
    build_finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9)]


@pytest.mark.parametrize("F", FINITE, ids=[repr(F) for F in FINITE])
def test_finite_tables_match_the_references(F):
    backend = FiniteBackend(F)
    _assert_same(backend, trivial_valuation(backend), Cut.whole(0), 0)


# -- corrupted add entries -------------------------------------------------------------

BASES = [(LTContext(2, 1), 1), (LTContext(3, 1), 0), (LTContext(2, 2), 1),
         (CompositeContext(2), 0), (TropicalHyperfield(1, strict=True), 2),
         (TropicalHyperfield(2), 1), (CollapsedConstantsContext(), 2),
         (FiniteBackend(build_finite_field(5)), 0), (FiniteBackend(build_W()), 0)]


@st.composite
def corrupted(draw):
    """A base backend with one add entry replaced by a hyperset drawn from
    the window and the elements just outside it, a norm and the bound."""
    base, bound = draw(st.sampled_from(BASES))
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
    return Wrapped(base, entry=(x, y), result=result), rho, bound


def _kvh1_pair(backend, bound):
    """The first window pair whose sum avoids 0 yet has several values."""
    U = backend.elements(bound)
    return next((_j(backend, x, y) for x in U for y in U
                 if not hs.contains(backend.add(x, y), backend.zero, backend.value_of)
                 and not _all_values_single(backend, backend.add(x, y))), None)


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_corrupted_entries_match_the_references(case):
    backend, rho, bound = case
    v = intrinsic_valuation(backend)
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


# -- pinned benchmark digests ----------------------------------------------------------

def test_windowed_digests_match_the_pins():
    """Every windowed check_krasner / ultrametric_report candidate of the
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
                "ultrametric_report": ultrametric_report}
    seen = 0
    for cand in workloads.windowed_candidates():
        if cand["kind"] not in checkers:
            continue
        ctx, v, rho = inputs.carrier(cand["args"]["carrier"])
        rep = checkers[cand["kind"]](ctx, v, rho, cand["args"]["bound"])
        assert workloads.triples_digest([rep.to_json()]) == pinned[cand["pin"]], cand["pin"]
        seen += 1
    assert seen > 100
