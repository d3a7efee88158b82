"""Valuations on hyperfield backends (``window`` states the backend surface).

``FiniteBackend`` and ``check_superiorly_canonical`` live in ``window`` and
are re-exported here.  Hyperset membership is always decided against the
backend's intrinsic valuation; the valuation under test only enters through
its own axioms.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import hypersets as hs
from .bitmask import _low_bit, _masks_by
from .ordgroup import (Cut, ConvexSubgroup, Value, WindowTooLarge, gzero,
                       invariance_group, value_gt_cut, vadd, vcompare, vmin, vneg,
                       window)
from .report import ValidationReport
from .tropical import t_add, t_mul, t_value
from .window import (FiniteBackend, _is_finite, _j, _mode, _report, _Window,
                     check_superiorly_canonical)

if TYPE_CHECKING:
    from .finite import FiniteHyperfield


class Valuation:
    """A value map on a backend, with values in Z^rank under lex (None is
    infinity)."""

    def __init__(self, backend, rank: int, func: Callable, label: str = ""):
        self.backend = backend
        self.rank = rank
        self.func = func
        self.label = label or "v"

    @property
    def intrinsic(self) -> bool:
        """Whether the map is the backend's own valuation, for which symbolic
        (cut-level) arguments are sound."""
        return self.func == self.backend.value_of

    def __call__(self, x) -> Value:
        return self.func(x)

    def ge_zero(self, x) -> bool:
        v = self.func(x)
        return v is None or v >= gzero(self.rank)

    def gt_zero(self, x) -> bool:
        v = self.func(x)
        return v is None or v > gzero(self.rank)

    def describe(self) -> str:
        return f"{self.label} on {self.backend.describe()}"


def trivial_valuation(backend) -> Valuation:
    """On finite and rank-0 carriers this is the intrinsic valuation."""
    zero = backend.zero
    func = (backend.value_of if _is_finite(backend) or backend.value_rank == 0
            else lambda x: None if x == zero else ())
    return Valuation(backend, 0, func, label="trivial valuation")


def intrinsic_valuation(backend) -> Valuation:
    return Valuation(backend, backend.value_rank, backend.value_of,
                     label="intrinsic valuation")


def table_valuation(backend, table: dict, rank: int, label: str = "table valuation") -> Valuation:
    """Explicit finite value table (used to build broken maps in tests)."""
    return Valuation(backend, rank, lambda x: table[x], label=label)


def coarsening(v: Valuation, delta: ConvexSubgroup) -> Valuation:
    """Compose with the order-preserving quotient along a convex subgroup."""
    if delta.rank != v.rank:
        raise ValueError("convex subgroup rank must match the valuation rank")

    def func(x):
        val = v(x)
        return None if val is None else delta.project(val)

    return Valuation(v.backend, delta.zeros, v.func if delta.is_trivial else func,
                     label=f"{v.label} coarsened by {delta.zeros} coords")


# -- the valuation axioms ----------------------------------------------------

def is_valuation(backend, v: Valuation, bound: int = 3) -> ValidationReport:
    """V1..V3, plus an independent run of the homomorphism axioms HH1..HH5
    for the induced map into the tropical hyperfield over the value group.
    The two verdicts must agree (they do for every map; a disagreement
    signals an internal bug and raises).

    The window and its sums are interned once and v evaluated once per
    element of it and of the sums.  Each window pair's product is computed
    once: V2 and HH2 read v of the product, V3 and HH3 the sum's member
    values."""
    win = _Window(backend, bound)
    U = win.window
    rep = _report(v.describe(), backend, bound)
    vals = [v(x) for x in U]  # grows as elements outside the window are met
    # what each route makes of two window values, once per pair of values
    values = list(dict.fromkeys(vals))
    at = {g: a for a, g in enumerate(values)}
    plus, times = ([[f(g, h) for h in values] for g in values] for f in (vadd, t_mul))
    low = [[at[vmin(g, h)] for h in values] for g in values]
    aims: dict = {}  # HH3 target -> its index
    aim = [[aims.setdefault(t_add(g, h), len(aims)) for h in values] for g in values]
    targets = list(aims)
    rows = [(x, at[vx]) for x, vx in zip(U, vals)]

    def val(x) -> Value:
        k = win.index(x)
        while len(vals) <= k:
            vals.append(v(win.elems[len(vals)]))
        return vals[k]

    @functools.cache
    def spread(h) -> tuple:
        """The distinct member values of hyperset h, each with its first member."""
        firsts: dict = {}
        for k in win.members(h):
            firsts.setdefault(val(win.elems[k]), k)
        return tuple(firsts.items())

    @functools.cache
    def v3_holds(h, least) -> bool:
        """V3 for a sum h whose summands' least value is values[least].  The
        cut-level test needs a finite least value: a backend whose 0 + 0 is a
        ray is judged on the members."""
        s, m = win.sets[h], values[least]
        return (s.cut.all_below_in(m)
                if v.intrinsic and m is not None and isinstance(s, hs.AboveValue)
                else all(vcompare(vz, m) >= 0 for vz, _ in spread(h)))

    @functools.cache
    def outside_target(h, t):
        """The first member of hyperset h outside HH3 target t, or None."""
        return next((k for vz, k in spread(h)
                     if not hs.contains(targets[t], vz, t_value)), None)

    # the witness is a tuple, so a carrier zero that is None still fails V1
    w = next((_j(backend, x) for x, vx in zip(U, vals)
              if (vx is None) != (x == backend.zero)), None)
    rep.add("V1", w is None, w)

    found: dict = {}  # axiom -> its first failing tuple, in window order
    for (x, a), row in zip(rows, win.sums):
        plus_a, times_a, low_a, aim_a = plus[a], times[a], low[a], aim[a]
        for (y, b), h in zip(rows, row):
            vxy = v(backend.mul(x, y))
            if vxy != plus_a[b] and "V2" not in found:
                found["V2"] = _j(backend, x, y)
            if "V3" not in found and not v3_holds(h, low_a[b]):
                found["V3"] = _j(backend, x, y)
            if vxy != times_a[b] and "HH2" not in found:
                found["HH2"] = _j(backend, x, y)
            if "HH3" not in found and outside_target(h, aim_a[b]) is not None:
                found["HH3"] = _j(backend, x, y, win.elems[outside_target(h, aim_a[b])])
        if len(found) == 4:
            break
    for axiom in ("V2", "V3"):
        rep.add(axiom, axiom not in found, found.get(axiom))

    v_verdict = rep.ok

    rep.add("HH1", val(backend.zero) is None)
    rep.add("HH4", val(backend.one) == gzero(v.rank))
    for axiom in ("HH2", "HH3"):
        rep.add(axiom, axiom not in found, found.get(axiom))

    w = next((_j(backend, x) for x, vx in zip(U, vals)
              if x != backend.zero and val(backend.inv(x)) != vneg(vx)), None)
    rep.add("HH5", w is None, w)

    hh_verdict = all(c.passed for c in rep.checks if c.axiom.startswith("HH"))
    if v_verdict != hh_verdict:
        raise RuntimeError(
            "V1..V3 and the induced-homomorphism criteria disagree "
            f"({v_verdict} vs {hh_verdict}); this is a checker bug")

    if v.rank >= 1:
        seen = set(vals[:len(U)])
        missing = [g for g in window(v.rank, 1) if g not in seen]
        rep.observe("surjective-on-window", not missing,
                    [list(g) for g in missing] or None,
                    note="every value in [-1,1]^rank is attained")
    return rep


# -- rings --------------------------------------------------------------------

class RingPredicate(NamedTuple):
    """A subset of the carrier given by a membership test."""

    backend: object
    pred: Callable
    label: str

    def contains(self, x) -> bool:
        return self.pred(x)

    def members(self, bound: int = 3) -> list:
        return [x for x in self.backend.elements(bound) if self.pred(x)]

    def describe(self) -> str:
        return self.label


def valuation_ring(backend, v: Valuation) -> RingPredicate:
    """O_v = {x : v(x) >= 0}, cross-checked against the preimage of
    v(1) boxplus v(1) (an independent route through the tropical hypersum).

    Both routes read x only through v(x), so the predicate decides each
    value once, cross-check included, and keeps the verdict for as long as
    it lives; a value whose routes disagree raises each time it is met."""
    zero = gzero(v.rank)
    target = t_add(zero, zero)
    known: dict = {}  # v(x) -> whether x lies in O_v
    func = v.func

    def pred(x):
        val = func(x)
        primary = known.get(val)
        if primary is None:
            primary = val is None or val >= zero
            if primary != hs.contains(target, val, t_value):
                raise RuntimeError("O_v disagrees with the preimage of v(1)+v(1)")
            known[val] = primary
        return primary

    return RingPredicate(backend, pred, f"valuation ring of {v.label}")


def maximal_ideal(backend, v: Valuation) -> RingPredicate:
    return RingPredicate(backend, v.gt_zero, f"maximal ideal of {v.label}")


def unit_group(backend, v: Valuation) -> RingPredicate:
    return RingPredicate(
        backend, lambda x: v(x) is not None and v(x) == gzero(v.rank),
        f"units of the valuation ring of {v.label}")


def is_valuation_hyperring(backend, ring: RingPredicate, bound: int = 3) -> ValidationReport:
    """VR1..VR4: a subhyperring (0 and 1 inside, closed under products and
    differences) with the dichotomy x in O or x^{-1} in O."""
    U = backend.elements(bound)
    O = [x for x in U if ring.contains(x)]
    rep = _report(f"{ring.describe()} on {backend.describe()}", backend, bound)

    w = next((_j(backend, x) for x in (backend.zero, backend.one)
              if not ring.contains(x)), None)
    rep.add("VR1", w is None, w, note="0 and 1 lie in O")

    w = next((_j(backend, x, y) for x in O for y in O
              if not ring.contains(backend.mul(x, y))), None)
    rep.add("VR2", w is None, w, note="O is closed under products")

    w = next((_j(backend, x, y, z) for x in O for y in O
              for z in hs.members(backend.add(x, backend.neg(y)), U, backend.value_of)
              if not ring.contains(z)), None)
    rep.add("VR3", w is None, w, note="O is closed under differences")

    w = next((_j(backend, x) for x in U if x != backend.zero
              and not ring.contains(x) and not ring.contains(backend.inv(x))), None)
    rep.add("VR4", w is None, w, note="x or its inverse lies in O")
    return rep


def compare_rings(backend, r1: RingPredicate, r2: RingPredicate, bound: int) -> ValidationReport:
    """Do two rings agree, membershipwise, on every element of the window?
    Two valuations are equivalent exactly when their rings agree.  The
    witness is the first element, in window order, in one ring only."""
    U = backend.elements(bound)
    p1, p2 = r1.pred, r2.pred
    diff = [x for x in U if p1(x) != p2(x)]
    rep = ValidationReport(subject=f"{r1.describe()} against {r2.describe()} "
                                   f"on {backend.describe()}",
                           mode=_mode(backend),
                           window={"bound": bound, "elements": len(U)})
    rep.add("SAME-RING", not diff, backend.elem_json(diff[0]) if diff else None,
            note="membership agrees on every window element")
    return rep


# -- residue hyperfield --------------------------------------------------------

class ResidueOutOfReach(WindowTooLarge):
    """A residue the window cannot build: more classes than the table may
    hold, or a product or sum of representatives in no class the window
    reaches: bad input, as a window too large is."""


def residue_hyperfield(backend, v: Valuation, bound: int = 2) -> FiniteHyperfield:
    """O_v / M_v with (x+M) + (y+M) = {z+M : z in x+y}, built from window
    representatives and validated (at most 64 classes)."""
    return _residue(backend, v, bound, 64)[0]


def _residue(backend, v: Valuation, bound: int, cap: int):
    """The residue table, its class representatives (reps[k] stands for
    class k; 0 and 1 come first) and its class map."""
    U = backend.elements(bound)
    zero, add, neg, value_of = backend.zero, backend.add, backend.neg, backend.value_of
    reps = [zero, backend.one]
    classes: dict = {}  # element -> its class, once found

    def class_of(x, new: bool = False) -> int:
        """The first class whose representative r has x - r meeting M_v;
        when there is none, a new class that x stands for if ``new``."""
        k = classes.get(x)
        if k is None:
            k = classes[x] = next((i for i, r in enumerate(reps) if x == r or any(
                z == zero or v.gt_zero(z) for z in hs.members(add(x, neg(r)), U, value_of))),
                len(reps))
            if k == len(reps):
                if not new:
                    raise ResidueOutOfReach(
                        f"the window reaches only {len(reps)} residue classes, and "
                        f"{json.dumps(backend.elem_json(x), sort_keys=True)} lies in none of them")
                reps.append(x)
                if len(reps) > cap:
                    raise ResidueOutOfReach(f"the residue hyperfield has more than {cap} "
                                            f"classes, the most a residue table holds")
        return k

    for x in sorted((x for x in U if v.ge_zero(x)), key=backend.sort_key):
        class_of(x, new=True)

    n = len(reps)
    names = ["0", "1"]
    for r in reps[2:]:
        j = backend.elem_json(r)
        names.append(j if isinstance(j, str) else
                     json.dumps(j, sort_keys=True, separators=(",", ":")))
    mul = [[class_of(backend.mul(a, b)) for b in reps] for a in reps]

    def cell(a, b) -> tuple:
        s = backend.add(a, b)
        if isinstance(s, hs.AboveValue):
            if not v.intrinsic:
                raise NotImplementedError("symbolic residue cells need the "
                                          "intrinsic valuation")
            # members have value above the cut: if 0 is already above it,
            # every unit class is hit; otherwise only the zero class is.
            if value_gt_cut(gzero(v.rank), s.cut):
                return tuple(range(n))
            return (0,)
        return tuple(sorted({class_of(z) for z in hs.members(s, U, backend.value_of)}))

    add = [[cell(a, b) for b in reps] for a in reps]
    from .finite import FiniteHyperfield, validate
    H = FiniteHyperfield(names, mul, add,
                         {"label": f"residue of {v.label}",
                          "backend": backend.describe()})
    vrep = validate(H)
    if not vrep.ok:
        raise RuntimeError(f"residue table failed validation: {vrep.failed()}")
    return H, reps, class_of


def residue_embedding_check(ctx, bound: int = 2) -> ValidationReport:
    """Can the residue hyperfield be embedded back by sending each class to
    the coset of a representative?  Only when the unit level is 0: at deeper
    levels two distinct cosets share a residue class, so the map is not even
    well defined (RE1).  When it is, RE2 is the embedding condition for the
    section, on a window."""
    units = ctx.elements_with_value(0)
    v = intrinsic_valuation(ctx)
    # Every class holds Zero or a unit, so there are never more than this.
    R, reps, class_of = _residue(ctx, v, bound, 1 + len(units))
    rep = _report(f"residue embedding for {ctx.describe()}", ctx, bound)
    w = next((_j(ctx, u, reps[class_of(u)]) for u in units if u not in reps), None)
    rep.add("RE1", w is None, w, note="distinct unit cosets lie in distinct classes")
    if w is not None:
        rep.skipped.append("RE2: the section is not well defined")
        return rep

    # The section sends class k to reps[k]; its image is every unit and Zero.
    w = None
    for (i, a), (j, b) in itertools.product(enumerate(reps), repeat=2):
        s = ctx.add(a, b)
        if ({reps[k] for k in R.add_cell(i, j)}
                != {t for t in reps if hs.contains(s, t, ctx.value_of)}):
            w = _j(ctx, a, b)
            break
    rep.add("RE2", w is None, w, note="the section carries residue sums onto hypersums")
    return rep


# -- Krasner valuations ----------------------------------------------------------

def _balls(row, inside):
    """``ball(k, m)``, the mask of the t whose key ``row(k)[t]`` lies
    ``inside(key, m)``, and the dict {(k, m): mask} of the balls made.  Row
    k is grouped by key once per centre, and the groups inside radius m are
    OR-ed once per (k, m)."""
    groups = functools.cache(lambda k: _masks_by(row(k)).items())
    made: dict = {}

    def ball(k, m) -> int:
        mask = made.get((k, m))
        if mask is None:
            mask = made[k, m] = sum(g for key, g in groups(k) if inside(key, m))
        return mask

    return ball, made


def check_krasner(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    """The two conditions singling out Krasner valuations.

    KVH1: x+y has a single value unless it contains 0.
    KVH2: with the norm rho (an initial segment containing 0), for z in x+y:
    t lies in x+y exactly when every s in z-t has value above
    rho + min(vx, vy).  Checked two-sided over window quadruples: per
    (x, y, z) the window t on each side are bitmasks, and the first t
    where they differ is the lowest bit of their xor.

    The window sums and the differences z - t are the window's
    (``_Window.sums`` and ``minus``).  What KVH1 and KVH2 ask of a sum or a
    difference depends on it only as a hyperset, so each is decided once per
    interned id: KVH1's verdict, the value summary of z - t
    (``hypersets.values_of``), and KVH2's first miss for a sum and the least
    value of its summands.
    """
    if not v.intrinsic or v.rank != backend.value_rank:
        raise ValueError("check_krasner runs against the intrinsic valuation")
    if rho.rank != v.rank:
        raise ValueError("norm rank mismatch")
    if not (rho.is_whole or rho.contains(gzero(rho.rank))) or rho.is_empty:
        raise ValueError("the norm must be an initial segment containing 0")

    win = _Window(backend, bound)
    U, sums, sets = win.window, win.sums, win.sets
    rep = _report(f"Krasner conditions for {v.describe()}", backend, bound)
    summary = functools.cache(lambda h: hs.values_of(sets[h], backend.value_of))

    # a ray holds the zero, so KVH1 asks for one value only of finite sums
    @functools.cache
    def kvh1_holds(h) -> bool:
        return (hs.contains(sets[h], backend.zero, backend.value_of)
                or len(summary(h)[1]) == 1)

    w = next((_j(backend, x, y) for x, row in zip(U, sums) for y, h in zip(U, row)
              if not kvh1_holds(h)), None)
    rep.add("KVH1", w is None, w)

    vals = [v(x) for x in U]
    cut_of = {m: rho.shift(m) for m in set(vals) if m is not None}

    @functools.cache
    def above(values, m) -> bool:
        """Does every member of a difference with this value summary lie
        above rho+m?  Radius None asks that every member be 0; zero lies
        above every cut."""
        kind, data = values
        if m is None:
            return kind == "finite" and data == {None}
        cut = cut_of[m]
        return (cut.subseteq(data) if kind == "above"
                else all(value_gt_cut(x, cut) for x in data))

    # close_to(k, m): the mask of t with elems[k] - t above rho+m
    close_to, _ = _balls(lambda k: map(summary, win.minus(k)), above)

    @functools.cache
    def miss(h, m):
        """The first (z index, t) with z in sum h where t's membership in h
        and its distance bound rho+m disagree, or None."""
        lhs = win.mask_of(h)
        for k in win.members(h):
            diff = lhs ^ close_to(k, m)
            if diff:
                return k, _low_bit(diff)
        return None

    w = None
    note = ""
    for x, vx, row in zip(U, vals, sums):
        for y, vy, h in zip(U, vals, row):
            found = miss(h, vmin(vx, vy))
            if found:
                k, t = found
                w = _j(backend, x, y, win.elems[k], U[t])
                note = ("membership without the distance bound"
                        if win.mask_of(h) >> t & 1 else "distance bound without membership")
                break
        if w:
            break
    rep.add("KVH2", w is None, w, note=note)
    rep.observe("norm", True, rho.to_json(), note="initial segment used as the norm")
    return rep


# -- ultrametrics -----------------------------------------------------------------

def _single_value(backend, s) -> Value:
    """The value of every member of s, the difference of two distinct
    elements; raises unless there is exactly one."""
    kind, data = hs.values_of(s, backend.value_of)
    if kind == "above":
        raise ValueError("0 lies in x-y for distinct x, y; not a "
                         "valid hypergroup difference")
    if len(data) != 1:
        raise ValueError(f"difference has several values {sorted(set(data))}; "
                         "not a Krasner structure")
    return next(iter(data))


def ultrametric_report(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    """U1..U3 for the induced distance, the hypersum-as-ball identity
    (x+y is the ball around any of its members with radius rho + min), and
    comparability of the balls that arise.

    The window sums and the differences x - y are the window's
    (``_Window.sums`` and ``minus``).  d(x, y), the single value of x - y,
    is found once per interned difference, and a sum's first member once
    per interned sum.
    d is read for every window pair, row by row, plus one row for each
    ball centre outside the window; U3 compares the distances' order ranks
    as bitmasks, and every ball is a window mask."""
    if not v.intrinsic:
        raise ValueError("the ultrametric is built from the intrinsic valuation")
    win = _Window(backend, bound)
    U, n, sets = win.window, win.n, win.sets
    rep = _report(f"ultrametric of {v.describe()}", backend, bound)
    single = functools.cache(lambda h: _single_value(backend, sets[h]))

    def distances(k) -> list:
        """d(elems[k], y) for y over the window (elements are distinct)."""
        return [None if j == k else single(h) for j, h in enumerate(win.minus(k))]

    dist = [distances(i) for i in range(n)]

    # d(x, x) is None by construction, so U1 asks that d(x, y) != None
    # off the diagonal
    w = next((_j(backend, x, U[j]) for i, (x, row) in enumerate(zip(U, dist))
              for j, dxy in enumerate(row) if j != i and dxy is None), None)
    rep.add("U1", w is None, w)

    # Order ranks of the distances, infinity on top.
    finite_d = sorted({dxy for row in dist for dxy in row if dxy is not None})
    top = len(finite_d)
    rank = {dxy: r for r, dxy in enumerate(finite_d)}
    R = [[top if dxy is None else rank[dxy] for dxy in row] for row in dist]

    w = next((_j(backend, U[i], U[j]) for i in range(n) for j in range(n)
              if R[i][j] != R[j][i]), None)
    rep.add("U2", w is None, w)

    # U3 fails at (x, y, z) when d(x, z) = r < d(x, y) and r < d(y, z):
    # z in level[x][r] & beyond[y][r] for some r below R[x][y].
    level = []   # level[i][r]: mask of z at rank distance r from U[i]
    beyond = []  # beyond[i][r]: mask of z at rank distance above r
    for row in R:
        lv = [0] * (top + 1)
        for z, r in enumerate(row):
            lv[r] |= 1 << z
        above, acc = [0] * (top + 1), 0
        for r in range(top, -1, -1):
            above[r] = acc
            acc |= lv[r]
        level.append(lv)
        beyond.append(above)
    w = None
    for i in range(n):
        lv, row = level[i], R[i]
        for j in range(n):
            above = beyond[j]
            bad = 0
            for r in range(row[j]):
                bad |= lv[r] & above[r]
            if bad:
                w = _j(backend, U[i], U[j], U[_low_bit(bad)])
                break
        if w:
            break
    rep.add("U3", w is None, w)

    vals = [v(x) for x in U]
    cut_of = {m: rho.shift(m) for m in set(vals) if m is not None}
    # the ball of radius rho+m around elems[k] holds the t strictly closer
    # than the cut allows
    ball_mask, balls = _balls(lambda k: dist[k] if k < n else distances(k),
                              lambda dzt, m: value_gt_cut(dzt, cut_of[m]))

    first = functools.cache(lambda h: win.members(h)[0])
    w = None
    for x, vx, row in zip(U, vals, win.sums):
        for y, vy, h in zip(U, vals, row):
            m = vmin(vx, vy)
            if m is None:
                continue
            if win.mask_of(h) != ball_mask(first(h), m):
                w = _j(backend, x, y) + (cut_of[m].to_json(),)
                break
        if w:
            break
    rep.add("BALL", w is None, w,
            note="x+y equals the ball around each member with radius rho+min")

    w = None
    chain = {(k, cut_of[m]): mask for (k, m), mask in balls.items()}
    seen = sorted(((backend.sort_key(win.elems[k]), k, cut) for k, cut in chain),
                  key=lambda item: (item[0], item[2].prefix_len,
                                    item[2].bound, item[2].inclusive))[:40]
    for i, (_, k1, c1) in enumerate(seen):
        b1 = chain[k1, c1]
        for (_, k2, c2) in seen[i + 1:]:
            b2 = chain[k2, c2]
            if b1 & b2 and b1 & ~b2 and b2 & ~b1:
                w = (backend.elem_json(win.elems[k1]), c1.to_json(),
                     backend.elem_json(win.elems[k2]), c2.to_json())
                break
        if w:
            break
    rep.add("BALL-CHAIN", w is None, w,
            note="intersecting balls are nested (windowed sample)")
    return rep


# -- induced ring and coarsening ------------------------------------------------------

def induced_ring(backend) -> RingPredicate:
    """{x : x - x inside 1 - 1}, the ring a superiorly canonical structure
    carries before any valuation is chosen.

    Inclusion in 1 - 1 depends on x only through the hyperset x - x, so
    the predicate decides it once per distinct x - x (equal hypersets are
    equal named tuples) and keeps the verdict for as long as it lives.

    It still computes x - x for each element it is asked about, and does
    not key by v(x): x - x = x(1 - 1) is HR3, and HR3 has not been checked
    on the leading-term or composite carriers (ROADMAP item 3), so keying
    by v(x) would rest on an axiom nothing has verified there."""
    add, neg = backend.add, backend.neg
    one_minus_one = add(backend.one, neg(backend.one))
    known: dict = {}  # x - x -> whether it lies inside 1 - 1

    def pred(x):
        s = add(x, neg(x))
        inside = known.get(s)
        if inside is None:
            inside = known[s] = hs.subset(s, one_minus_one, backend.value_of)
        return inside

    return RingPredicate(backend, pred, "induced ring (x-x inside 1-1)")


def induced_norm_cut(backend) -> Cut:
    """Complement of the value set of 1-1, as a cut (the norm the induced
    valuation carries); only meaningful when 1-1 is an AboveValue set."""
    s = backend.add(backend.one, backend.neg(backend.one))
    if not isinstance(s, hs.AboveValue):
        raise ValueError("1-1 is not a full-cancellation set")
    return s.cut


def check_coarsening_theorem(backend, v: Valuation, rho: Cut, bound: int = 3) -> bool:
    """Coarsen v by the invariance group of its norm; the result's valuation
    ring must coincide (membershipwise on the window) with the induced ring.
    A bare bool rather than the report: the benchmark reads ``is True``."""
    u = coarsening(v, invariance_group(rho))
    return compare_rings(backend, valuation_ring(backend, u), induced_ring(backend),
                         bound).ok
