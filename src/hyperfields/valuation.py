"""Valuations on hyperfield backends.

A backend is anything with the small duck-typed surface used throughout
this module: ``zero``, ``one``, ``mul``, ``neg``, ``inv``, ``add`` (returning
a hyperset), ``value_of`` (the intrinsic valuation fixing the meaning of
AboveValue results), ``value_rank``, ``elements(bound)``, ``elem_json``,
``sort_key`` and ``describe``.  FiniteBackend adapts a FiniteHyperfield to
that surface; the tropical and leading-term carriers implement it natively.

Checks on finite backends visit every tuple ("proof by exhaustion"); on
infinite backends they visit every tuple built from a window of elements
("bounded verification") and say so in the report.  Hyperset membership is
always decided against the backend's intrinsic valuation; the valuation
under test only enters through its own axioms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from . import hypersets as hs
from .finite import FiniteHyperfield, ZERO, ONE
from .ordgroup import (Cut, ConvexSubgroup, Value, gzero, invariance_group,
                       value_gt_cut, vadd, vcompare, vmin, vneg)
from .report import ValidationReport
from .tropical import t_add, t_mul, t_value


class FiniteBackend:
    """A FiniteHyperfield with the backend surface; elements are indices."""

    def __init__(self, F: FiniteHyperfield):
        self.F = F
        self.zero = ZERO
        self.one = ONE
        self.value_rank = 0

    def mul(self, x, y):
        return self.F.mul[x][y]

    def neg(self, x):
        return self.F.neg(x)

    def inv(self, x):
        return self.F.inv(x)

    def add(self, x, y):
        return hs.finite(self.F.add_cell(x, y))

    def value_of(self, x) -> Value:
        return None if x == ZERO else ()

    def elements(self, bound: int = 0) -> list:
        return list(range(self.F.size))

    def elem_json(self, x):
        return self.F.names[x]

    def sort_key(self, x):
        return (x,)

    def describe(self) -> str:
        return repr(self.F)


def _is_finite(backend) -> bool:
    return isinstance(backend, FiniteBackend)


def _mode(backend) -> str:
    return "proof by exhaustion" if _is_finite(backend) else "bounded verification"


def _j(backend, *elems):
    return tuple(backend.elem_json(x) for x in elems)


class Valuation:
    """A value map on a backend, with values in Z^rank under lex (None is
    infinity).  ``intrinsic`` marks the backend's own valuation, for which
    symbolic (cut-level) arguments are sound."""

    def __init__(self, backend, rank: int, func: Callable, label: str = "",
                 intrinsic: bool = False):
        self.backend = backend
        self.rank = rank
        self.func = func
        self.label = label or "v"
        self.intrinsic = intrinsic

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
    zero = backend.zero
    return Valuation(backend, 0, lambda x: None if x == zero else (),
                     label="trivial valuation",
                     intrinsic=_is_finite(backend) or backend.value_rank == 0)


def intrinsic_valuation(backend) -> Valuation:
    return Valuation(backend, backend.value_rank, backend.value_of,
                     label="intrinsic valuation", intrinsic=True)


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

    return Valuation(v.backend, delta.zeros, func,
                     label=f"{v.label} coarsened by {delta.zeros} coords",
                     intrinsic=v.intrinsic and delta.is_trivial)


# -- the valuation axioms ----------------------------------------------------

def is_valuation(backend, v: Valuation, bound: int = 3) -> ValidationReport:
    """V1..V3, plus an independent run of the homomorphism axioms HH1..HH5
    for the induced map into the tropical hyperfield over the value group.
    The two verdicts must agree (they do for every map; a disagreement
    signals an internal bug and raises)."""
    U = backend.elements(bound)
    rep = ValidationReport(subject=f"{v.describe()}", mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    w = next((x for x in U if (v(x) is None) != (x == backend.zero)), None)
    rep.add("V1", w is None, None if w is None else _j(backend, w))

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
            if v.intrinsic and isinstance(s, hs.AboveValue):
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
        from .ordgroup import window as _window
        small = [g for g in _window(v.rank, 1)]
        missing = [g for g in small if g not in seen]
        rep.observe("surjective-on-window", not missing,
                    [list(g) for g in missing] or None,
                    note="every value in [-1,1]^rank is attained")
    return rep


def _vge(a: Value, b: Value) -> bool:
    return vcompare(a, b) >= 0


# -- rings --------------------------------------------------------------------

@dataclass
class RingPredicate:
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
    v(1) boxplus v(1) (an independent route through the tropical hypersum)."""
    target = t_add(gzero(v.rank), gzero(v.rank))

    def pred(x):
        primary = v.ge_zero(x)
        if primary != hs.contains(target, v(x), t_value):
            raise RuntimeError("O_v disagrees with the preimage of v(1)+v(1)")
        return primary

    return RingPredicate(backend, pred, f"valuation ring of {v.label}")


def maximal_ideal(backend, v: Valuation) -> RingPredicate:
    return RingPredicate(backend, v.gt_zero, f"maximal ideal of {v.label}")


def unit_group(backend, v: Valuation) -> RingPredicate:
    return RingPredicate(
        backend, lambda x: v(x) is not None and v(x) == gzero(v.rank),
        f"units of the valuation ring of {v.label}")


def is_valuation_hyperring(backend, ring: RingPredicate, bound: int = 3) -> bool:
    """Subhyperring with the dichotomy: x in O or x^{-1} in O."""
    if not ring.contains(backend.zero) or not ring.contains(backend.one):
        return False
    U = backend.elements(bound)
    O = [x for x in U if ring.contains(x)]
    for x in O:
        for y in O:
            if not ring.contains(backend.mul(x, y)):
                return False
            s = backend.add(x, backend.neg(y))
            if not all(ring.contains(z) for z in hs.members(s, U, backend.value_of)):
                return False
    for x in U:
        if x == backend.zero:
            continue
        if not ring.contains(x) and not ring.contains(backend.inv(x)):
            return False
    return True


def canonical_valuation_from_ring(F: FiniteHyperfield, O) -> tuple[list, Valuation]:
    """The valuation a valuation hyperring O of a finite hyperfield induces:
    value group F^x / O^x ordered by aO^x <= bO^x iff b a^{-1} in O.

    Raises when the order fails totality, antisymmetry or translation
    compatibility, which is exactly what happens when O was not a valuation
    hyperring (a finite nontrivial ordered group cannot exist)."""
    O = frozenset(O)
    units = [x for x in F.units if x in O and F.inv(x) in O]
    if ONE not in units:
        raise ValueError("O does not contain 1 as a unit")
    coset_of = {}
    cosets = []
    for x in F.units:
        if x in coset_of:
            continue
        cs = sorted({F.mul[x][u] for u in units})
        for y in cs:
            coset_of[y] = len(cosets)
        cosets.append(cs)

    def leq(i, j) -> bool:
        a, b = cosets[i][0], cosets[j][0]
        return F.mul[b][F.inv(a)] in O

    n = len(cosets)
    for i in range(n):
        for j in range(n):
            if not leq(i, j) and not leq(j, i):
                raise ValueError(f"coset order is not total at ({i},{j})")
            if i != j and leq(i, j) and leq(j, i):
                raise ValueError(f"coset order is not antisymmetric at ({i},{j})")
            for k in range(n):
                a, b, c = cosets[i][0], cosets[j][0], cosets[k][0]
                if leq(i, j) != (F.mul[F.mul[c][b]][F.inv(F.mul[c][a])] in O):
                    raise ValueError("coset order is not translation invariant")

    # A total, antisymmetric, translation-invariant order on a finite group
    # forces the trivial group.
    if n != 1:
        raise ValueError("nontrivial finite ordered quotient; O is not a "
                         "valuation hyperring")
    backend = FiniteBackend(F)
    val = Valuation(backend, 0, lambda x: None if x == ZERO else (),
                    label="canonical valuation from O", intrinsic=True)
    ring = valuation_ring(backend, val)
    if {x for x in range(F.size) if ring.contains(x)} != O | {ZERO}:
        raise ValueError("O is not the ring of its canonical valuation")
    return cosets, val


def equivalent(backend, v1: Valuation, v2: Valuation, bound: int = 3) -> bool:
    """Same valuation ring, membershipwise."""
    return all(v1.ge_zero(x) == v2.ge_zero(x) for x in backend.elements(bound))


# -- residue hyperfield --------------------------------------------------------

def _same_residue_class(backend, v: Valuation, x, y, U) -> bool:
    """x and y land on the same residue class iff x - y meets M_v."""
    if x == y:
        return True
    diff = backend.add(x, backend.neg(y))
    for z in hs.members(diff, U, backend.value_of):
        if z == backend.zero or v.gt_zero(z):
            return True
    return False


def residue_hyperfield(backend, v: Valuation, bound: int = 2) -> FiniteHyperfield:
    """O_v / M_v with (x+M) + (y+M) = {z+M : z in x+y}, built from window
    representatives and validated (at most 64 classes)."""
    return _residue(backend, v, bound, 64)[0]


def _residue(backend, v: Valuation, bound: int, cap: int):
    """The residue table and its class representatives (reps[k] stands for
    class k; 0 and 1 come first)."""
    U = backend.elements(bound)
    pool = [x for x in U if v.ge_zero(x)]
    reps = [backend.zero, backend.one]
    for x in sorted(pool, key=backend.sort_key):
        if any(_same_residue_class(backend, v, x, r, U) for r in reps):
            continue
        reps.append(x)
        if len(reps) > cap:
            raise ValueError(f"more than {cap} residue classes in the window")

    def class_of(x) -> int:
        for i, r in enumerate(reps):
            if _same_residue_class(backend, v, x, r, U):
                return i
        raise ValueError("element in no discovered class; enlarge the window")

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
    H = FiniteHyperfield(names, mul, add,
                         {"label": f"residue of {v.label}",
                          "backend": backend.describe()})
    from .finite import validate
    vrep = validate(H)
    if not vrep.ok:
        raise RuntimeError(f"residue table failed validation: {vrep.failed()}")
    return H, reps


def residue_embedding_check(ctx, bound: int = 2) -> bool:
    """Can the residue hyperfield be embedded back by sending each class to
    the coset of a representative?  True only when the unit level is 0: at
    deeper levels two distinct cosets share a residue class, so the map is
    not even well defined.  Verified on a window: well-definedness first,
    then the embedding condition for the section."""
    units = ctx.elements_with_value(0)
    # Every class holds Zero or a unit, so there are never more than this.
    R, reps = _residue(ctx, intrinsic_valuation(ctx), bound, 1 + len(units))
    if len(reps) != 1 + len(units):
        return False  # two distinct unit cosets share a class: ill defined

    # The section sends class k to reps[k]; its image is every unit and Zero.
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            s = ctx.add(a, b)
            if ({reps[k] for k in R.add_cell(i, j)}
                    != {t for t in reps if hs.contains(s, t, ctx.value_of)}):
                return False
    return True


# -- Krasner valuations ----------------------------------------------------------

def _diff_descriptor(backend, z, t, cache):
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


def _all_above(desc, cut: Cut) -> bool:
    kind, data = desc
    if kind == "above":
        return cut.subseteq(data)
    if data is None:
        return True  # every member is the additive zero
    return value_gt_cut(data, cut)


def _all_values_single(backend, s) -> bool:
    kind, data = hs.values_of(s, backend.value_of)
    if kind == "above":
        return False
    return len(data) == 1


def check_krasner(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    """The two conditions singling out Krasner valuations.

    KVH1: x+y has a single value unless it contains 0.
    KVH2: with the norm rho (an initial segment containing 0), for z in x+y:
    t lies in x+y exactly when every s in z-t has value above
    rho + min(vx, vy).  Checked two-sided over window quadruples.
    """
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
                    desc = _diff_descriptor(backend, z, t, diff_cache)
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


# -- ultrametrics -----------------------------------------------------------------

def ultrametric(backend, v: Valuation):
    """d(x, y) = the single value of x - y (None for x = y).  Only Krasner
    structures admit this; a multivalued difference raises."""
    if not v.intrinsic:
        raise ValueError("the ultrametric is built from the intrinsic valuation")
    cache: dict = {}

    def d(x, y) -> Value:
        if x == y:
            return None
        key = (x, y)
        if key not in cache:
            s = backend.add(x, backend.neg(y))
            kind, data = hs.values_of(s, backend.value_of)
            if kind == "above":
                raise ValueError("0 lies in x-y for distinct x, y; not a "
                                 "valid hypergroup difference")
            vals = set(data)
            if len(vals) != 1:
                raise ValueError(f"difference has several values {sorted(vals)}; "
                                 "not a Krasner structure")
            cache[key] = next(iter(vals))
        return cache[key]

    return d


def ball_of(backend, d, z, cut: Cut):
    """Membership predicate of the ball around z with radius cut:
    everything strictly closer than the cut allows."""

    def member(t) -> bool:
        return value_gt_cut(d(z, t), cut)

    return member


def ultrametric_report(backend, v: Valuation, rho: Cut, bound: int = 2) -> ValidationReport:
    """U1..U3 for the induced distance, the hypersum-as-ball identity
    (x+y is the ball around any of its members with radius rho + min), and
    comparability of the balls that arise."""
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


# -- superior canonicity -----------------------------------------------------------

def _hs_key(s) -> tuple:
    if isinstance(s, hs.Singleton):
        return ("s", repr(s.elem))
    if isinstance(s, hs.FiniteSet):
        return ("f", tuple(sorted(map(repr, s.elems))))
    return ("a", s.cut.prefix_len, s.cut.bound, s.cut.inclusive)


def check_superiorly_canonical(backend, bound: int = 2) -> ValidationReport:
    """SCH1..SCH4 over the window (exhaustive on finite backends)."""
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


# -- induced ring and coarsening ------------------------------------------------------

def induced_ring(backend) -> RingPredicate:
    """{x : x - x inside 1 - 1}, the ring a superiorly canonical structure
    carries before any valuation is chosen."""
    one_minus_one = backend.add(backend.one, backend.neg(backend.one))

    def pred(x):
        return hs.subset(backend.add(x, backend.neg(x)), one_minus_one,
                         backend.value_of)

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
    ring must coincide (membershipwise on the window) with the induced ring."""
    delta = invariance_group(rho)
    w = coarsening(v, delta)
    ir = induced_ring(backend)
    return all(w.ge_zero(x) == ir.contains(x) for x in backend.elements(bound))


def induced_matches_valuation_ring(backend, v: Valuation, bound: int = 3) -> bool:
    """The trivial-invariance case: when ig(rho) = {0}, O_v itself must be
    the induced ring."""
    ir = induced_ring(backend)
    return all(v.ge_zero(x) == ir.contains(x) for x in backend.elements(bound))
