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

import itertools
import json
from dataclasses import dataclass
from typing import Callable

from . import hypersets as hs
from .finite import FiniteHyperfield, ZERO, ONE, _bits
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
    zero = gzero(v.rank)
    target = t_add(zero, zero)

    def pred(x):
        val = v(x)
        primary = val is None or val >= zero
        if primary != hs.contains(target, val, t_value):
            raise RuntimeError("O_v disagrees with the preimage of v(1)+v(1)")
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
    rep = ValidationReport(subject=f"{ring.describe()} on {backend.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

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
    diff = [x for x in U if r1.contains(x) != r2.contains(x)]
    rep = ValidationReport(subject=f"{r1.describe()} against {r2.describe()} "
                                   f"on {backend.describe()}",
                           mode=_mode(backend),
                           window={"bound": bound, "elements": len(U)})
    rep.add("SAME-RING", not diff, backend.elem_json(diff[0]) if diff else None,
            note="membership agrees on every window element")
    return rep


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


def residue_embedding_check(ctx, bound: int = 2) -> ValidationReport:
    """Can the residue hyperfield be embedded back by sending each class to
    the coset of a representative?  Only when the unit level is 0: at deeper
    levels two distinct cosets share a residue class, so the map is not even
    well defined (RE1).  When it is, RE2 is the embedding condition for the
    section, on a window."""
    units = ctx.elements_with_value(0)
    v = intrinsic_valuation(ctx)
    # Every class holds Zero or a unit, so there are never more than this.
    R, reps = _residue(ctx, v, bound, 1 + len(units))
    rep = ValidationReport(subject=f"residue embedding for {ctx.describe()}",
                           mode=_mode(ctx), window={"bound": bound})
    U = ctx.elements(bound)
    w = next((_j(ctx, u, r) for u in units if u not in reps for r in reps
              if _same_residue_class(ctx, v, u, r, U)), None)
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


# -- compiled windows -------------------------------------------------------------

class _Window:
    """The window of one checker call, interned once.

    Element k is ``elems[k]``.  The window comes first, in window order, and
    owns bit k of every mask.  A hypersum member outside the window (LT
    cancellation can land at value bound+k) gets the next index when first
    seen and never sets a bit.  Each checker call builds its own."""

    def __init__(self, backend, bound: int):
        self.value_of = backend.value_of
        self.elems = list(backend.elements(bound))
        self.n = len(self.elems)
        self.window = self.elems[:self.n]
        self._index = {x: k for k, x in enumerate(self.elems)}
        self._above: dict = {}  # cut -> mask of AboveValue(cut)

    def index(self, x) -> int:
        k = self._index.get(x)
        if k is None:
            k = self._index[x] = len(self.elems)
            self.elems.append(x)
        return k

    def mask(self, s) -> int:
        """The window members of a hypersum, as bits."""
        if isinstance(s, hs.AboveValue):
            m = self._above.get(s.cut)
            if m is None:
                m = self._above[s.cut] = sum(
                    1 << k for k, x in enumerate(self.window)
                    if value_gt_cut(self.value_of(x), s.cut))
            return m
        if isinstance(s, hs.Singleton):
            elems = (s.elem,)
        elif isinstance(s, hs.FiniteSet):
            elems = s.elems
        else:
            raise TypeError(f"not a hyperset: {s!r}")
        m = 0
        for x in elems:
            k = self._index.get(x)
            if k is not None and k < self.n:
                m |= 1 << k
        return m

    def members(self, s) -> list:
        """Indices of ``hs.members(s, window)``, in its order."""
        if isinstance(s, hs.Singleton):
            return [self.index(s.elem)]
        if isinstance(s, hs.FiniteSet):
            return [self.index(x) for x in sorted(s.elems, key=repr)]
        return list(_bits(self.mask(s)))


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# -- Krasner valuations ----------------------------------------------------------

def _diff_descriptor(backend, s):
    """Summary of a difference z - t good enough to decide 'every value above
    a cut': ("vals", least finite value or None when all members are zero)
    or ("above", cut)."""
    kind, data = hs.values_of(s, backend.value_of)
    if kind == "above":
        return ("above", data)
    finite_vals = [v for v in data if v is not None]
    return ("vals", min(finite_vals) if finite_vals else None)


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
    rho + min(vx, vy).  Checked two-sided over window quadruples: per
    (x, y, z) the window t on each side are bitmasks, and the first t
    where they differ is the lowest bit of their xor.
    """
    if not v.intrinsic or v.rank != backend.value_rank:
        raise ValueError("check_krasner runs against the intrinsic valuation")
    if rho.rank != v.rank:
        raise ValueError("norm rank mismatch")
    if not (rho.is_whole or rho.contains(gzero(rho.rank))) or rho.is_empty:
        raise ValueError("the norm must be an initial segment containing 0")

    win = _Window(backend, bound)
    U = win.window
    rep = ValidationReport(subject=f"Krasner conditions for {v.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})

    sums = [[backend.add(x, y) for y in U] for x in U]
    w = None
    for x, row in zip(U, sums):
        for y, s in zip(U, row):
            if hs.contains(s, backend.zero, backend.value_of):
                continue
            if not _all_values_single(backend, s):
                w = _j(backend, x, y)
                break
        if w:
            break
    rep.add("KVH1", w is None, w)

    vals = [v(x) for x in U]
    negs = [backend.neg(t) for t in U]
    cut_of = {m: rho.shift(m) for m in set(vals) if m is not None}
    diffs: dict = {}  # z index -> {descriptor of z-t: mask of those t}
    near: dict = {}   # (z index, m) -> mask of t with z-t above rho+m

    def close_to(k, m) -> int:
        key = (k, m)
        if key not in near:
            if k not in diffs:
                z, classes = win.elems[k], {}
                for t, nt in enumerate(negs):
                    desc = _diff_descriptor(backend, backend.add(z, nt))
                    classes[desc] = classes.get(desc, 0) | 1 << t
                diffs[k] = classes
            cut = cut_of.get(m)
            if cut is None:
                near[key] = diffs[k].get(("vals", None), 0)
            else:
                near[key] = sum(mask for desc, mask in diffs[k].items()
                                if _all_above(desc, cut))
        return near[key]

    w = None
    note = ""
    for x, vx, row in zip(U, vals, sums):
        for y, vy, s in zip(U, vals, row):
            m = vmin(vx, vy)
            lhs = win.mask(s)
            for k in win.members(s):
                diff = lhs ^ close_to(k, m)
                if diff:
                    t = _low_bit(diff)
                    w = _j(backend, x, y, win.elems[k], U[t])
                    note = ("membership without the distance bound"
                            if lhs >> t & 1 else "distance bound without membership")
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

    def d(x, y) -> Value:
        if x == y:
            return None
        kind, data = hs.values_of(backend.add(x, backend.neg(y)), backend.value_of)
        if kind == "above":
            raise ValueError("0 lies in x-y for distinct x, y; not a "
                             "valid hypergroup difference")
        vals = set(data)
        if len(vals) != 1:
            raise ValueError(f"difference has several values {sorted(vals)}; "
                             "not a Krasner structure")
        return next(iter(vals))

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
    comparability of the balls that arise.

    d is evaluated once per window pair, row by row, plus one row for each
    ball centre outside the window; U3 compares the distances' order ranks
    as bitmasks, and every ball is a window mask."""
    d = ultrametric(backend, v)
    win = _Window(backend, bound)
    U = win.window
    rep = ValidationReport(subject=f"ultrametric of {v.describe()}",
                           mode=_mode(backend),
                           window=None if _is_finite(backend) else {"bound": bound})
    dist = [[d(x, y) for y in U] for x in U]

    w = None
    for i, (x, row) in enumerate(zip(U, dist)):
        if row[i] is not None:
            w = _j(backend, x)
            break
        j = next((j for j, dxy in enumerate(row) if j != i and dxy is None), None)
        if j is not None:
            w = _j(backend, x, U[j])
            break
    rep.add("U1", w is None, w)

    # Order ranks of the distances, infinity on top.
    finite_d = sorted({dxy for row in dist for dxy in row if dxy is not None})
    top = len(finite_d)
    rank = {dxy: r for r, dxy in enumerate(finite_d)}
    R = [[top if dxy is None else rank[dxy] for dxy in row] for row in dist]

    n = len(U)
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
    spheres: dict = {}  # center index -> {distance: mask of t at it}
    balls: dict = {}    # (center index, m) -> mask of the ball of radius rho+m

    def ball_mask(k, m) -> int:
        key = (k, m)
        if key not in balls:
            if k not in spheres:
                row = dist[k] if k < n else [d(win.elems[k], t) for t in U]
                classes: dict = {}
                for t, dzt in enumerate(row):
                    classes[dzt] = classes.get(dzt, 0) | 1 << t
                spheres[k] = classes
            # ball_of's test, made once per distance instead of once per t
            cut = cut_of[m]
            balls[key] = sum(mask for dzt, mask in spheres[k].items()
                             if value_gt_cut(dzt, cut))
        return balls[key]

    w = None
    for x, vx in zip(U, vals):
        for y, vy in zip(U, vals):
            m = vmin(vx, vy)
            if m is None:
                continue
            s = backend.add(x, y)
            if win.mask(s) != ball_mask(win.members(s)[0], m):
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
    ring must coincide (membershipwise on the window) with the induced ring.
    A bare bool rather than the report: the benchmark reads ``is True``."""
    u = coarsening(v, invariance_group(rho))
    return compare_rings(backend, valuation_ring(backend, u), induced_ring(backend),
                         bound).ok
