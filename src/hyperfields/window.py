"""The compiled window the backend-generic checkers run on.

A backend is anything with the duck-typed surface the checkers use:
``zero``, ``one``, ``mul``, ``neg``, ``inv``, ``add`` (returning a hyperset),
``value_of`` (the intrinsic valuation fixing the meaning of AboveValue
results), ``value_rank``, ``elements(bound)``, ``elem_json``, ``sort_key``
and ``describe``, and for ``check_axioms`` alone ``sum_sets(a, b)``, the
sum of two hypersets.  FiniteBackend adapts a FiniteHyperfield; the
tropical and leading-term carriers implement it natively.  Checks visit
every tuple of a finite backend ("proof by exhaustion") or of a window
("bounded verification").  Nothing here needs a valuation or a symbolic carrier; on a
finite table the tests hold ``check_superiorly_canonical`` to ``is_field``.
Of the package it imports only ``hypersets``, ``bitmask``, ``ordgroup``
and ``report``: FiniteBackend reads the table it is given and never
builds one, so a symbolic checker compiles no ``finite``.

``_Window`` is the one place a checker meets its window.  It owns the
element indices, the interned hypersets, the table of window sums, the
differences x - t and the window masks, and every checker of window sums
reads them from it.  ``residue_hyperfield``, ``compare_rings`` (so
``check_coarsening_theorem``) and ``is_valuation_hyperring`` need no n x n
sum table: on the 199-element composite window it takes 20 ms, the residue
0.7 ms (2-vCPU Xeon, Python 3.11).  A hyperset is keyed by itself: the
shapes are named tuples, equal exactly when the hypersets are, and no two
shapes compare equal, so one id per key is one id per hyperset.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING

from . import hypersets as hs
from .bitmask import _bits, _cell_to_mask, _Kept, _low_bit, _masks_by
from .ordgroup import Value, value_gt_cut
from .report import ValidationReport

if TYPE_CHECKING:
    from .finite import FiniteHyperfield


class FiniteBackend:
    """A FiniteHyperfield with the backend surface; elements are indices."""

    zero, one, value_rank = 0, 1, 0  # a table's 0 and 1 are indices 0 and 1

    def __init__(self, F: FiniteHyperfield):
        self.F = F
        # one hyperset per cell, shared by the cells with the same members
        self._cells = _Kept(lambda mask: hs.finite(_bits(mask)))

    def mul(self, x, y):
        return self.F.mul[x][y]

    def neg(self, x):
        return self.F.neg(x)

    def inv(self, x):
        return self.F.inv(x)

    def add(self, x, y):
        return self._cells[self.F.add_mask(x, y)]

    def sum_sets(self, a, b):
        """The union of the sums of their members, as a cell."""
        mask = lambda s: _cell_to_mask(hs.members(s, (), None))
        return self._cells[self.F.sumset(mask(a), mask(b))]

    def value_of(self, x) -> Value:
        return None if x == 0 else ()

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


def _report(subject: str, backend, bound: int) -> ValidationReport:
    """An empty report on backend, stating the window unless it is finite."""
    return ValidationReport(subject=subject, mode=_mode(backend),
                            window=None if _is_finite(backend) else {"bound": bound})


def _j(backend, *elems):
    return tuple(backend.elem_json(x) for x in elems)


def _appender(items: list):
    """The make of a table of first-seen indices: append key, return its index."""
    def make(key) -> int:
        items.append(key)
        return len(items) - 1
    return make


class _Window:
    """The window of one checker call, with its sums, interned once.

    Element k is ``elems[k]``, and ``index(x)`` its k.  The window comes
    first, in window order, and owns bit k of every mask.  A member outside
    the window (LT cancellation can land at value bound+k) gets the next
    index when first indexed and never sets a bit.  Hyperset h is
    ``sets[h]``, and ``intern(s)`` its h, keyed by s itself: equal hypersets
    are equal named tuples, and two shapes never collide (see
    ``hypersets``), so equal ids mean equal hypersets, the first standing
    for all.  ``index`` and ``intern`` read ``_Kept`` tables that append to
    ``elems`` and ``sets``, so a hit is one dict lookup.  ``sums[a][b]`` is
    the id of U[a] + U[b], ``minus(k)`` the ids of elems[k] - U[t], and
    ``mask_of(h)`` the window members of h, made on first read; a ray's is
    a suffix of the window's value levels, sorted once (``ordgroup``), found
    by bisection.  Each checker call builds its own."""

    def __init__(self, backend, bound: int):
        self.value_of, self._add, self._neg = backend.value_of, backend.add, backend.neg
        self.elems = elems = list(backend.elements(bound))
        self.n = len(elems)
        self.window = U = elems[:self.n]
        self.sets = sets = []
        self._index = _Kept(_appender(elems), {x: k for k, x in enumerate(elems)})
        self.index, self.intern = self._index.__getitem__, _Kept(_appender(sets)).__getitem__
        self._masks: dict = {}  # id -> mask, for the ids read so far
        self._levels = None     # (value, mask) by value, suffix ORs, ranks; on the first ray
        self._negs = None       # indices of -U[t], made on the first minus
        add, intern = backend.add, self.intern
        self.sums = [[intern(add(x, y)) for y in U] for x in U]

    def minus(self, k) -> list:
        """The ids of elems[k] - U[t] for t over the window: row k of
        ``sums`` where elems[k] and -U[t] both lie in the window (equal
        elements have equal sums, so the reading is exact), a fresh add
        otherwise."""
        if self._negs is None:
            self._negs = [self.index(self._neg(t)) for t in self.window]
        z = self.elems[k]
        row = self.sums[k] if k < self.n else ()
        n = len(row)
        return [row[j] if j < n else self.intern(self._add(z, self.elems[j]))
                for j in self._negs]

    def mask_of(self, h) -> int:
        """The window members of hyperset h, as bits."""
        m = self._masks.get(h)
        if m is None:
            s = self.sets[h]
            if isinstance(s, hs.AboveValue):
                if self._levels is None:
                    by = _masks_by(map(self.value_of, self.window))
                    levels = sorted(by.items(), key=lambda vg: (vg[0] is None, vg[0]))
                    above = accumulate((g for _, g in reversed(levels)), or_, initial=0)
                    self._levels = levels, [*above][::-1], {len(v) for v in by if v is not None}
                (levels, above, ranks), cut = self._levels, s.cut
                if not ranks <= {cut.rank}:  # the scan raised at a level of another rank
                    raise ValueError("rank mismatch")
                m = above[bisect_left(levels, True, key=lambda vg: value_gt_cut(vg[0], cut))]
            elif isinstance(s, (hs.Singleton, hs.FiniteSet)):
                m = 0
                for x in (s.elem,) if isinstance(s, hs.Singleton) else s.elems:
                    k = self._index.get(x)
                    if k is not None and k < self.n:
                        m |= 1 << k
            else:
                raise TypeError(f"not a hyperset: {s!r}")
            self._masks[h] = m
        return m

    def members(self, h) -> list:
        """Indices of ``members(sets[h], window)``, in its order: a ray's
        are read from its mask, a finite set's are listed by ``hypersets``."""
        s = self.sets[h]
        if isinstance(s, hs.AboveValue):
            return list(_bits(self.mask_of(h)))
        return [self.index(x) for x in hs.members(s, (), self.value_of)]


# -- superior canonicity -----------------------------------------------------------

def _hs_key(s) -> tuple:
    if isinstance(s, hs.Singleton):
        return ("s", repr(s.elem))
    if isinstance(s, hs.FiniteSet):
        return ("f", tuple(sorted(map(repr, s.elems))))
    return ("a", s.cut.prefix_len, s.cut.bound, s.cut.inclusive)


def check_superiorly_canonical(backend, bound: int = 2) -> ValidationReport:
    """SCH1..SCH4 over the window (exhaustive on finite backends).

    The window sums, the differences and the self-differences z - z are
    interned once, so equal hypersets share an id.  Window membership is
    read from masks.  SCH2 reads member bits but of pairs of rays; SCH4 sorts
    the rays z - z by cut and asks ``hypersets.subset`` of the rest per pair."""
    win = _Window(backend, bound)
    U, n, sets, mask_of = win.window, win.n, win.sets, win.mask_of
    val = backend.value_of
    rep = _report(f"superior canonicity of {backend.describe()}", backend, bound)

    # the members of finite hyperset h, as bits of their indices
    bits = functools.cache(lambda h: _cell_to_mask(win.members(h)))

    # bit i of apart[h]: U[i] lies in hyperset h, yet h is not {U[i]}
    apart = [0 if isinstance(s, hs.Singleton) else mask_of(h) for h, s in enumerate(sets)]
    w = next((_j(backend, x, U[j]) for i, (x, row) in enumerate(zip(U, win.sums))
              for j, h in enumerate(row) if apart[h] >> i & 1), None)
    rep.add("SCH1", w is None, w, note="x in x+y forces x+y = {x}")

    # A singleton meeting a sum lies inside it, so only the other sums can
    # fail.  Their shapes: a finite sum's bits, or a ray's window mask and
    # the indexed elements above its cut, plus a bit no finite sum has.  Two
    # sums meet iff their shapes share a bit, and are nested iff one shape
    # holds the other; two rays always are, as their cuts are, so pairs of
    # rays (the first r items) are skipped.  The ids are the window sums'.
    items = sorted((_hs_key(s), h) for h, s in enumerate(sets)
                   if not isinstance(s, hs.Singleton))
    shape = {h: bits(h) for _, h in items if not isinstance(sets[h], hs.AboveValue)}
    r = len(items) - len(shape)
    ray = 1 << len(win.elems)
    for _, h in items:
        if h not in shape:
            shape[h] = ray | mask_of(h) | sum(1 << k for k, x in enumerate(win.elems[n:], n)
                                              if value_gt_cut(val(x), sets[h].cut))
    shapes = [(shape[h], h) for _, h in items]
    w = next(((repr(sets[g]), repr(sets[h])) for i, (a, g) in enumerate(shapes)
              for b, h in shapes[max(i + 1, r):] if a & b and a & ~b and b & ~a), None)
    rep.add("SCH2", w is None, w, note="meeting hypersums are nested")

    @functools.cache
    def sd(k) -> int:
        """The id of z - z for element k."""
        z = win.elems[k]
        return win.intern(backend.add(z, backend.neg(z)))

    @functools.cache
    def share(h) -> bool:
        """Do the members of hyperset h share their z - z?"""
        ks = win.members(h)
        return all(sd(k) == sd(ks[0]) for k in ks[1:])

    w = next((_j(backend, x, y) for i, x in enumerate(U)
              for y, h in zip(U, win.minus(i)) if x != y and not share(h)), None)
    rep.add("SCH3", w is None, w, note="members of x-y share their z-z set")

    by_sd = _masks_by(map(sd, range(n)))  # id of z - z -> mask of the window z with it
    # bad[a]: the window y with x - x = a not inside y - y (SCH4's y, if outside
    # z - z).  A ray lies in no finite set, and in the rays with cuts inside its
    # own (a chain, ``ordgroup``); ``Cut.subseteq`` refuses cuts of two ranks.
    cuts = {b: sets[b].cut for b in by_sd if isinstance(sets[b], hs.AboveValue)}
    bad = {a: sum(m for b, m in by_sd.items() if not hs.subset(sets[a], sets[b], val))
           for a in by_sd if a not in cuts}
    held = sum(m for b, m in by_sd.items() if b not in cuts)  # the y with y - y finite
    for a in sorted(cuts, key=functools.cmp_to_key(  # the largest cut first
            lambda a, b: cuts[a].subseteq(cuts[b]) - cuts[b].subseteq(cuts[a]))):
        bad[a], held = held, held | by_sd[a]
    w = next((_j(backend, U[i], U[_low_bit(hit)], z) for k, z in enumerate(U)
              for i in _bits(mask_of(sd(k)))
              for hit in (bad[sd(i)] & ~mask_of(sd(k)),) if hit), None)
    rep.add("SCH4", w is None, w,
            note="x in z-z and y outside force x-x inside y-y")
    return rep


# -- the hyperfield axioms ---------------------------------------------------------

def check_axioms(backend, bound: int) -> ValidationReport:
    """CH1..CH4 and HR3 over all tuples from the window (every tuple of a
    finite backend), with char2, cchar1 and stringency as observations.

    CH2 compares sum ids, CH3 and CH4 read masks (CH4 the columns of
    ``minus``: the z with y in z - x).  A window sum with a finite member z
    outside the window raises KeyError (z, -x) at CH4, unless a window
    member fails first: z - x is no window sum.  CH1 and HR3 intern each
    nested sum (``backend.sum_sets``) and each scaled sum once per
    (hyperset, element) pair, and (xy)+(xz) once per pair of products, then
    compare ids.  Each witness is the first failing tuple in x, y, z order.
    On FiniteBackend it is a second route to ``finite.validate``, except
    that an element with no additive inverse raises MalformedTableError
    from ``FiniteBackend.neg`` at CH4, which ``validate`` skips."""
    win = _Window(backend, bound)
    U, n, elems, sets, mask_of = win.window, win.n, win.elems, win.sets, win.mask_of
    val, mul, j = backend.value_of, backend.mul, backend.elem_json
    rep = _report(backend.describe(), backend, bound)
    sums, nsums = win.sums, len(sets)  # the ids below nsums are the window sums
    zero = win.index(backend.zero)

    w = next(((j(x), j(U[b])) for a, (x, row) in enumerate(zip(U, sums))
              for b, h in enumerate(row) if h != sums[b][a]), None)
    rep.add("CH2", w is None, w)

    w = next(((j(x), [j(u) for u in inverses]) for x, row in zip(U, sums)
              for inverses in ([u for u, h in zip(U, row) if mask_of(h) >> zero & 1],)
              if len(inverses) != 1), None)
    rep.add("CH3", w is None, w)

    # a finite sum's first member z outside the window, whose z - x is no window sum
    outside = {h: zs[0] for h, s in enumerate(sets) if not isinstance(s, hs.AboveValue)
               for zs in ([z for z in hs.members(s, (), val) if win.index(z) >= n],) if zs}
    diffs = [win.minus(k) for k in range(n)]  # diffs[k][a]: the id of U[k] - U[a]
    w = None
    for a, (x, row) in enumerate(zip(U, sums)):
        col = [0] * n  # col[b]: the window z with U[b] in z - x
        for h, zs in _masks_by(d[a] for d in diffs).items():
            for b in _bits(mask_of(h)):
                col[b] |= zs
        for b, h in enumerate(row):
            bad = mask_of(h) & ~col[b]
            if bad:
                w = (j(x), j(U[b]), j(U[_low_bit(bad)]))
                break
            if h in outside:
                raise KeyError((outside[h], backend.neg(x)))
        if w:
            break
    rep.add("CH4", w is None, w)

    # (x+y)+z once per (sum id, z), x+(y+z) once per (x, sum id)
    sum_sets, single = backend.sum_sets, hs.Singleton
    left = [[win.intern(sum_sets(sets[h], single(z))) for z in U] for h in range(nsums)]
    w = None
    for x, row in zip(U, sums):
        right = [win.intern(sum_sets(single(x), sets[h])) for h in range(nsums)]
        w = next(((j(x), j(y), j(U[_first_diff(left[h], r)]))
                  for y, h, yrow in zip(U, row, sums)
                  for r in ([right[g] for g in yrow],) if left[h] != r), None)
        if w:
            break
    rep.add("CH1", w is None, w)

    def scale(x, s):
        """x times hyperset s: the products of its members, or its ray shifted by v(x)."""
        if isinstance(s, hs.Singleton):
            return single(mul(x, s.elem))
        if isinstance(s, hs.FiniteSet):
            return hs.finite(mul(x, e) for e in s.elems)
        return single(x) if x == backend.zero else hs.AboveValue(s.cut.shift(val(x)))

    @functools.cache
    def pair_sum(a, b) -> int:
        """The id of elems[a] + elems[b], read from ``sums`` inside the window."""
        if a < n and b < n:
            return sums[a][b]
        return win.intern(backend.add(elems[a], elems[b]))

    # x(y+z) once per (x, sum id), (xy)+(xz) once per pair of product indices
    w = None
    for x, row in zip(U, sums):
        prods = [win.index(mul(x, y)) for y in U]
        scaled = [win.intern(scale(x, sets[h])) for h in range(nsums)]
        w = next(((j(x), j(y), j(U[_first_diff(lhs, rhs)]))
                  for y, a, yrow in zip(U, prods, sums)
                  for lhs, rhs in (([scaled[h] for h in yrow],
                                    [pair_sum(a, b) for b in prods]),)
                  if lhs != rhs), None)
        if w:
            break
    rep.add("HR3", w is None, w)

    one_plus_one = backend.add(backend.one, backend.one)
    rep.observe("char2", hs.contains(one_plus_one, backend.zero, val),
                note="0 belongs to 1+1")
    rep.observe("cchar1", hs.contains(one_plus_one, backend.one, val),
                note="1 belongs to 1+1")
    rep.observe("stringent", all(isinstance(s, hs.Singleton) or mask_of(h) >> zero & 1
                                 for h, s in enumerate(sets[:nsums])),
                note="every cell avoiding 0 is a singleton")
    return rep


def _first_diff(a: list, b: list) -> int:
    return next(k for k, (p, q) in enumerate(zip(a, b)) if p != q)
