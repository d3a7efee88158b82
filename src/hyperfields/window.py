"""The compiled window the backend-generic checkers run on.

A backend is anything with the duck-typed surface the checkers use:
``zero``, ``one``, ``mul``, ``neg``, ``inv``, ``add`` (returning a hyperset),
``value_of`` (the intrinsic valuation fixing the meaning of AboveValue
results), ``value_rank``, ``elements(bound)``, ``elem_json``, ``sort_key``
and ``describe``.  FiniteBackend adapts a FiniteHyperfield; the tropical and
leading-term carriers implement it natively.  Checks visit every tuple of a
finite backend ("proof by exhaustion") or of a window ("bounded
verification").  Nothing here needs a valuation or a symbolic carrier; on a
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
from typing import TYPE_CHECKING

from . import hypersets as hs
from .bitmask import _bits, _cell_to_mask, _low_bit, _masks_by
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
        cell = functools.cache(lambda mask: hs.finite(_bits(mask)))
        self._sums = [[cell(F.add_mask(x, y)) for y in range(F.size)]
                      for x in range(F.size)]

    def mul(self, x, y):
        return self.F.mul[x][y]

    def neg(self, x):
        return self.F.neg(x)

    def inv(self, x):
        return self.F.inv(x)

    def add(self, x, y):
        return self._sums[x][y]

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


class _Window:
    """The window of one checker call, with its sums, interned once.

    Element k is ``elems[k]``.  The window comes first, in window order, and
    owns bit k of every mask.  A member outside the window (LT cancellation
    can land at value bound+k) gets the next index when first indexed and
    never sets a bit.  Hyperset h is ``sets[h]``, keyed by itself: equal
    hypersets are equal named tuples, and two shapes never collide (see
    ``hypersets``), so equal ids mean equal hypersets.  ``sums[a][b]`` is
    the id of U[a] + U[b], ``minus(k)`` the ids of elems[k] - U[t], and
    ``mask_of(h)`` the window members of h, made on first read; a ray's
    is the union of the window's value levels above its cut.  Each
    checker call builds its own."""

    def __init__(self, backend, bound: int):
        self.value_of, self._add, self._neg = backend.value_of, backend.add, backend.neg
        self.elems = list(backend.elements(bound))
        self.n = len(self.elems)
        self.window = U = self.elems[:self.n]
        self._index = {x: k for k, x in enumerate(self.elems)}
        self.sets: list = []
        self._ids: dict = {}    # hyperset -> id
        self._masks: dict = {}  # id -> mask, for the ids read so far
        self._levels = None     # (value, mask of the window at it), on the first ray
        self._negs = None       # indices of -U[t], made on the first minus
        add, intern = backend.add, self.intern
        self.sums = [[intern(add(x, y)) for y in U] for x in U]

    def index(self, x) -> int:
        k = self._index.get(x)
        if k is None:
            k = self._index[x] = len(self.elems)
            self.elems.append(x)
        return k

    def intern(self, s) -> int:
        """The id of hyperset s, shared by equal ones (the first stands for all)."""
        h = self._ids.get(s)
        if h is None:
            h = self._ids[s] = len(self.sets)
            self.sets.append(s)
        return h

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
                    self._levels = list(_masks_by(map(self.value_of, self.window)).items())
                m = 0
                for v, level in self._levels:
                    if value_gt_cut(v, s.cut):
                        m |= level
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
    read from masks.  SCH2 reads member bits; SCH4 asks
    ``hypersets.subset``, once per pair of distinct sets z - z."""
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
    # holds the other; two rays always are, as their cuts are.  The ids so
    # far are those of the window sums.
    items = sorted((_hs_key(s), h) for h, s in enumerate(sets)
                   if not isinstance(s, hs.Singleton))
    shape = {h: bits(h) for _, h in items if not isinstance(sets[h], hs.AboveValue)}
    ray = 1 << len(win.elems)
    for _, h in items:
        if h not in shape:
            shape[h] = ray | mask_of(h) | sum(1 << k for k, x in enumerate(win.elems[n:], n)
                                              if value_gt_cut(val(x), sets[h].cut))
    shapes = [(shape[h], h) for _, h in items]
    w = next(((repr(sets[g]), repr(sets[h])) for i, (a, g) in enumerate(shapes)
              for b, h in shapes[i + 1:] if a & b and a & ~b and b & ~a), None)
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
    # bad[a]: the window y with x - x = a not inside y - y (SCH4's y, if outside z - z)
    bad = {a: sum(m for b, m in by_sd.items() if not hs.subset(sets[a], sets[b], val))
           for a in by_sd}
    w = next((_j(backend, U[i], U[_low_bit(hit)], z) for k, z in enumerate(U)
              for i in _bits(mask_of(sd(k)))
              for hit in (bad[sd(i)] & ~mask_of(sd(k)),) if hit), None)
    rep.add("SCH4", w is None, w,
            note="x in z-z and y outside force x-x inside y-y")
    return rep
