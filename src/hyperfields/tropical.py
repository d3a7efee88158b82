"""Tropical hyperfields over Z^n with lex order.

Elements are value-group vectors plus ``None`` for infinity, the additive
zero.  Two variants share the code path: the inclusive one (x boxplus x is
the closed ray [x, infinity]) and the strict one (the open ray).  Hypersums
are symbolic: a ``hypersets.Singleton`` or the ray ``hypersets.AboveValue``
(everything of value above a cut), never a materialized set.

The rank-0 group Z^0 = {()} is allowed; it shows up as the value group of a
trivial valuation.
"""

from __future__ import annotations

import functools

from . import hypersets as hs
from .bitmask import _bits, _low_bit, _masks_by
from .ordgroup import (WINDOW_LIMIT, Cut, Value, WindowTooLarge, check_window,
                       gadd, gneg, gzero, value_gt_cut, window)
from .report import ValidationReport
from .window import _Window

TropElem = Value  # tuple for a group element, None for infinity


def t_mul(x: TropElem, y: TropElem) -> TropElem:
    if x is None or y is None:
        return None
    return gadd(x, y)


def t_neg(x: TropElem) -> TropElem:
    return x  # -x = x: 0 lies in x boxplus x, and inverses are unique


def t_inv(x: TropElem) -> TropElem:
    if x is None:
        raise ZeroDivisionError("infinity is the additive zero")
    return gneg(x)


def t_value(x: TropElem) -> Value:
    """The intrinsic valuation of T(Z^n): the identity."""
    return x


def t_add(x: TropElem, y: TropElem, strict: bool = False):
    """Hypersum: {min} when the values differ, the ray above the common
    value when they agree (closed ray, or open in the strict variant)."""
    if x is None:
        return tuple.__new__(hs.Singleton, (y,))
    if y is None:
        return tuple.__new__(hs.Singleton, (x,))
    if x != y:
        return tuple.__new__(hs.Singleton, (min(x, y),))
    rank = len(x)
    return tuple.__new__(hs.AboveValue, (Cut.le(rank, x) if strict else Cut.lt(rank, x),))


def _sum_sets(a, b, strict: bool):
    """Pointwise hypersum of a Singleton with a Singleton or AboveValue."""
    if isinstance(a, hs.AboveValue):
        a, b = b, a
    if isinstance(b, hs.Singleton):
        return t_add(a.elem, b.elem, strict)
    return b if value_gt_cut(a.elem, b.cut) else a


class TropicalHyperfield:
    """Backend view: elements TropElem, hypersums as generic hypersets."""

    def __init__(self, rank: int, strict: bool = False):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if rank > WINDOW_LIMIT:  # a single element is already rank integers
            raise WindowTooLarge(f"window too large (rank {rank}, "
                                 f"limit {WINDOW_LIMIT})")
        self.rank = rank
        self.strict = strict
        self.zero: TropElem = None
        self.one: TropElem = gzero(rank)
        self.value_rank = rank

    def mul(self, x, y):
        return t_mul(x, y)

    def neg(self, x):
        return x

    def inv(self, x):
        return t_inv(x)

    def add(self, x, y):
        return t_add(x, y, self.strict)

    value_of = staticmethod(t_value)

    def elements(self, bound: int) -> list[TropElem]:
        check_window(1, 2 * bound + 1, self.rank)
        return [None] + window(self.rank, bound)

    def elem_json(self, x: TropElem):
        return None if x is None else list(x)

    def sort_key(self, x: TropElem):
        return (0,) if x is None else (1,) + x

    def describe(self) -> str:
        variant = "strict " if self.strict else ""
        return f"{variant}tropical hyperfield over Z^{self.rank} (lex)"


def tropical_axiom_suite(rank: int, bound: int = 3, strict: bool = False) -> ValidationReport:
    """Windowed hyperfield axioms for T(Z^rank): CH1..CH4 and HR3 over all
    tuples from the window plus infinity, with classification predicates
    (char2, cchar1, stringency) recorded as observations.

    Runs on the compiled window the valuation checkers share
    (``window._Window``), whose table holds each window sum x+y once: CH2
    compares sum ids, CH3 and CH4 read masks.  CH1 and HR3 intern each
    nested sum and each scaled sum once per (hyperset, element) pair, and
    (xy)+(xz) once per pair of products, then compare ids.  Each witness
    is the first failing tuple in x, y, z order."""
    T = TropicalHyperfield(rank, strict)
    win = _Window(T, bound)
    U, n, elems, sets, mask_of = win.window, win.n, win.elems, win.sets, win.mask_of
    rep = ValidationReport(
        subject=T.describe(), mode="bounded verification",
        window={"bound": bound, "rank": rank})

    j, sums = T.elem_json, win.sums
    nsums = len(sets)  # the ids below it are the window sums
    zero = win.index(T.zero)

    w = next(((j(x), j(U[b])) for a, (x, row) in enumerate(zip(U, sums))
              for b, h in enumerate(row) if h != sums[b][a]), None)
    rep.add("CH2", w is None, w)

    w = None
    for x, row in zip(U, sums):
        inverses = [u for u, h in zip(U, row) if mask_of(h) >> zero & 1]
        if len(inverses) != 1:
            w = (j(x), [j(u) for u in inverses])
            break
    rep.add("CH3", w is None, w)

    # a sum {z} with z outside the window: z + (-x) is no window sum, so CH4
    # raises KeyError when it reaches one
    outside = {h: s.elem for h, s in enumerate(sets) if isinstance(s, hs.Singleton)
               and win.index(s.elem) >= n}
    w = None
    for a, (x, row) in enumerate(zip(U, sums)):
        # id of z + (-x) -> mask of those z (here -x = x)
        by_sum = _masks_by(zrow[a] for zrow in sums)
        col = [0] * n      # col[b]: the window z with U[b] in z + (-x)
        for h, zs in by_sum.items():
            for b in _bits(mask_of(h)):
                col[b] |= zs
        for b, h in enumerate(row):
            bad = mask_of(h) & ~col[b]
            if bad:
                w = (j(x), j(U[b]), j(U[_low_bit(bad)]))
                break
            if h in outside:
                raise KeyError((outside[h], t_neg(x)))
        if w:
            break
    rep.add("CH4", w is None, w)

    # (x+y)+z once per (sum id, z), x+(y+z) once per (x, sum id)
    left = [[win.intern(_sum_sets(sets[h], hs.Singleton(z), strict)) for z in U]
            for h in range(nsums)]
    w = None
    for x, row in zip(U, sums):
        single = hs.Singleton(x)
        right = [win.intern(_sum_sets(single, sets[h], strict)) for h in range(nsums)]
        w = next(((j(x), j(y), j(U[_first_diff(left[h], r)]))
                  for y, h, yrow in zip(U, row, sums)
                  for r in ([right[g] for g in yrow],) if left[h] != r), None)
        if w:
            break
    rep.add("CH1", w is None, w)

    def scale(x, s):
        if isinstance(s, hs.Singleton):
            return hs.Singleton(t_mul(x, s.elem))
        if x is None:
            return hs.Singleton(None)
        return hs.AboveValue(s.cut.shift(x))

    @functools.cache
    def pair_sum(a, b) -> int:
        """The id of elems[a] + elems[b]."""
        return win.intern(t_add(elems[a], elems[b], strict))

    # x(y+z) once per (x, sum id), (xy)+(xz) once per pair of product indices
    w = None
    for x, row in zip(U, sums):
        prods = [win.index(t_mul(x, y)) for y in U]
        scaled = [win.intern(scale(x, sets[h])) for h in range(nsums)]
        w = next(((j(x), j(y), j(U[_first_diff(lhs, rhs)]))
                  for y, a, yrow in zip(U, prods, sums)
                  for lhs, rhs in (([scaled[h] for h in yrow],
                                    [pair_sum(a, b) for b in prods]),)
                  if lhs != rhs), None)
        if w:
            break
    rep.add("HR3", w is None, w)

    one_plus_one = t_add(T.one, T.one, strict)
    rep.observe("char2", hs.contains(one_plus_one, None, t_value),
                note="0 belongs to 1+1")
    rep.observe("cchar1", hs.contains(one_plus_one, T.one, t_value),
                note="1 belongs to 1+1")
    # Always true (a ray contains infinity); recorded for the classification.
    stringent = all(isinstance(s, hs.Singleton) or mask_of(h) >> zero & 1
                    for h, s in enumerate(sets[:nsums]))
    rep.observe("stringent", stringent,
                note="every cell avoiding 0 is a singleton")
    return rep


def _first_diff(a: list, b: list) -> int:
    return next(k for k, (p, q) in enumerate(zip(a, b)) if p != q)
