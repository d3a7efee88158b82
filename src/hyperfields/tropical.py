"""Tropical hyperfields over Z^n with lex order.

Elements are value-group vectors plus ``None`` for infinity, the additive
zero.  Two variants share the code path: the inclusive one (x boxplus x is
the closed ray [x, infinity]) and the strict one (the open ray).  Hypersums
are symbolic: a ``hypersets.Singleton`` or the ray ``hypersets.AboveValue``
(everything of value above a cut), never a materialized set.

The rank-0 group Z^0 = {()} is allowed; it shows up as the value group of a
trivial valuation.  The module is carrier code: its axiom suite is
``window.check_axioms``, reading ``TropicalHyperfield.sum_sets``.
"""

from __future__ import annotations

from . import hypersets as hs
from .ordgroup import (WINDOW_LIMIT, Cut, Value, WindowTooLarge, check_window,
                       gneg, gzero, vadd, value_gt_cut, window)
from .report import ValidationReport
from .window import check_axioms

TropElem = Value  # tuple for a group element, None for infinity


t_mul = vadd  # the product is the group sum, infinity absorbing


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

    mul, neg, inv = staticmethod(t_mul), staticmethod(t_neg), staticmethod(t_inv)

    def add(self, x, y):
        return t_add(x, y, self.strict)

    def sum_sets(self, a, b):
        return _sum_sets(a, b, self.strict)

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
    """Windowed hyperfield axioms for T(Z^rank): ``window.check_axioms``
    (CH1..CH4 and HR3 over all tuples from the window plus infinity, with
    char2, cchar1 and stringency as observations; stringency always holds,
    as a ray contains infinity), its window stating the rank."""
    rep = check_axioms(TropicalHyperfield(rank, strict), bound)
    rep.window["rank"] = rank
    return rep
