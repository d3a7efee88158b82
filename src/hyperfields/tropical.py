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

from . import hypersets as hs
from .finite import FiniteHyperfield
from .ordgroup import (WINDOW_LIMIT, Cut, Value, WindowTooLarge, check_window,
                       gadd, gneg, gzero, window)
from .report import ValidationReport

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
        return hs.Singleton(y)
    if y is None:
        return hs.Singleton(x)
    if x != y:
        return hs.Singleton(min(x, y))
    rank = len(x)
    return hs.AboveValue(Cut.le(rank, x) if strict else Cut.lt(rank, x))


def _sum_sets(a, b, strict: bool):
    """Pointwise hypersum of a Singleton with a Singleton or AboveValue."""
    if isinstance(a, hs.AboveValue):
        a, b = b, a
    if isinstance(b, hs.Singleton):
        return t_add(a.elem, b.elem, strict)
    c = a.elem
    return a if c is not None and b.cut.contains(c) else b


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
    (char2, cchar1, stringency) recorded as observations."""
    T = TropicalHyperfield(rank, strict)
    U: list[TropElem] = T.elements(bound)
    rep = ValidationReport(
        subject=T.describe(), mode="bounded verification",
        window={"bound": bound, "rank": rank})

    def sadd(x, y):
        return t_add(x, y, strict)

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


def two_element_subhyperfield(rank: int, strict: bool = False) -> FiniteHyperfield:
    """The induced table on {infinity, 0}: the only relational
    subhyperfield of a tropical hyperfield with more than one element."""
    T = TropicalHyperfield(rank, strict)
    S = [None, T.one]
    add = [[None] * 2 for _ in range(2)]
    for i, x in enumerate(S):
        for j, y in enumerate(S):
            s = t_add(x, y, strict)
            cell = [k for k, z in enumerate(S) if hs.contains(s, z, t_value)]
            add[i][j] = tuple(cell)
    mul = [[0, 0], [0, 1]]
    return FiniteHyperfield(["0", "1"], mul, add,
                            {"label": f"{{inf,0}} inside Z^{rank} tropical"})
