"""Symbolic hypersum results.

A hypersum over an infinite carrier cannot always be materialized, but every
hypersum this package produces falls into one of three shapes: a singleton,
an explicit finite set, or "everything of value above a cut" (AboveValue:
the rays of the tropical carriers and the fully cancelling sums of the
leading-term ones).  The functions here implement membership, equality,
inclusion, intersection, listing against a window and the image under the
valuation for those shapes.  AboveValue membership needs to know element
values, so the relevant functions take a ``value_of`` callable (the
carrier's intrinsic valuation; ``None`` means infinity and belongs to every
AboveValue set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .finite import _bits
from .ordgroup import Cut, Value, value_gt_cut


@dataclass(frozen=True)
class Singleton:
    elem: object


@dataclass(frozen=True)
class FiniteSet:
    elems: frozenset


@dataclass(frozen=True)
class AboveValue:
    """{t : value_of(t) > cut}; contains every element of value infinity."""

    cut: Cut


HyperSet = Union[Singleton, FiniteSet, AboveValue]

ValueOf = Callable[[object], Value]


def finite(elems: Iterable) -> HyperSet:
    """Normalize an explicit collection: singletons stay singletons."""
    s = frozenset(elems)
    if not s:
        raise ValueError("hypersums are never empty")
    if len(s) == 1:
        return Singleton(next(iter(s)))
    return FiniteSet(s)


def contains(hs: HyperSet, x, value_of: ValueOf) -> bool:
    if isinstance(hs, Singleton):
        return x == hs.elem
    if isinstance(hs, FiniteSet):
        return x in hs.elems
    if isinstance(hs, AboveValue):
        return value_gt_cut(value_of(x), hs.cut)
    raise TypeError(f"not a hyperset: {hs!r}")


def equal(a: HyperSet, b: HyperSet) -> bool:
    """Structural equality of normalized hypersets.

    Finite shapes and AboveValue shapes can never coincide over the carriers
    used here (AboveValue sets are infinite), so cross-shape comparison is
    False except Singleton vs 1-element FiniteSet, which `finite` normalizes
    away at construction.
    """
    if isinstance(a, Singleton) and isinstance(b, Singleton):
        return a.elem == b.elem
    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        return a.elems == b.elems
    if isinstance(a, AboveValue) and isinstance(b, AboveValue):
        return a.cut == b.cut
    return False


def subset(a: HyperSet, b: HyperSet, value_of: ValueOf) -> bool:
    if isinstance(a, Singleton):
        return contains(b, a.elem, value_of)
    if isinstance(a, FiniteSet):
        return all(contains(b, x, value_of) for x in a.elems)
    if isinstance(a, AboveValue):
        if isinstance(b, AboveValue):
            return b.cut.subseteq(a.cut)
        return False  # an infinite set never fits in a finite one
    raise TypeError(f"not a hyperset: {a!r}")


def intersects(a: HyperSet, b: HyperSet, value_of: ValueOf) -> bool:
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Singleton):
            return contains(y, x.elem, value_of)
        if isinstance(x, FiniteSet):
            return any(contains(y, e, value_of) for e in x.elems)
    if isinstance(a, AboveValue) and isinstance(b, AboveValue):
        # Both contain every infinite-valued element (the additive zero).
        return True
    raise TypeError("not hypersets")


def members(hs: HyperSet, universe: Iterable, value_of: ValueOf) -> list:
    """Explicit members: all of them for finite shapes, the universe's
    members for symbolic shapes."""
    if isinstance(hs, Singleton):
        return [hs.elem]
    if isinstance(hs, FiniteSet):
        return sorted(hs.elems, key=repr)
    return [x for x in universe if contains(hs, x, value_of)]


def values_of(hs: HyperSet, value_of: ValueOf):
    """Image under the valuation: ("finite", frozenset of values) or
    ("above", cut)."""
    if isinstance(hs, Singleton):
        return ("finite", frozenset([value_of(hs.elem)]))
    if isinstance(hs, FiniteSet):
        return ("finite", frozenset(value_of(x) for x in hs.elems))
    if isinstance(hs, AboveValue):
        return ("above", hs.cut)
    raise TypeError(f"not a hyperset: {hs!r}")


# -- compiled windows -------------------------------------------------------------

class _Window:
    """The window of one checker call, interned once.

    Shared by the valuation checkers and ``tropical_axiom_suite``; it lives
    here so that the tropical suite needs no valuation module.  Element k is
    ``elems[k]``.  The window comes first, in window order, and owns bit k
    of every mask.  A hypersum member outside the window (LT cancellation
    can land at value bound+k) gets the next index when first seen and
    never sets a bit.  Hyperset h is ``sets[h]``, with its window members
    ``masks[h]``.  Each checker call builds its own."""

    def __init__(self, backend, bound: int):
        self.value_of = backend.value_of
        self.elems = list(backend.elements(bound))
        self.n = len(self.elems)
        self.window = self.elems[:self.n]
        self._index = {x: k for k, x in enumerate(self.elems)}
        # the same, by identity: a carrier often returns an operand as a sum
        self._same = {id(x): k for k, x in enumerate(self.elems)}
        self._above: dict = {}  # cut -> mask of AboveValue(cut)
        self.sets: list = []
        self.masks: list = []
        self._ids: dict = {}    # member index of a singleton, or the hyperset -> id

    def index(self, x) -> int:
        k = self._same.get(id(x))  # elems keeps every object keyed here alive
        if k is None:
            k = self._index.get(x)
            if k is None:
                k = self._index[x] = self._same[id(x)] = len(self.elems)
                self.elems.append(x)
        return k

    def intern(self, s) -> int:
        """The id of hyperset s, shared by equal ones (the first stands for all)."""
        key = self.index(s.elem) if isinstance(s, Singleton) else s
        h = self._ids.get(key)
        if h is None:
            h = self._ids[key] = len(self.sets)
            self.sets.append(s)
            self.masks.append(self.mask(s))
        return h

    def mask(self, s) -> int:
        """The window members of a hypersum, as bits."""
        if isinstance(s, AboveValue):
            m = self._above.get(s.cut)
            if m is None:
                m = self._above[s.cut] = sum(
                    1 << k for k, x in enumerate(self.window)
                    if value_gt_cut(self.value_of(x), s.cut))
            return m
        if isinstance(s, Singleton):
            elems = (s.elem,)
        elif isinstance(s, FiniteSet):
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
        """Indices of ``members(s, window)``, in its order."""
        if isinstance(s, Singleton):
            return [self.index(s.elem)]
        if isinstance(s, FiniteSet):
            return [self.index(x) for x in sorted(s.elems, key=repr)]
        return list(_bits(self.mask(s)))


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
