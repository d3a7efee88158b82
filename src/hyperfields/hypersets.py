"""Symbolic hypersum results.

A hypersum over an infinite carrier cannot always be materialized, but every
hypersum this package produces falls into one of three shapes: a singleton,
an explicit finite set, or "everything of value above a cut" (AboveValue:
the rays of the tropical carriers and the fully cancelling sums of the
leading-term ones).  The functions here implement membership, inclusion,
intersection, listing against a window and the image under the valuation
for those shapes.  AboveValue membership needs to know element values, so
the relevant functions take a ``value_of`` callable (the carrier's
intrinsic valuation; ``None`` means infinity and belongs to every
AboveValue set).

The shapes are named tuples, equal across classes when their items are, yet
two shapes never collide: a payload is an element, a frozenset of two or more
elements, or a Cut, and no carrier has a frozenset or a Cut for an element.
So two hypersets are equal exactly when their shapes are ``==``.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Union

from .ordgroup import Cut, Value, value_gt_cut


class Singleton(NamedTuple):
    elem: object


class FiniteSet(NamedTuple):
    elems: frozenset


class AboveValue(NamedTuple):
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
    """``a == b``, which is equality of hypersets (see above); the name stays
    only because ``bench/tracing.py`` counts its calls."""
    return a == b


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
