"""Symbolic hypersum results.

A hypersum over an infinite carrier cannot always be materialized, but every
hypersum this package produces falls into one of four shapes: a singleton,
an explicit finite set, "everything of value above a cut" (AboveValue: the
rays of the tropical carriers and the fully cancelling sums of the
leading-term ones), or a TailClass (below).  The functions here implement
membership, equality, inclusion, intersection, listing against a window and
the image under the valuation for those shapes.  AboveValue membership needs
to know element values, so the relevant functions take a ``value_of``
callable (the carrier's intrinsic valuation; ``None`` means infinity and
belongs to every AboveValue set).

TailClass is the overflow shape for finite hypersums too large to list: the
set of all elements of one value whose leading coefficients extend a forced
prefix.  It only appears above a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

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


@dataclass(frozen=True)
class TailClass:
    """All elements of the given (integer) value whose coefficient vector
    starts with ``forced``; ``size`` members in total."""

    value: int
    forced: tuple
    size: int


HyperSet = Union[Singleton, FiniteSet, AboveValue, TailClass]

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
    if isinstance(hs, TailClass):
        return (x is not None and x.value == hs.value
                and tuple(x.coeffs[: len(hs.forced)]) == hs.forced)
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
    if isinstance(a, TailClass) and isinstance(b, TailClass):
        return a == b
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
    if isinstance(a, TailClass):
        if isinstance(b, AboveValue):
            return value_gt_cut((a.value,), b.cut)
        if isinstance(b, TailClass):
            return (a.value == b.value and len(a.forced) >= len(b.forced)
                    and a.forced[: len(b.forced)] == b.forced)
        return False
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
    if isinstance(a, TailClass) and isinstance(b, AboveValue):
        return value_gt_cut((a.value,), b.cut)
    if isinstance(a, AboveValue) and isinstance(b, TailClass):
        return value_gt_cut((b.value,), a.cut)
    if isinstance(a, TailClass) and isinstance(b, TailClass):
        k = min(len(a.forced), len(b.forced))
        return a.value == b.value and a.forced[:k] == b.forced[:k]
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
    if isinstance(hs, TailClass):
        return ("finite", frozenset([(hs.value,)]))
    if isinstance(hs, AboveValue):
        return ("above", hs.cut)
    raise TypeError(f"not a hyperset: {hs!r}")


def all_values_ge(hs: HyperSet, m: Value, value_of: ValueOf) -> bool:
    """Does every member have value >= m?  (m None means only infinity passes.)"""
    kind, data = values_of(hs, value_of)
    if kind == "finite":
        if m is None:
            return all(v is None for v in data)
        return all(v is None or v >= m for v in data)
    if m is None:
        return False  # an AboveValue set has members of finite value
    return data.all_below_in(m)
