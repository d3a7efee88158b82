"""Lexicographically ordered integer lattices and their cut machinery.

Rank-n group elements are bare ``tuple[int, ...]``.  Python compares int
tuples lexicographically, which is exactly the order meant here, so the value
order is that tuple order plus a rank guard and the infinity convention of
valuations (``None`` is the top element).  ``vmin``, ``vadd`` (also T(Z^n)'s
product) and ``vneg`` state it for values, ``gneg`` and ``gzero`` for the
group, ``value_gt_cut`` for a value and a cut.  Two structured notions are
built on top of the order:

* `Cut`: an initial segment of Z^n carved out by a bound on the first k
  coordinates.  These are the only initial segments the package ever needs
  (norms of the shipped valuations and all their shifts have this shape).
* `ConvexSubgroup`: {0}^k x Z^(n-k), the convex subgroups of Z^n under lex.

Z^k under lex is a discrete order (the immediate successor of b bumps the
last coordinate), so strict cuts are normalized away at construction:
``Cut(n, k, b, False)`` is ``Cut.lt(n, b)``, b's lower neighbour inclusive.
After normalization, equality and inclusion of cuts are structural tests.

Two windowed shortcuts rest on one lemma: cuts are initial segments of a
chain, so two cuts of one rank are nested, rho + m grows with m, and
``value_gt_cut(v, c)`` is antitone in c.  So the radii m with v above rho + m
are a prefix of the sorted radii, found by bisection (if the ranks agree) in
``valuation._balls``, and SCH4 orders its rays z - z as a chain of cuts.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import add
from typing import Optional

from .bitmask import WINDOW_LIMIT, WindowTooLarge, check_window  # noqa: F401  re-exported

GroupElem = tuple[int, ...]
Value = Optional[GroupElem]  # None encodes infinity


def gneg(a: GroupElem) -> GroupElem:
    return tuple(-x for x in a)


def gzero(rank: int) -> GroupElem:
    return (0,) * rank


# Value helpers: None plays infinity, greater than everything.

def vmin(a: Value, b: Value) -> Value:
    if a is None:
        return b
    if b is None:
        return a
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    return a if a <= b else b


def vadd(a: Value, b: Value) -> Value:
    if a is None or b is None:
        return None
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return tuple(map(add, a, b))


def vneg(a: Value) -> Value:
    return None if a is None else gneg(a)


class ConvexSubgroup(namedtuple("ConvexSubgroup", "rank zeros")):
    """{0}^zeros x Z^(rank-zeros): the convex subgroups of Z^rank under lex."""

    __slots__ = ()

    def __new__(cls, rank: int, zeros: int):
        if not (0 <= zeros <= rank):
            raise ValueError("zeros must lie in [0, rank]")
        return super().__new__(cls, rank, zeros)

    def contains(self, g: GroupElem) -> bool:
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        return all(x == 0 for x in g[: self.zeros])

    def project(self, g: GroupElem) -> GroupElem:
        """Order-preserving quotient map Z^rank -> Z^rank / Delta = Z^zeros."""
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        return g[: self.zeros]

    @property
    def is_trivial(self) -> bool:
        return self.zeros == self.rank

    def to_json(self) -> dict:
        return {"rank": self.rank, "zeros": self.zeros}


class Cut(namedtuple("Cut", "rank prefix_len bound inclusive")):
    """Initial segment {m in Z^rank : m[:prefix_len] <= bound} (after
    normalization; a strict bound is rewritten to its predecessor).

    prefix_len 0 encodes the two degenerate segments: inclusive=True is all
    of Z^rank, inclusive=False is empty.
    """

    __slots__ = ()

    def __new__(cls, rank: int, prefix_len: int, bound: GroupElem, inclusive: bool):
        if not (0 <= prefix_len <= rank):
            raise ValueError("prefix_len must lie in [0, rank]")
        if len(bound) != prefix_len:
            raise ValueError("bound length must equal prefix_len")
        if not inclusive:  # the empty cut too, at prefix_len 0
            return cls.lt(rank, bound)
        return super().__new__(cls, rank, prefix_len, bound, inclusive)

    @classmethod
    def whole(cls, rank: int) -> "Cut":
        return cls(rank, 0, (), True)

    @classmethod
    def empty(cls, rank: int) -> "Cut":
        return cls(rank, 0, (), False)

    @classmethod
    def le(cls, rank: int, bound: GroupElem) -> "Cut":
        """{m : m[:k] <= bound} with k = len(bound).

        An inclusive bound is already normalised, so the cut is built
        directly; only the bound's length is checked against the rank."""
        bound = tuple(bound)
        if len(bound) > rank:
            raise ValueError("prefix_len must lie in [0, rank]")
        return tuple.__new__(cls, (rank, len(bound), bound, True))

    @classmethod
    def lt(cls, rank: int, bound: GroupElem) -> "Cut":
        """{m : m[:k] < bound} with k = len(bound).

        Built directly in its normalised form, the predecessor bound made
        inclusive; an empty bound gives the empty cut.  Only the bound's
        length is checked against the rank."""
        bound = tuple(bound)
        k = len(bound)
        if k > rank:
            raise ValueError("prefix_len must lie in [0, rank]")
        if not k:
            return tuple.__new__(cls, (rank, 0, (), False))
        return tuple.__new__(cls, (rank, k, bound[:-1] + (bound[-1] - 1,), True))

    @property
    def is_whole(self) -> bool:
        return self.prefix_len == 0 and self.inclusive

    @property
    def is_empty(self) -> bool:
        return self.prefix_len == 0 and not self.inclusive

    def contains(self, g: GroupElem) -> bool:
        return not value_gt_cut(g, self)

    def shift(self, g: GroupElem) -> "Cut":
        """The translate {m + g : m in self}; prefix bound moves by g's prefix.

        A translate of a normalised cut is normalised: the prefix length
        and the inclusive flag stay, and a bound of the right length moved
        by a vector is still one.  So the translate is built directly,
        without ``__new__``'s checks; only g's rank is checked."""
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        if self.prefix_len == 0:
            return self
        return tuple.__new__(Cut, (self.rank, self.prefix_len,
                                   tuple(map(add, self.bound, g)), self.inclusive))

    def subseteq(self, other: "Cut") -> bool:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        if self.is_empty or other.is_whole:
            return True
        if other.is_empty or self.is_whole:
            return False
        k = min(self.prefix_len, other.prefix_len)
        a, b = self.bound[:k], other.bound[:k]
        if a != b:
            return a < b
        # Bounds agree through k; the shorter prefix is the larger segment
        # (its remaining coordinates are unconstrained).
        return other.prefix_len <= self.prefix_len

    def all_below_in(self, g: GroupElem) -> bool:
        """Does the cut contain every element strictly below g?"""
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        return Cut.lt(self.rank, g).subseteq(self)

    def to_json(self) -> dict:
        return {"prefix_len": self.prefix_len,
                "bound": list(self.bound),
                "inclusive": self.inclusive}


def value_gt_cut(v: Value, cut: Cut) -> bool:
    """v > cut in the sense 'v is not a member' (infinity beats every cut).

    The one copy of the membership rule (``Cut.contains`` negates it).  A
    normalised cut with a prefix is inclusive, so v lies above it exactly
    when its prefix exceeds the bound; with no prefix, () > () is false and
    the flag alone decides."""
    if v is None:
        return True
    rank, k, bound, inclusive = cut
    if len(v) != rank:
        raise ValueError("rank mismatch")
    return v[:k] > bound or not inclusive


def invariance_group(cut: Cut) -> ConvexSubgroup:
    """Largest Delta with cut + d = cut for all d in Delta.

    Shifting moves the prefix bound by the shift's prefix, so the stabilizer
    is exactly the suffix subgroup at the cut's prefix length (the degenerate
    whole/empty segments are fixed by everything).
    """
    return ConvexSubgroup(cut.rank, cut.prefix_len)


def window(rank: int, bound: int) -> list[GroupElem]:
    """All vectors in [-bound, bound]^rank, lex order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))
