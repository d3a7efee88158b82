"""Lexicographically ordered integer lattices and their cut machinery.

Rank-n group elements are bare ``tuple[int, ...]``.  Python compares int
tuples lexicographically, which is exactly the order meant here, so the
helpers below mostly add rank guards, the infinity convention used by
valuations (``None`` is the top element), and the two structured notions
built on top of the order:

* `Cut`: an initial segment of Z^n carved out by a bound on the first k
  coordinates.  These are the only initial segments the package ever needs
  (norms of the shipped valuations and all their shifts have this shape).
* `ConvexSubgroup`: {0}^k x Z^(n-k), the convex subgroups of Z^n under lex.

Z^k under lex is a discrete order (the immediate successor of b bumps the
last coordinate), so strict cuts are normalized away at construction:
{m : m < b} = {m : m <= pred(b)}.  After normalization, equality and
inclusion of cuts are cheap structural tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

GroupElem = tuple[int, ...]
Value = Optional[GroupElem]  # None encodes infinity

LT, EQ, GT = -1, 0, 1


def lex_compare(a: GroupElem, b: GroupElem) -> int:
    """Compare two same-rank vectors; the first differing coordinate decides."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    if a < b:
        return LT
    if a > b:
        return GT
    return EQ


def gadd(a: GroupElem, b: GroupElem) -> GroupElem:
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return tuple(x + y for x, y in zip(a, b))


def gneg(a: GroupElem) -> GroupElem:
    return tuple(-x for x in a)


def gzero(rank: int) -> GroupElem:
    return (0,) * rank


def pred(a: GroupElem) -> GroupElem:
    if not a:
        raise ValueError("rank-0 group has a single element")
    return a[:-1] + (a[-1] - 1,)


# Value helpers: None plays infinity, greater than everything.

def vcompare(a: Value, b: Value) -> int:
    if a is None and b is None:
        return EQ
    if a is None:
        return GT
    if b is None:
        return LT
    return lex_compare(a, b)


def vmin(a: Value, b: Value) -> Value:
    return a if vcompare(a, b) <= 0 else b


def vadd(a: Value, b: Value) -> Value:
    if a is None or b is None:
        return None
    return gadd(a, b)


def vneg(a: Value) -> Value:
    return None if a is None else gneg(a)


@dataclass(frozen=True)
class ConvexSubgroup:
    """{0}^zeros x Z^(rank-zeros): the convex subgroups of Z^rank under lex."""

    rank: int
    zeros: int

    def __post_init__(self):
        if not (0 <= self.zeros <= self.rank):
            raise ValueError("zeros must lie in [0, rank]")

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

    @property
    def is_whole(self) -> bool:
        return self.zeros == 0

    def to_json(self) -> dict:
        return {"rank": self.rank, "zeros": self.zeros}


@dataclass(frozen=True)
class Cut:
    """Initial segment {m in Z^rank : m[:prefix_len] <= bound} (after
    normalization; a strict bound is rewritten to its predecessor).

    prefix_len 0 encodes the two degenerate segments: inclusive=True is all
    of Z^rank, inclusive=False is empty.
    """

    rank: int
    prefix_len: int
    bound: GroupElem
    inclusive: bool

    def __post_init__(self):
        if not (0 <= self.prefix_len <= self.rank):
            raise ValueError("prefix_len must lie in [0, rank]")
        if len(self.bound) != self.prefix_len:
            raise ValueError("bound length must equal prefix_len")
        if self.prefix_len >= 1 and not self.inclusive:
            object.__setattr__(self, "bound", pred(self.bound))
            object.__setattr__(self, "inclusive", True)

    @classmethod
    def whole(cls, rank: int) -> "Cut":
        return cls(rank, 0, (), True)

    @classmethod
    def empty(cls, rank: int) -> "Cut":
        return cls(rank, 0, (), False)

    @classmethod
    def le(cls, rank: int, bound: GroupElem) -> "Cut":
        """{m : m[:k] <= bound} with k = len(bound)."""
        return cls(rank, len(bound), tuple(bound), True)

    @classmethod
    def lt(cls, rank: int, bound: GroupElem) -> "Cut":
        return cls(rank, len(bound), tuple(bound), False)

    @property
    def is_whole(self) -> bool:
        return self.prefix_len == 0 and self.inclusive

    @property
    def is_empty(self) -> bool:
        return self.prefix_len == 0 and not self.inclusive

    def contains(self, g: GroupElem) -> bool:
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        if self.prefix_len == 0:
            return self.inclusive
        p = g[: self.prefix_len]
        return p < self.bound or (self.inclusive and p == self.bound)

    def shift(self, g: GroupElem) -> "Cut":
        """The translate {m + g : m in self}; prefix bound moves by g's prefix."""
        if len(g) != self.rank:
            raise ValueError("rank mismatch")
        if self.prefix_len == 0:
            return self
        return Cut(self.rank, self.prefix_len,
                   gadd(self.bound, g[: self.prefix_len]), self.inclusive)

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

    @classmethod
    def from_json(cls, rank: int, data: dict) -> "Cut":
        return cls(rank, data["prefix_len"], tuple(data["bound"]), data["inclusive"])


def value_gt_cut(v: Value, cut: Cut) -> bool:
    """v > cut in the sense 'v is not a member' (infinity beats every cut)."""
    return v is None or not cut.contains(v)


def invariance_group(cut: Cut) -> ConvexSubgroup:
    """Largest Delta with cut + d = cut for all d in Delta.

    Shifting moves the prefix bound by the shift's prefix, so the stabilizer
    is exactly the suffix subgroup at the cut's prefix length (the degenerate
    whole/empty segments are fixed by everything).
    """
    return ConvexSubgroup(cut.rank, cut.prefix_len)


# Largest window a carrier builds.  The checkers visit |U|^2 to |U|^4 tuples
# of a window U, so even this is far beyond what they finish.
WINDOW_LIMIT = 200_000


class WindowTooLarge(ValueError):
    """A window above WINDOW_LIMIT elements, refused before it is built."""


def check_window(factor: int, base: int, exp: int) -> None:
    """Refuse a window of factor * base**exp elements above WINDOW_LIMIT."""
    # base**bits > WINDOW_LIMIT for base >= 2, so capping the exponent there
    # keeps the verdict and a huge exponent costs nothing.
    if factor * base ** min(exp, WINDOW_LIMIT.bit_length()) > WINDOW_LIMIT:
        raise WindowTooLarge(f"window too large ({factor} * {base}^{exp} "
                             f"elements, limit {WINDOW_LIMIT})")


def window(rank: int, bound: int) -> list[GroupElem]:
    """All vectors in [-bound, bound]^rank, lex order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))
