"""Leading-term hyperfields at desk scale.

Three concrete carriers, all quotients of a field by a one-unit subgroup,
all presented through the data a coset actually determines:

* `LTContext`: F_q((t)) modulo 1-units congruent to 1 through level `level`.
  An element is Zero (``None``) or (value, coefficients c_0..c_level) with
  c_0 nonzero; it stands for every series t^value (c_0 + c_1 t + ...) with
  that window.  Addition is multivalued exactly when leading terms cancel.

* `CompositeContext`: Q(X) with the rank-2 value (X-adic order, then p-adic
  order of the leading rational coefficient), modulo 1 + X Q[[X]]-units.  An
  element is Zero or (n, c) with c a nonzero rational, kept as the reduced
  int pair (numerator, denominator > 0).

* `CollapsedConstantsContext`: Q(X) with the entire constant group Q^x
  collapsed, keeping only the X-adic order.  As a hyperfield it is the
  inclusive tropical T(Z), so it is `tropical.TropicalHyperfield` of rank 1
  with its own norm and names; it witnesses a residue hyperfield that is K
  rather than a field.  An element is Zero or the 1-tuple (order,).

Hypersums are returned as hypersets: Singleton, FiniteSet (exactly q^k
members when cancellation stops at depth k), or AboveValue (full
cancellation, everything of value above the shifted norm).

The arithmetic and the windows build every element, hyperset and cut they
return with ``tuple.__new__``, skipping the named tuples' Python-level
``__new__`` (a frame per tuple); -x is x itself in characteristic 2, and a
level-0 product is one table lookup.

Each carrier keeps its constants in ``bitmask._Kept`` tables, an entry
made on the first read of its key, never in ``__init__`` (``LTContext(2,
16)`` is a valid context with 65,536 tails of full depth).  `LTContext`
keeps F_q^k in ``itertools.product`` order for each depth k it has met
(the freed slots of a sum that cancels to depth k; at k = level the tails
of the unit windows, so a window builds them once and stamps each value
with them) and the negation of each coefficient window it has negated
(none in characteristic 2), so ``neg`` is one lookup and an equal-value
``add`` spots full cancellation, y = -x, by one lookup and one tuple
compare.  Both carriers keep the full-cancellation ray of each value (the
X-order for `CompositeContext`): x + (-x) is one object per value, so
``valuation.induced_ring`` and ``_Window.intern`` find it by identity.
`CompositeContext` also keeps its window's coefficient pairs, which
depend on p alone.  Each entry is a function of its key and of the
carrier's own parameters, never of a hypersum or a window bound, so
keeping it for the carrier's life carries no verdict from one check to
the next: -w is a fact of F_q, read the same whichever check asked first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from . import hypersets as hs
from .bitmask import _Kept
from .galois import GaloisField, is_prime
from .ordgroup import Cut, Value, check_window
from .tropical import TropicalHyperfield, t_add, t_mul


class LTElement(NamedTuple):
    value: int
    coeffs: tuple[int, ...]


class CompositeElement(NamedTuple):
    """The coset of X^n (c + X Q[[X]]); c is the reduced int pair
    (numerator, denominator) of a nonzero rational, denominator > 0."""

    n: int
    c: tuple[int, int]


def _ray_table(rank: int, shift: int) -> _Kept:
    """value -> the full-cancellation ray at that value: AboveValue of the
    rank-`rank` cut {m <= value + shift}."""
    new = tuple.__new__
    return _Kept(lambda v: new(hs.AboveValue, (new(Cut, (rank, 1, (v + shift,), True)),)))


class LTContext:
    """Truncated leading-term arithmetic for F_q((t)) at unit level [0, level]."""

    def __init__(self, q: int, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        check_window(q - 1, q, level)  # the units of one value
        self.gf = GaloisField(q)
        self.q = q
        self.level = level
        self.width = level + 1
        self.zero: Optional[LTElement] = None
        self.one = LTElement(0, (1,) + (0,) * level)
        self.value_rank = 1
        self._norm = Cut.le(1, (level,))
        # k -> F_q^k in product order: the freed slots of a sum that cancels
        # to depth k, and (at k = level) the tails of the unit windows
        self._tails = _Kept(lambda k: tuple(itertools.product(range(q), repeat=k)))
        self._char2 = self.gf.p == 2
        neg = self.gf.neg
        self._negs = _Kept(lambda coeffs: tuple(map(neg.__getitem__, coeffs)))  # window -> -window
        self._rays = _ray_table(1, level)  # value v -> x - x at v(x) = v

    def elem(self, value: int, coeffs) -> LTElement:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.width:
            raise ValueError(f"need exactly {self.width} coefficients")
        if any(not (0 <= c < self.q) for c in coeffs):
            raise ValueError("coefficient out of range")
        if coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return LTElement(int(value), coeffs)

    def mul(self, x, y):
        if x is None or y is None:
            return None
        g = self.gf
        if not self.level:
            return tuple.__new__(LTElement, (x.value + y.value,
                                             (g.mul[x.coeffs[0]][y.coeffs[0]],)))
        out = [0] * self.width
        for i, a in enumerate(x.coeffs):
            if not a:
                continue
            for j in range(self.width - i):
                out[i + j] = g.add[out[i + j]][g.mul[a][y.coeffs[j]]]
        return tuple.__new__(LTElement, (x.value + y.value, tuple(out)))

    def neg(self, x):
        if x is None or self._char2:
            return x  # -c = c in characteristic 2
        return tuple.__new__(LTElement, (x.value, self._negs[x.coeffs]))

    def inv(self, x):
        if x is None:
            raise ZeroDivisionError("zero has no inverse")
        g = self.gf
        d = [g.inv[x.coeffs[0]]] + [0] * self.level
        for k in range(1, self.width):
            acc = 0
            for i in range(1, k + 1):
                acc = g.add[acc][g.mul[x.coeffs[i]][d[k - i]]]
            d[k] = g.neg[g.mul[d[0]][acc]]
        return tuple.__new__(LTElement, (-x.value, tuple(d)))

    def add(self, x, y):
        """Hypersum of two cosets.

        Distinct values: the smaller-value operand absorbs the other's
        window (a singleton); a gap wider than the level leaves it unseen.
        Equal values: full cancellation, y = -x, read off the negated
        window, yields everything of value above level+value (the kept ray
        of that value, one object per value); otherwise the
        coefficientwise sum, where cancellation to depth k frees the k
        trailing window slots of the result (q^k members).
        """
        new = tuple.__new__
        if x is None:
            return new(hs.Singleton, (y,))
        if y is None:
            return new(hs.Singleton, (x,))
        if x.value > y.value:
            x, y = y, x
        g = self.gf
        d = y.value - x.value
        if d > self.level:
            return new(hs.Singleton, (x,))
        if d >= 1:
            merged = list(x.coeffs)
            for i in range(d, self.width):
                merged[i] = g.add[merged[i]][y.coeffs[i - d]]
            return new(hs.Singleton, (new(LTElement, (x.value, tuple(merged))),))
        if y.coeffs == (x.coeffs if self._char2 else self._negs[x.coeffs]):
            return self._rays[x.value]  # the norm {m <= level} shifted by the value
        s = tuple(map(list.__getitem__, map(g.add.__getitem__, x.coeffs), y.coeffs))
        if s[0]:
            return new(hs.Singleton, (new(LTElement, (x.value, s)),))
        k = next(i for i, c in enumerate(s) if c)  # s has a nonzero slot: y != -x
        v, forced = x.value + k, s[k:]
        return new(hs.FiniteSet, (frozenset(
            new(LTElement, (v, forced + tail))
            for tail in self._tails[k]),))

    def _units(self) -> list:
        """The (q-1) q^level coefficient windows of one value: by c_0, then
        the tail in product order."""
        tails = self._tails[self.level]
        return [(c0,) + t for c0 in range(1, self.q) for t in tails]

    def value_of(self, x) -> Value:
        return None if x is None else (x.value,)

    def norm_cut(self) -> Cut:
        return self._norm

    def elements(self, bound: int) -> list:
        check_window((2 * bound + 1) * (self.q - 1), self.q, self.level)
        units, new = self._units(), tuple.__new__
        out = [None]
        for v in range(-bound, bound + 1):
            out.extend([new(LTElement, (v, c)) for c in units])
        return out

    def elements_with_value(self, v: int) -> list[LTElement]:
        new = tuple.__new__
        return [new(LTElement, (v, c)) for c in self._units()]

    def elem_json(self, x):
        return None if x is None else {"value": x.value, "coeffs": list(x.coeffs)}

    def sort_key(self, x):
        return (0,) if x is None else (1, x.value) + x.coeffs

    def describe(self) -> str:
        return f"leading terms of F_{self.q}((t)) at level {self.level}"


def ord_p(c: tuple[int, int], p: int) -> int:
    """The p-adic order of the nonzero rational c = (numerator, denominator)."""
    n, d = c
    if n == 0:
        raise ValueError("0 has no finite order")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


class CompositeContext:
    """Q(X) with the composite rank-2 value (X-adic, then p-adic on the
    leading coefficient), modulo the 1-units 1 + X Q[[X]] it determines.

    Coefficients are reduced int pairs (numerator, denominator > 0):
    sums and products cross-multiply and divide out the gcd, so equal
    rationals are equal pairs."""

    def __init__(self, p: int = 2):
        if not is_prime(p):
            raise ValueError("p must be a prime")
        self.p = p
        self.zero: Optional[CompositeElement] = None
        self.one = CompositeElement(0, (1, 1))
        self.value_rank = 2
        # first coordinate at most 0; invariant under the second coordinate
        self._norm = Cut.le(2, (0,))
        self._coeffs: Optional[tuple] = None  # the window's c, built on first use
        self._rays = _ray_table(2, 0)  # X-order n -> x - x at order n

    def elem(self, n: int, c) -> CompositeElement:
        c = Fraction(c)
        if c == 0:
            raise ValueError("leading coefficient must be nonzero")
        return CompositeElement(int(n), c.as_integer_ratio())

    def mul(self, x, y):
        if x is None or y is None:
            return None
        (a, b), (c, d) = x.c, y.c
        num, den = a * c, b * d
        g = gcd(num, den)
        return tuple.__new__(CompositeElement, (x.n + y.n, (num // g, den // g)))

    def neg(self, x):
        if x is None:
            return None
        a, b = x.c
        return tuple.__new__(CompositeElement, (x.n, (-a, b)))

    def inv(self, x):
        if x is None:
            raise ZeroDivisionError("zero has no inverse")
        a, b = x.c
        return tuple.__new__(CompositeElement, (-x.n, (b, a) if a > 0 else (-b, -a)))

    def add(self, x, y):
        new = tuple.__new__
        if x is None:
            return new(hs.Singleton, (y,))
        if y is None:
            return new(hs.Singleton, (x,))
        if x.n != y.n:
            return new(hs.Singleton, (x if x.n < y.n else y,))
        (a, b), (c, d) = x.c, y.c
        num = a * d + c * b
        if num:
            den = b * d
            g = gcd(num, den)
            return new(hs.Singleton, (new(CompositeElement, (x.n, (num // g, den // g))),))
        # the norm bounds the X-order alone: its shift by v(x) is {m <= n}
        return self._rays[x.n]

    def value_of(self, x) -> Value:
        return None if x is None else (x.n, ord_p(x.c, self.p))

    def norm_cut(self) -> Cut:
        return self._norm

    def elements(self, bound: int) -> list:
        coeffs = self._coeffs
        if coeffs is None:
            # p among the numerators and denominators puts elements of p-adic
            # order +-1 in the window for every p, not only for 2 and 3
            parts = sorted({1, 2, 3, 4, self.p})
            coeffs = self._coeffs = tuple(f.as_integer_ratio() for f in sorted(
                {Fraction(s * a, b) for s in (1, -1) for a in parts for b in parts}))
        check_window(len(coeffs), 2 * bound + 1, 1)
        new = tuple.__new__
        out = [None]
        for n in range(-bound, bound + 1):
            out.extend([new(CompositeElement, (n, c)) for c in coeffs])
        return out

    def elem_json(self, x):
        if x is None:
            return None
        return {"n": x.n, "c": f"{x.c[0]}/{x.c[1]}"}

    def sort_key(self, x):
        return (0,) if x is None else (1, x.n, Fraction(*x.c))

    def describe(self) -> str:
        return f"Q(X) with composite (X-adic, {self.p}-adic) leading terms"


class CollapsedConstantsContext(TropicalHyperfield):
    """Q(X) modulo the whole constant group: only the X-adic order is left.

    Cancellation can dig arbitrarily deep (constants are unconstrained), so
    equal orders hypersum to the full inclusive ray: the structure is the
    inclusive tropical hyperfield T(Z), and an element is its X-adic order
    as a 1-tuple (``None`` for zero).
    """

    def __init__(self):
        super().__init__(1)

    # Own methods, not inherited: bench/tracing.py patches each carrier's
    # add, neg and mul on its class.
    def add(self, x, y):
        return t_add(x, y)

    def neg(self, x):
        return x

    def mul(self, x, y):
        return t_mul(x, y)

    def norm_cut(self) -> Cut:
        return Cut.le(1, (0,))

    def elem_json(self, x):
        return None if x is None else x[0]

    def describe(self) -> str:
        return "Q(X) with all constants collapsed (X-adic orders only)"
