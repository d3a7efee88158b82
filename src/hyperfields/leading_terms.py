"""Leading-term hyperfields at desk scale.

Three concrete carriers, all quotients of a field by a one-unit subgroup,
all presented through the data a coset actually determines:

* `LTContext`: F_q((t)) modulo 1-units congruent to 1 through level `level`.
  An element is Zero (``None``) or (value, coefficients c_0..c_level) with
  c_0 nonzero; it stands for every series t^value (c_0 + c_1 t + ...) with
  that window.  Addition is multivalued exactly when leading terms cancel.

* `CompositeContext`: Q(X) with the rank-2 value (X-adic order, then p-adic
  order of the leading rational coefficient), modulo 1 + X Q[[X]]-units.  An
  element is Zero or (n, c) with c a nonzero rational.

* `CollapsedConstantsContext`: Q(X) with the entire constant group Q^x
  collapsed, keeping only the X-adic order.  As a hyperfield it is the
  inclusive tropical T(Z), so it is `tropical.TropicalHyperfield` of rank 1
  with its own norm and names; it witnesses a residue hyperfield that is K
  rather than a field.  An element is Zero or the 1-tuple (order,).

Hypersums are returned as hypersets: Singleton, FiniteSet (exactly q^k
members when cancellation stops at depth k), or AboveValue (full
cancellation, everything of value above the shifted norm).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from . import hypersets as hs
from .galois import GaloisField, is_prime
from .ordgroup import Cut, Value, check_window
from .tropical import TropicalHyperfield, t_add, t_mul


class LTElement(NamedTuple):
    value: int
    coeffs: tuple[int, ...]


class CompositeElement(NamedTuple):
    n: int
    c: Fraction


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
        out = [0] * self.width
        for i, a in enumerate(x.coeffs):
            if not a:
                continue
            for j in range(self.width - i):
                out[i + j] = g.add[out[i + j]][g.mul[a][y.coeffs[j]]]
        return LTElement(x.value + y.value, tuple(out))

    def neg(self, x):
        if x is None:
            return None
        return LTElement(x.value, tuple(self.gf.neg[c] for c in x.coeffs))

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
        return LTElement(-x.value, tuple(d))

    def add(self, x, y):
        """Hypersum of two cosets.

        Distinct values: the smaller-value operand absorbs the other's
        window (a singleton); a gap wider than the level leaves it unseen.
        Equal values: coefficientwise sum; cancellation to depth k frees the
        k trailing window slots of the result (q^k members), and full
        cancellation yields everything of value above level+value.
        """
        if x is None:
            return hs.Singleton(y)
        if y is None:
            return hs.Singleton(x)
        if x.value > y.value:
            x, y = y, x
        g = self.gf
        d = y.value - x.value
        if d > self.level:
            return hs.Singleton(x)
        if d >= 1:
            merged = list(x.coeffs)
            for i in range(d, self.width):
                merged[i] = g.add[merged[i]][y.coeffs[i - d]]
            return hs.Singleton(LTElement(x.value, tuple(merged)))
        s = tuple(g.add[a][b] for a, b in zip(x.coeffs, y.coeffs))
        if all(c == 0 for c in s):
            return hs.AboveValue(self.norm_cut().shift((x.value,)))
        k = next(i for i, c in enumerate(s) if c)
        if k == 0:
            return hs.Singleton(LTElement(x.value, s))
        forced = s[k:]
        return hs.FiniteSet(frozenset(
            LTElement(x.value + k, forced + tail)
            for tail in itertools.product(range(self.q), repeat=k)))

    def value_of(self, x) -> Value:
        return None if x is None else (x.value,)

    def norm_cut(self) -> Cut:
        return Cut.le(1, (self.level,))

    def elements(self, bound: int) -> list:
        check_window((2 * bound + 1) * (self.q - 1), self.q, self.level)
        out = [None]
        for v in range(-bound, bound + 1):
            out.extend(self.elements_with_value(v))
        return out

    def elements_with_value(self, v: int) -> list[LTElement]:
        out = []
        for c0 in range(1, self.q):
            for rest in itertools.product(range(self.q), repeat=self.level):
                out.append(LTElement(v, (c0,) + rest))
        return out

    def elem_json(self, x):
        return None if x is None else {"value": x.value, "coeffs": list(x.coeffs)}

    def sort_key(self, x):
        return (0,) if x is None else (1, x.value) + x.coeffs

    def to_json(self) -> dict:
        out = {"q": self.q, "gamma": self.level}
        if self.gf.modulus is not None:  # the default modulus of F_q
            out["modulus"] = list(self.gf.modulus)
        return out

    def describe(self) -> str:
        return f"leading terms of F_{self.q}((t)) at level {self.level}"


def ord_p(c: Fraction, p: int) -> int:
    if c == 0:
        raise ValueError("0 has no finite order")
    n, d = c.numerator, c.denominator
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
    leading coefficient), modulo the 1-units 1 + X Q[[X]] it determines."""

    def __init__(self, p: int = 2):
        if not is_prime(p):
            raise ValueError("p must be a prime")
        self.p = p
        self.zero: Optional[CompositeElement] = None
        self.one = CompositeElement(0, Fraction(1))
        self.value_rank = 2

    def elem(self, n: int, c) -> CompositeElement:
        c = Fraction(c)
        if c == 0:
            raise ValueError("leading coefficient must be nonzero")
        return CompositeElement(int(n), c)

    def mul(self, x, y):
        if x is None or y is None:
            return None
        return CompositeElement(x.n + y.n, x.c * y.c)

    def neg(self, x):
        return None if x is None else CompositeElement(x.n, -x.c)

    def inv(self, x):
        if x is None:
            raise ZeroDivisionError("zero has no inverse")
        return CompositeElement(-x.n, 1 / x.c)

    def add(self, x, y):
        if x is None:
            return hs.Singleton(y)
        if y is None:
            return hs.Singleton(x)
        if x.n != y.n:
            return hs.Singleton(x if x.n < y.n else y)
        s = x.c + y.c
        if s:
            return hs.Singleton(CompositeElement(x.n, s))
        return hs.AboveValue(self.norm_cut().shift(self.value_of(x)))

    def value_of(self, x) -> Value:
        return None if x is None else (x.n, ord_p(x.c, self.p))

    def norm_cut(self) -> Cut:
        # first coordinate at most 0; invariant under the second coordinate
        return Cut.le(2, (0,))

    def elements(self, bound: int) -> list:
        fracs = sorted({Fraction(s * a, b) for s in (1, -1)
                        for a in range(1, 5) for b in range(1, 5)})
        check_window(len(fracs), 2 * bound + 1, 1)
        out = [None]
        for n in range(-bound, bound + 1):
            for c in fracs:
                out.append(CompositeElement(n, c))
        return out

    def elem_json(self, x):
        if x is None:
            return None
        return {"n": x.n, "c": f"{x.c.numerator}/{x.c.denominator}"}

    def sort_key(self, x):
        return (0,) if x is None else (1, x.n, x.c)

    def to_json(self) -> dict:
        return {"p": self.p}

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
