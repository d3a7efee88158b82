"""Brute-force oracles the test suite checks the library against.

The leading-term carrier is a quotient of honest truncated-series
arithmetic, so its hypersum can be recomputed from first principles: pick
polynomial lifts of both operands, add them exactly, and collect the cosets
of the results.  The coset of x only constrains coefficients through level
gamma, so the lift of the smaller-valued operand gets E extra free
coefficient positions; running over all q^E tails realizes every hypersum
member of value at most min(vx, vy) + E, and never produces anything
outside the true hypersum.

The composite carrier has rational (infinite) tails, so enumeration is
replaced by witness construction: for each claimed member a concrete pair
of 1-unit multipliers is built and then verified by exact Fraction
arithmetic; for each claimed non-member the valuation inequality rules it
out.  The carrier keeps its coefficients as reduced int pairs; the
``frac_*`` functions redo its arithmetic, value, text and order on
``Fraction`` coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hyperfields import hypersets as hs
from hyperfields.leading_terms import LTContext, LTElement, CompositeElement


def lift_sum_cosets(ctx: LTContext, x, y, extra: int | None = None):
    """All cosets of X + Y over polynomial lifts, with `extra` free tail
    positions on the smaller-valued side.  Returns (set of members, horizon):
    membership is exact for every element of value <= horizon."""
    E = ctx.level + 2 if extra is None else extra
    if x is None and y is None:
        return {None}, None
    if x is None:
        return {y}, None
    if y is None:
        return {x}, None
    if x.value <= y.value:
        free, fixed = x, y
    else:
        free, fixed = y, x
    horizon = min(x.value, y.value) + E
    gf = ctx.gf
    width = ctx.width

    base = {}
    for i, c in enumerate(fixed.coeffs):
        e = fixed.value + i
        base[e] = gf.add[base.get(e, 0)][c]

    members = set()
    tail_exps = [free.value + width + j for j in range(E)]
    for tail in itertools.product(range(ctx.q), repeat=E):
        poly = dict(base)
        for i, c in enumerate(free.coeffs):
            e = free.value + i
            poly[e] = gf.add[poly.get(e, 0)][c]
        for e, c in zip(tail_exps, tail):
            poly[e] = gf.add[poly.get(e, 0)][c]
        support = sorted(e for e, c in poly.items() if c)
        if not support:
            members.add(None)
            continue
        v = support[0]
        members.add(LTElement(v, tuple(poly.get(v + i, 0) for i in range(width))))
    return members, horizon


def lift_product_coset(ctx: LTContext, x, y):
    """Coset of X * Y for zero-tail lifts; tails cannot reach the coset
    window of the product, so this is single-valued."""
    if x is None or y is None:
        return None
    gf = ctx.gf
    poly = {}
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if not b:
                continue
            e = x.value + i + y.value + j
            poly[e] = gf.add[poly.get(e, 0)][gf.mul[a][b]]
    support = sorted(e for e, c in poly.items() if c)
    v = support[0]
    return LTElement(v, tuple(poly.get(v + i, 0) for i in range(ctx.width)))


# -- composite oracle -----------------------------------------------------------

def frac(e: CompositeElement) -> Fraction:
    """The leading coefficient of a composite element, as a Fraction."""
    return Fraction(*e.c)


def composite(n: int, c: Fraction) -> CompositeElement:
    """The composite element X^n c for a nonzero Fraction c."""
    return CompositeElement(n, (c.numerator, c.denominator))


def frac_ord_p(c: Fraction, p: int) -> int:
    n, d = c.numerator, c.denominator
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


def frac_value(ctx, x):
    return None if x is None else (x.n, frac_ord_p(frac(x), ctx.p))


def frac_add(ctx, x, y):
    """The composite hypersum, by Fraction arithmetic; full cancellation is
    the norm shifted by the value of x."""
    if x is None or y is None:
        return hs.Singleton(y if x is None else x)
    if x.n != y.n:
        return hs.Singleton(x if x.n < y.n else y)
    s = frac(x) + frac(y)
    if s:
        return hs.Singleton(composite(x.n, s))
    return hs.AboveValue(ctx.norm_cut().shift(frac_value(ctx, x)))


def frac_mul(x, y):
    if x is None or y is None:
        return None
    return composite(x.n + y.n, frac(x) * frac(y))


def frac_neg(x):
    return None if x is None else composite(x.n, -frac(x))


def frac_inv(x):
    return composite(-x.n, 1 / frac(x))


def frac_json(x):
    if x is None:
        return None
    c = frac(x)
    return {"n": x.n, "c": f"{c.numerator}/{c.denominator}"}


def frac_sort_key(x):
    return (0,) if x is None else (1, x.n, frac(x))


def _frac_poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _frac_poly_coset(ctx, poly: dict):
    """Leading X-exponent and leading rational coefficient, as a carrier
    element (None for the zero polynomial)."""
    if not poly:
        return None
    n = min(poly)
    return composite(n, poly[n])


def composite_realize(ctx, x, y, z) -> bool:
    """Can z = cls(X u + Y v) for 1-unit multipliers u, v?  Constructs a
    witness per the case analysis and verifies it with exact arithmetic;
    claims of impossibility come from the valuation inequality."""
    if x is None and y is None:
        return z is None
    if x is None or y is None:
        return z == (y if x is None else x)

    def poly_of(e: CompositeElement, tail: dict | None = None) -> dict:
        out = {e.n: frac(e)}
        for k, d in (tail or {}).items():
            out[e.n + k] = out.get(e.n + k, Fraction(0)) + frac(e) * d
        return {k: c for k, c in out.items() if c}

    def verify(tail_x: dict | None, tail_y: dict | None) -> bool:
        got = _frac_poly_coset(ctx, _frac_poly_add(poly_of(x, tail_x),
                                                   poly_of(y, tail_y)))
        return got == z

    if x.n != y.n:
        return z == min((x, y), key=lambda e: e.n) and verify(None, None)
    if frac(x) + frac(y) != 0:
        return z == composite(x.n, frac(x) + frac(y)) and verify(None, None)
    # full cancellation: members are exactly Zero and every element of
    # strictly larger X-order
    if z is None:
        return verify(None, None)
    if z.n <= x.n:
        return False
    return verify({z.n - x.n: frac(z) / frac(x)}, None)
