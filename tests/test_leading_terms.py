"""Leading-term carriers checked against polynomial-lift oracles."""

from fractions import Fraction

import pytest

from hyperfields import hypersets as hs
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, CompositeElement,
                                       LTContext, LTElement, ord_p)
from hyperfields.ordgroup import Cut, WindowTooLarge
from hyperfields.tropical import t_add

from oracles import composite_realize, lift_product_coset, lift_sum_cosets


def assert_add_matches_oracle(ctx, x, y):
    got = ctx.add(x, y)
    oracle, horizon = lift_sum_cosets(ctx, x, y)
    if isinstance(got, hs.Singleton):
        assert oracle == {got.elem}, (x, y)
    elif isinstance(got, hs.FiniteSet):
        assert oracle == set(got.elems), (x, y)
    else:
        assert isinstance(got, hs.AboveValue)
        # membership must agree on everything the bounded lift can reach
        lo = min(x.value, y.value) - 1
        universe = [None] + [u for m in range(lo, horizon + 1)
                             for u in ctx.elements_with_value(m)]
        for u in universe:
            assert hs.contains(got, u, ctx.value_of) == (u in oracle), (x, y, u)


# -- K_gamma(F_q) ------------------------------------------------------------------

def test_elem_rejects_malformed_windows():
    ctx = LTContext(3, 1)
    with pytest.raises(ValueError):
        ctx.elem(0, (1,))  # too short
    with pytest.raises(ValueError):
        ctx.elem(0, (0, 1))  # leading zero
    with pytest.raises(ValueError):
        ctx.elem(0, (1, 3))  # out of range
    with pytest.raises(ValueError):
        LTContext(3, -1)


def test_one_is_the_unit_window_at_value_zero():
    ctx = LTContext(3, 2)
    assert ctx.one == LTElement(0, (1, 0, 0))
    x = ctx.elem(4, (2, 1, 0))
    assert ctx.mul(ctx.one, x) == x
    assert ctx.mul(x, ctx.inv(x)) == ctx.one


def test_window_sizes():
    assert len(LTContext(2, 1).elements(1)) == 1 + 3 * 1 * 2
    assert len(LTContext(3, 0).elements(2)) == 1 + 5 * 2
    with pytest.raises(ValueError):
        LTContext(3, 2).elements(100_000)


@pytest.mark.parametrize("q,gamma", [(2, 1), (3, 0), (3, 1), (4, 1)])
def test_product_matches_polynomial_lift(q, gamma):
    ctx = LTContext(q, gamma)
    U = ctx.elements(1)
    for x in U:
        for y in U:
            assert ctx.mul(x, y) == lift_product_coset(ctx, x, y)


@pytest.mark.parametrize("q,gamma", [(2, 1), (3, 0), (2, 2)])
def test_hypersum_matches_polynomial_lift(q, gamma):
    ctx = LTContext(q, gamma)
    U = ctx.elements(1)
    for x in U:
        for y in U:
            assert_add_matches_oracle(ctx, x, y)


def test_hypersum_cases_by_hand():
    ctx = LTContext(3, 2)
    a = ctx.elem(0, (1, 2, 1))
    # gap beyond the window: the other operand is invisible
    assert ctx.add(a, ctx.elem(5, (2, 0, 0))) == hs.Singleton(a)
    # gap inside the window merges coefficients
    got = ctx.add(a, ctx.elem(1, (2, 2, 0)))
    assert got == hs.Singleton(LTElement(0, (1, 1, 0)))
    # cancellation to depth 2 frees two tail slots
    got = ctx.add(a, ctx.elem(0, (2, 1, 1)))
    assert isinstance(got, hs.FiniteSet) and len(got.elems) == 9
    assert all(m.value == 2 and m.coeffs[0] == 2 for m in got.elems)
    # full cancellation: everything of value above 0 + gamma
    got = ctx.add(a, ctx.neg(a))
    assert got == hs.AboveValue(Cut.le(1, (2,)))
    assert hs.contains(got, None, ctx.value_of)
    assert hs.contains(got, ctx.elem(3, (1, 0, 0)), ctx.value_of)
    assert not hs.contains(got, ctx.elem(2, (1, 0, 0)), ctx.value_of)
    for m, _ in [lift_sum_cosets(ctx, a, ctx.neg(a), extra=4)]:
        assert None in m


def test_deep_cancellation_lists_every_member():
    ctx = LTContext(3, 3)
    x = ctx.elem(0, (1, 1, 1, 1))
    y = ctx.elem(0, (2, 2, 2, 1))
    got = ctx.add(x, y)
    # cancellation to depth 3 frees three slots: 27 members of value 3
    assert isinstance(got, hs.FiniteSet) and len(got.elems) == 27
    assert all(m.value == 3 and m.coeffs[0] == 2 for m in got.elems)
    assert hs.contains(got, ctx.elem(3, (2, 0, 1, 2)), ctx.value_of)
    assert not hs.contains(got, ctx.elem(3, (1, 0, 1, 2)), ctx.value_of)
    assert not hs.contains(got, None, ctx.value_of)


def test_oversize_context_is_refused_before_it_is_built():
    # 2 * 3^11 = 354,294 units of one value, more than a window may hold
    with pytest.raises(WindowTooLarge):
        LTContext(3, 11)
    ctx = LTContext(3, 10)  # 2 * 3^10 = 118,098 fits at bound 0 ...
    with pytest.raises(WindowTooLarge):
        ctx.elements(1)  # ... but not three values of it


def test_neg_is_an_additive_inverse_window():
    ctx = LTContext(2, 1)
    x = ctx.elem(-2, (1, 1))
    assert ctx.neg(x) == x  # characteristic 2
    ctx3 = LTContext(3, 1)
    y = ctx3.elem(5, (2, 1))
    assert ctx3.neg(y) == LTElement(5, (1, 2))
    assert isinstance(ctx3.add(y, ctx3.neg(y)), hs.AboveValue)


def test_value_of_and_serialization():
    ctx = LTContext(3, 1)
    assert ctx.value_of(None) is None
    assert ctx.value_of(ctx.elem(-4, (2, 0))) == (-4,)
    assert ctx.elem_json(ctx.elem(1, (2, 1))) == {"value": 1, "coeffs": [2, 1]}
    assert ctx.to_json() == {"q": 3, "gamma": 1}
    assert LTContext(4, 0).to_json() == {"q": 4, "gamma": 0, "modulus": [1, 1, 1]}


def test_norm_cut_tracks_the_level():
    assert LTContext(3, 0).norm_cut() == Cut.le(1, (0,))
    assert LTContext(3, 2).norm_cut() == Cut.le(1, (2,))


# -- composite rank-2 carrier ---------------------------------------------------------

def test_ord_p_on_rationals():
    assert ord_p(Fraction(8, 3), 2) == 3
    assert ord_p(Fraction(3, 8), 2) == -3
    assert ord_p(Fraction(5, 7), 2) == 0
    with pytest.raises(ValueError):
        ord_p(Fraction(0), 2)


def test_composite_values_are_lex_pairs():
    ctx = CompositeContext(2)
    assert ctx.value_of(ctx.elem(3, "1/2")) == (3, -1)
    assert ctx.value_of(ctx.elem(0, 12)) == (0, 2)
    assert ctx.value_of(None) is None
    with pytest.raises(ValueError):
        ctx.elem(0, 0)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_composite_rejects_a_non_prime_p(p):
    with pytest.raises(ValueError):
        CompositeContext(p)


def test_composite_hypersum_cases():
    ctx = CompositeContext(2)
    x = ctx.elem(0, "3/2")
    assert ctx.add(x, ctx.elem(2, 5)) == hs.Singleton(x)
    assert ctx.add(x, ctx.elem(0, "1/2")) == hs.Singleton(CompositeElement(0, Fraction(2)))
    got = ctx.add(x, ctx.neg(x))
    assert got == hs.AboveValue(Cut.le(2, (0,)))
    assert hs.contains(got, ctx.elem(1, "1/1000"), ctx.value_of)
    assert not hs.contains(got, ctx.elem(0, 1024), ctx.value_of)
    assert hs.contains(got, None, ctx.value_of)


def test_composite_hypersum_agrees_with_witness_oracle():
    ctx = CompositeContext(2)
    U = [x for x in ctx.elements(1) if x is None
         or (abs(x.c.numerator) <= 2 and x.c.denominator <= 2)]
    for x in U:
        for y in U:
            s = ctx.add(x, y)
            for z in U:
                assert hs.contains(s, z, ctx.value_of) == composite_realize(
                    ctx, x, y, z), (x, y, z)


def test_composite_multiplication_and_inverse():
    ctx = CompositeContext(2)
    x = ctx.elem(3, "2/3")
    y = ctx.elem(-1, "3/4")
    assert ctx.mul(x, y) == CompositeElement(2, Fraction(1, 2))
    assert ctx.mul(x, ctx.inv(x)) == ctx.one
    assert ctx.mul(x, None) is None


def test_composite_serialization():
    ctx = CompositeContext(2)
    assert ctx.elem_json(ctx.elem(1, "1/2")) == {"n": 1, "c": "1/2"}
    assert ctx.elem_json(None) is None
    assert ctx.to_json() == {"p": 2}


# -- collapsed constants ---------------------------------------------------------------

def test_collapsed_carrier_is_inclusive_tropical_in_disguise():
    ctx = CollapsedConstantsContext()
    for x in ctx.elements(3):
        for y in ctx.elements(3):
            assert ctx.add(x, y) == t_add(x, y)


def test_collapsed_self_sum_is_the_inclusive_ray():
    ctx = CollapsedConstantsContext()
    got = ctx.add((2,), (2,))
    assert got == hs.AboveValue(Cut.le(1, (1,)))
    assert hs.contains(got, (2,), ctx.value_of)
    assert hs.contains(got, (50,), ctx.value_of)
    assert not hs.contains(got, (1,), ctx.value_of)
    assert ctx.mul((2,), (3,)) == (5,) and ctx.inv((4,)) == (-4,)
    assert ctx.neg((7,)) == (7,)
    assert ctx.elem_json((7,)) == 7 and ctx.elem_json(None) is None
