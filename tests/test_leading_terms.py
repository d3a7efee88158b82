"""Leading-term carriers checked against polynomial-lift oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfields import hypersets as hs
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, CompositeElement,
                                       LTContext, LTElement, ord_p)
from hyperfields.ordgroup import Cut, WindowTooLarge
from hyperfields.tropical import t_add

from oracles import (composite, composite_realize, frac, frac_add, frac_inv,
                     frac_json, frac_mul, frac_neg, frac_sort_key, frac_value,
                     lift_product_coset, lift_sum_cosets)


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


def test_window_budgets_are_exact_at_the_limit():
    # 2^15 units of one value: seven values make 229,376 elements, over the
    # 200,000-element limit, where six or four would fit
    with pytest.raises(WindowTooLarge):
        LTContext(2, 15).elements(3)
    # 2^17 units of one value fit (c_0 = 0 is no unit), 2^18 do not
    assert LTContext(2, 17).level == 17
    with pytest.raises(WindowTooLarge):
        LTContext(2, 18)
    # 100,001 values of one unit each fit; twice as many would not
    assert len(LTContext(2, 0).elements(50_000)) == 1 + 100_001
    # 22 coefficients at p = 2: 9,091 values make 200,002 elements
    with pytest.raises(WindowTooLarge):
        CompositeContext(2).elements(4_545)


def _reference_lt_window(q, level, bound):
    """The window as the nested loops built it before the units were
    shared: by value, then c_0, then the tail in product order."""
    return [None] + [LTElement(v, (c0,) + rest) for v in range(-bound, bound + 1)
                     for c0 in range(1, q)
                     for rest in itertools.product(range(q), repeat=level)]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_window_order_is_value_then_leading_coefficient_then_tail(q, level):
    ctx = LTContext(q, level)
    per_value = (q - 1) * q ** level
    for bound in (0, 1, 2):
        want = _reference_lt_window(q, level, bound)
        got = ctx.elements(bound)
        assert got == want
        assert all(type(x) is LTElement and type(x.coeffs) is tuple for x in got[1:])
        for i, v in enumerate(range(-bound, bound + 1)):
            assert ctx.elements_with_value(v) == want[1 + i * per_value:1 + (i + 1) * per_value]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_each_cancellation_depth_frees_product_many_tails(q):
    ctx = LTContext(q, 3)
    minus_one = ctx.gf.neg[1]
    for k in (1, 2, 3):
        x = ctx.elem(2, (1, 1, 1, 1))
        y = ctx.elem(2, (minus_one,) * k + (0,) * (4 - k))
        got = ctx.add(x, y)
        want = {LTElement(2 + k, (1,) * (4 - k) + tail)
                for tail in itertools.product(range(q), repeat=k)}
        assert isinstance(got, hs.FiniteSet) and set(got.elems) == want
        assert_built_as_checked(got)


@pytest.mark.parametrize("fresh", [lambda: LTContext(2, 2), lambda: LTContext(3, 1),
                                   lambda: LTContext(4, 2), lambda: LTContext(5, 1),
                                   lambda: LTContext(9, 1), lambda: CompositeContext(2),
                                   lambda: CompositeContext(3)],
                         ids=["2-2", "3-1", "4-2", "5-1", "9-1", "composite-2", "composite-3"])
def test_a_used_context_answers_as_a_fresh_one(fresh):
    used = fresh()
    U = used.elements(1)
    sums = {(x, y): used.add(x, y) for x in U for y in U}
    negs = {x: used.neg(x) for x in U}
    assert used.elements(1) == fresh().elements(1) == U
    if isinstance(used, LTContext):
        assert used.elements_with_value(3) == fresh().elements_with_value(3)
    for (x, y), s in sums.items():
        assert used.add(x, y) == s == fresh().add(x, y), (x, y)
    for x, n in negs.items():
        assert used.neg(x) == n == fresh().neg(x), x


def test_tails_are_built_on_first_use_and_once_per_depth():
    ctx = LTContext(2, 16)  # 65,536 tails of depth 16: none built yet
    assert ctx._tails == {}
    x, y = ctx.elem(0, (1, 1) + (0,) * 15), ctx.elem(0, (1, 0) + (0,) * 15)
    first = ctx.add(x, y)
    assert set(ctx._tails) == {1}
    tails = ctx._tails[1]
    assert ctx.add(x, y) == first and ctx._tails[1] is tails


def test_returned_windows_are_the_callers_to_change():
    lt, comp = LTContext(3, 1), CompositeContext(5)
    for call in (lambda: lt.elements(1), lambda: lt.elements_with_value(0),
                 lambda: comp.elements(1)):
        want = list(call())
        got = call()
        got.append("junk")
        got[1] = "junk"
        del got[2:4]
        assert call() == want


@pytest.mark.parametrize("q,gamma", [(2, 0), (3, 1), (4, 2)])
def test_full_cancellation_is_the_shifted_norm(q, gamma):
    ctx = LTContext(q, gamma)
    for x in ctx.elements(2)[1:]:
        got = ctx.add(x, ctx.neg(x))
        want = ctx.norm_cut().shift((x.value,))
        assert got == hs.AboveValue(want)
        assert got.cut == want and hash(got.cut) == hash(want)
        assert hash(got) == hash(hs.AboveValue(want))


def _ray_contexts():
    return [LTContext(2, 0), LTContext(3, 1), LTContext(4, 2), LTContext(9, 1),
            CompositeContext(2), CompositeContext(5)]


@pytest.mark.parametrize("ctx", _ray_contexts(), ids=["lt-2-0", "lt-3-1", "lt-4-2", "lt-9-1",
                                                     "composite-2", "composite-5"])
def test_full_cancellation_keeps_one_ray_per_value(ctx):
    assert ctx._rays == {}  # nothing is built in __init__
    U = ctx.elements(1)[1:]
    rays = {}
    for x in U:
        got = ctx.add(x, ctx.neg(x))
        v = ctx.value_of(x)[0]  # the level's shift is of the first coordinate
        assert got is rays.setdefault(v, got), x  # one object per value
        want = hs.AboveValue(Cut.le(ctx.value_rank, (v + getattr(ctx, "level", 0),)))
        assert got == want and hash(got) == hash(want)
        assert got == hs.AboveValue(ctx.norm_cut().shift(ctx.value_of(x)))
        assert_built_as_checked(got)
    assert ctx._rays == rays and set(rays) == {-1, 0, 1}
    assert all(type(k) is int for k in ctx._rays)


def test_rays_are_built_on_first_use_only():
    ctx = LTContext(3, 10)
    assert ctx._rays == {}
    x = ctx.elem(4, (1,) + (0,) * 10)
    ctx.add(x, x)  # no cancellation: no ray
    assert ctx._rays == {}
    ray = ctx.add(x, ctx.neg(x))
    assert ctx._rays == {4: ray} and ray.cut == Cut.le(1, (14,))
    comp = CompositeContext(3)
    y = comp.elem(-2, 5)
    comp.add(y, y)
    assert comp._rays == {}
    assert comp.add(y, comp.neg(y)) is comp._rays[-2] == hs.AboveValue(Cut.le(2, (-2,)))


def test_negations_are_kept_one_window_at_a_time():
    assert LTContext(3, 2)._negs == {}
    ctx = LTContext(3, 10)  # 118,098 unit windows, none negated yet
    assert ctx._negs == {}
    x = ctx.elem(0, (1, 2) + (0,) * 9)
    assert ctx.neg(x) == LTElement(0, (2, 1) + (0,) * 9)
    assert ctx._negs == {x.coeffs: (2, 1) + (0,) * 9}
    assert isinstance(ctx.add(x, ctx.neg(x)), hs.AboveValue)
    assert len(ctx._negs) == 1  # an equal-value sum reads the same entry
    ctx = LTContext(5, 1)
    U = ctx.elements(1)[1:]
    for x in U + U:
        ctx.neg(x)
    # one entry per distinct window, however many values share it
    assert ctx._negs == {c: tuple(ctx.gf.neg[a] for a in c) for c in {x.coeffs for x in U}}


@pytest.mark.parametrize("q", [2, 4])
def test_characteristic_2_never_fills_the_negations(q):
    ctx = LTContext(q, 2)
    U = ctx.elements(0)
    for x in U:
        assert ctx.neg(x) is x
        for y in U:
            ctx.add(x, y)
    assert ctx._negs == {}


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_equal_values_sum_to_a_ray_exactly_at_the_negation(q, level):
    ctx = LTContext(q, level)
    U = ctx.elements_with_value(2)
    for x in U:
        n = ctx.neg(x)
        for y in U:
            assert isinstance(ctx.add(x, y), hs.AboveValue) == (y == n), (x, y)


def test_neg_is_an_additive_inverse_window():
    ctx = LTContext(2, 1)
    x = ctx.elem(-2, (1, 1))
    assert ctx.neg(x) == x  # characteristic 2
    ctx3 = LTContext(3, 1)
    y = ctx3.elem(5, (2, 1))
    assert ctx3.neg(y) == LTElement(5, (1, 2))
    assert isinstance(ctx3.add(y, ctx3.neg(y)), hs.AboveValue)


def _checked(s):
    """The hyperset s rebuilt through the checked constructors: each named
    tuple's own ``__new__`` and ``Cut.__new__``, which normalises."""
    if isinstance(s, hs.Singleton):
        e = s.elem
        return hs.Singleton(None if e is None else type(e)(*e))
    if isinstance(s, hs.FiniteSet):
        return hs.FiniteSet(frozenset(type(e)(*e) for e in s.elems))
    return hs.AboveValue(Cut(*s.cut))


def assert_built_as_checked(s):
    """The carriers build their results with ``tuple.__new__``; each must
    equal, and hash as, the value the checked constructors build."""
    want = _checked(s)
    assert type(s) is type(want) and s == want and hash(s) == hash(want)
    if isinstance(s, hs.AboveValue):
        assert type(s.cut) is Cut and type(s.cut.bound) is tuple
    else:
        elems = [s.elem] if isinstance(s, hs.Singleton) else s.elems
        assert all(e is None or type(e) in (LTElement, CompositeElement) for e in elems)


# F_9 = F_3[x]/(x^2 + 1) is an odd prime power whose negation table,
# [0, 2, 1, 6, 8, 7, 3, 5, 4], is not c -> q - c; at level 1 the lift
# oracle's three free slots make 9^3 tails
_LT_SHAPES = [(q, level) for q in (2, 3, 4, 5) for level in range(4)] + [(9, 0), (9, 1)]


@st.composite
def _lt_draws(draw):
    """LT(q, level) with q in {2, 3, 4, 5} and level 0-3, or q = 9 and
    level 0-1, and two of its elements.  y is drawn at x's value, within
    the level of it, or as ctx.neg(x) on purpose: those are where the sums
    merge and cancel."""
    ctx = LTContext(*draw(st.sampled_from(_LT_SHAPES)))

    def of_value(v):
        return st.builds(lambda c0, rest: ctx.elem(v, (c0, *rest)),
                         st.integers(1, ctx.q - 1),
                         st.lists(st.integers(0, ctx.q - 1),
                                  min_size=ctx.level, max_size=ctx.level))

    elem = st.one_of(st.none(), st.integers(-3, 3).flatmap(of_value))
    x = draw(elem)
    near = st.none() if x is None else st.integers(0, ctx.level + 1).flatmap(
        lambda d: of_value(x.value + d))
    y = draw(st.one_of(elem, near, st.just(ctx.neg(x))))
    return ctx, x, y


@settings(max_examples=250, deadline=None)
@given(_lt_draws())
@example((LTContext(4, 1), LTElement(1, (3, 2)), LTElement(1, (3, 2))))  # char-2 neg
@example((LTContext(3, 0), LTElement(-1, (2,)), LTElement(2, (2,))))    # level-0 mul
@example((LTContext(9, 1), LTElement(0, (3, 5)), LTElement(0, (6, 7))))  # F_9's -c
def test_lt_carrier_matches_the_polynomial_lifts(case):
    ctx, x, y = case
    assert_add_matches_oracle(ctx, x, y)
    assert_built_as_checked(ctx.add(x, y))
    got = ctx.mul(x, y)
    assert got == lift_product_coset(ctx, x, y)
    assert got is None or type(got) is LTElement
    for z in (x, y):
        if z is None:
            assert ctx.neg(z) is None
            continue
        n = ctx.neg(z)
        # -z is the one element of z's value whose lift cancels z's: the
        # zero-tail lifts of z and n sum to the zero series
        assert type(n) is LTElement and n.value == z.value
        assert lift_sum_cosets(ctx, z, n, extra=0)[0] == {None}
        if ctx.gf.p == 2:
            assert n is z
        # an inverse in a group is unique, so the product pins it
        assert lift_product_coset(ctx, z, ctx.inv(z)) == ctx.one
        assert_built_as_checked(hs.Singleton(ctx.inv(z)))


@pytest.mark.parametrize("ctx", [LTContext(2, 0), LTContext(3, 1), LTContext(4, 2),
                                 CompositeContext(2), CompositeContext(3)])
def test_full_cancellation_rays_equal_the_checked_constructor(ctx):
    for x in ctx.elements(1)[1:]:
        got = ctx.add(x, ctx.neg(x))
        assert isinstance(got, hs.AboveValue)
        assert_built_as_checked(got)
        # the norm's bound, moved by the leading value
        bound = ((x.value + ctx.level,) if isinstance(ctx, LTContext) else (x.n,))
        assert got.cut == Cut(ctx.value_rank, 1, bound, True)


def test_value_of_and_serialization():
    ctx = LTContext(3, 1)
    assert ctx.value_of(None) is None
    assert ctx.value_of(ctx.elem(-4, (2, 0))) == (-4,)
    assert ctx.elem_json(ctx.elem(1, (2, 1))) == {"value": 1, "coeffs": [2, 1]}


def test_norm_cut_tracks_the_level():
    assert LTContext(3, 0).norm_cut() == Cut.le(1, (0,))
    assert LTContext(3, 2).norm_cut() == Cut.le(1, (2,))


# -- composite rank-2 carrier ---------------------------------------------------------

def test_ord_p_on_rationals():
    assert ord_p(Fraction(8, 3).as_integer_ratio(), 2) == 3
    assert ord_p(Fraction(3, 8).as_integer_ratio(), 2) == -3
    assert ord_p(Fraction(5, 7).as_integer_ratio(), 2) == 0
    with pytest.raises(ValueError):
        ord_p(Fraction(0).as_integer_ratio(), 2)


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
    assert ctx.add(x, ctx.elem(0, "1/2")) == hs.Singleton(composite(0, Fraction(2)))
    got = ctx.add(x, ctx.neg(x))
    assert got == hs.AboveValue(Cut.le(2, (0,)))
    assert hs.contains(got, ctx.elem(1, "1/1000"), ctx.value_of)
    assert not hs.contains(got, ctx.elem(0, 1024), ctx.value_of)
    assert hs.contains(got, None, ctx.value_of)


def test_composite_hypersum_agrees_with_witness_oracle():
    ctx = CompositeContext(2)
    U = [x for x in ctx.elements(1) if x is None
         or (abs(frac(x).numerator) <= 2 and frac(x).denominator <= 2)]
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
    assert ctx.mul(x, y) == composite(2, Fraction(1, 2))
    assert ctx.mul(x, ctx.inv(x)) == ctx.one
    assert ctx.mul(x, None) is None


def test_composite_window_sees_the_p_adic_order_for_every_p():
    # with fractions a/b, a, b <= 4 alone, no element of the p = 5 window
    # had a nonzero 5-adic order
    ctx = CompositeContext(5)
    orders = {ctx.value_of(x)[1] for x in ctx.elements(0) if x is not None}
    assert {-1, 1} <= orders


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("bound", [0, 2])
def test_composite_windows_for_p_2_and_3_are_unchanged(p, bound):
    fracs = sorted({Fraction(s * a, b) for s in (1, -1)
                    for a in range(1, 5) for b in range(1, 5)})
    assert CompositeContext(p).elements(bound) == [None] + [
        composite(n, c) for n in range(-bound, bound + 1) for c in fracs]


def test_composite_serialization():
    ctx = CompositeContext(2)
    assert ctx.elem_json(ctx.elem(1, "1/2")) == {"n": 1, "c": "1/2"}
    assert ctx.elem_json(None) is None


def test_composite_coefficients_are_reduced_int_pairs():
    ctx = CompositeContext(2)
    assert ctx.elem(1, "-6/4") == ctx.elem(1, Fraction(6, -4)) == CompositeElement(1, (-3, 2))
    assert ctx.one == CompositeElement(0, (1, 1))
    assert ctx.elem(0, -3) == ctx.elem(0, "-3") == ctx.elem(0, Fraction(-3)) == CompositeElement(0, (-3, 1))
    assert ctx.inv(ctx.elem(2, "-2/3")) == CompositeElement(-2, (-3, 2))
    assert ctx.inv(ctx.elem(0, -5)) == CompositeElement(0, (-1, 5))


@pytest.mark.parametrize("ctx", [LTContext(3, 1), CompositeContext(2)])
def test_zero_has_no_inverse(ctx):
    with pytest.raises(ZeroDivisionError):
        ctx.inv(None)


def _pair_with_p_powers(p):
    """A nonzero rational (numerator, denominator) carrying powers of p."""
    unit = st.integers(1, 60).filter(lambda k: k % p)
    return st.tuples(st.sampled_from((1, -1)), unit, unit,
                     st.integers(0, 4), st.integers(0, 4)).map(
        lambda t: (t[0] * t[1] * p ** t[3], t[2] * p ** t[4]))


@st.composite
def _composite_draws(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    ctx = CompositeContext(p)
    elem = st.one_of(st.none(), st.builds(
        lambda n, c: ctx.elem(n, Fraction(*c)), st.integers(-3, 3), _pair_with_p_powers(p)))
    x = draw(elem)
    # equal X-orders, and y = -x, are where the sums cancel
    y = draw(st.one_of(elem, st.just(ctx.neg(x)),
                       st.builds(lambda c: None if x is None else ctx.elem(x.n, Fraction(*c)),
                                 _pair_with_p_powers(p))))
    return ctx, x, y


@settings(max_examples=300, deadline=None)
@given(_composite_draws())
def test_int_composite_carrier_matches_the_fraction_oracle(case):
    ctx, x, y = case
    got = ctx.add(x, y)
    assert got == frac_add(ctx, x, y)
    assert_built_as_checked(got)
    got = ctx.mul(x, y)
    assert got == frac_mul(x, y)
    assert got is None or type(got) is CompositeElement
    for z in (x, y):
        assert ctx.neg(z) == frac_neg(z)
        assert z is None or type(ctx.neg(z)) is CompositeElement
        assert ctx.value_of(z) == frac_value(ctx, z)
        assert ctx.elem_json(z) == frac_json(z)
        if z is not None:
            assert ctx.inv(z) == frac_inv(z)
            assert_built_as_checked(hs.Singleton(ctx.inv(z)))
            assert z.c[1] > 0 and ctx.inv(z).c[1] > 0
            c = frac(z)
            assert ctx.elem(z.n, c) == ctx.elem(z.n, f"{c.numerator}/{c.denominator}") == z
            if c.denominator == 1:
                assert ctx.elem(z.n, c.numerator) == z
    assert ((ctx.sort_key(x) < ctx.sort_key(y)) == (frac_sort_key(x) < frac_sort_key(y)))
    assert ((ctx.sort_key(x) == ctx.sort_key(y)) == (frac_sort_key(x) == frac_sort_key(y)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_composite_window_order_is_the_fraction_order(p):
    U = CompositeContext(p).elements(1)
    assert sorted(U, key=frac_sort_key) == U
    assert sorted(U, key=CompositeContext(p).sort_key) == U


def _reference_composite_window(p, bound):
    """The window as built from Fractions on every call."""
    parts = sorted({1, 2, 3, 4, p})
    fracs = sorted({Fraction(s * a, b) for s in (1, -1) for a in parts for b in parts})
    return [None] + [CompositeElement(n, f.as_integer_ratio())
                     for n in range(-bound, bound + 1) for f in fracs]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_composite_window_equals_the_fraction_reference_on_every_call(p):
    ctx = CompositeContext(p)
    for bound in (0, 1, 2, 1, 0):  # the first call builds the coefficients
        got = ctx.elements(bound)
        assert got == _reference_composite_window(p, bound)
        assert all(type(x) is CompositeElement and type(x.c) is tuple for x in got[1:])
    with pytest.raises(WindowTooLarge):
        CompositeContext(p).elements(10 ** 6)
    with pytest.raises(WindowTooLarge):
        ctx.elements(10 ** 6)


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
