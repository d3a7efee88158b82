"""Cuts, convex subgroups and lex-order helpers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields.ordgroup import (WINDOW_LIMIT, Cut, ConvexSubgroup,
                                  WindowTooLarge, check_window, gneg, gzero,
                                  invariance_group, value_gt_cut, vadd, vmin,
                                  window)

pairs2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def _order(v):
    """Sort key of a value: tuple order, infinity (None) on top."""
    return (v is None, v or ())


def test_a_strict_bound_becomes_the_lower_neighbour():
    for g in window(2, 2):
        c = Cut.lt(2, g)
        assert c == Cut(2, 2, g, False) and c.inclusive
        assert c.bound < g
        # nothing sits strictly between the bound and g
        for h in window(2, 3):
            assert not (c.bound < h < g)


def test_value_arithmetic_with_infinity():
    assert vadd(None, (1, 2)) is None
    assert vadd((1, 0), (2, 2)) == (3, 2)
    assert vmin(None, (5, 0)) == (5, 0)
    assert vmin(None, None) is None


def test_strict_cut_normalizes_to_inclusive():
    assert Cut.lt(1, (3,)) == Cut.le(1, (2,))
    assert Cut.lt(2, (0, 0)) == Cut.le(2, (0, -1))
    # prefix cuts normalize within the prefix
    assert Cut.lt(3, (1, 1)) == Cut.le(3, (1, 0))


def test_cut_membership_windowed():
    c = Cut.le(2, (0,))  # first coordinate <= 0
    for g in window(2, 2):
        assert c.contains(g) == (g[0] <= 0)
    d = Cut.le(2, (0, 1))
    for g in window(2, 2):
        assert d.contains(g) == (g <= (0, 1))


def test_whole_and_empty_cuts():
    w, e = Cut.whole(1), Cut.empty(1)
    for g in window(1, 3):
        assert w.contains(g) and not e.contains(g)
        assert value_gt_cut(g, e) and not value_gt_cut(g, w)
    assert value_gt_cut(None, w)  # infinity beats every cut


@settings(max_examples=200)
@given(pairs2, pairs2)
def test_shifted_cut_membershipwise(bound, g):
    c = Cut.le(2, bound)
    s = c.shift(g)
    for h in itertools.islice(window(2, 3), 49):
        assert s.contains(vadd(h, g)) == c.contains(h)


@st.composite
def cut_and_shift(draw):
    """A cut of rank 0-3 from either constructor, any prefix length, and a
    shift of the same rank."""
    rank = draw(st.integers(0, 3))
    k = draw(st.integers(0, rank))
    coord = st.integers(-6, 6)
    bound = tuple(draw(st.lists(coord, min_size=k, max_size=k)))
    c = Cut(rank, k, bound, draw(st.booleans()))
    return c, tuple(draw(st.lists(coord, min_size=rank, max_size=rank)))


@settings(max_examples=300)
@given(cut_and_shift())
def test_shift_equals_the_checked_constructor(case):
    # shift skips __new__, so its translate must be the one __new__ builds
    c, g = case
    s = c.shift(g)
    want = Cut(c.rank, c.prefix_len, vadd(c.bound, g[:c.prefix_len]), c.inclusive)
    assert type(s) is Cut
    assert tuple(s) == tuple(want)
    assert (s.rank, s.prefix_len, s.bound, s.inclusive) == \
        (want.rank, want.prefix_len, want.bound, want.inclusive)
    assert type(s.bound) is tuple
    with pytest.raises(ValueError, match="rank mismatch"):
        c.shift(g + (0,))
    if c.rank:
        with pytest.raises(ValueError, match="rank mismatch"):
            c.shift(g[1:])
        with pytest.raises(ValueError, match="rank mismatch"):
            vadd(g, g[1:])
    with pytest.raises(ValueError, match="rank mismatch"):
        vadd(g, g + (0,))


def _cuts_rank2():
    cuts = [Cut.whole(2), Cut.empty(2)]
    for b in (-1, 0, 2):
        cuts.append(Cut.le(2, (b,)))
        for b2 in (-1, 1):
            cuts.append(Cut.le(2, (b, b2)))
    return cuts


def test_subseteq_agrees_with_windowed_membership():
    U = list(window(2, 4))
    for a in _cuts_rank2():
        for b in _cuts_rank2():
            windowed = all(b.contains(g) for g in U if a.contains(g))
            if a.subseteq(b):
                assert windowed
            else:
                # find the separating element inside a larger window
                assert any(a.contains(g) and not b.contains(g)
                           for g in window(2, 12))


def test_all_below_in_decision_procedure():
    for c in _cuts_rank2():
        for g in window(2, 3):
            # ground truth on a window big enough to catch the escape
            truth = all(c.contains(h) for h in window(2, 14) if h < g)
            assert c.all_below_in(g) == truth, (c, g)


def test_value_gt_cut_none_and_finite():
    c = Cut.le(1, (2,))
    assert value_gt_cut(None, c)
    assert value_gt_cut((3,), c)
    assert not value_gt_cut((2,), c)


def test_convex_subgroup_membership_and_projection():
    d = ConvexSubgroup(3, 1)  # {0} x Z x Z
    assert d.contains((0, 5, -7))
    assert not d.contains((1, 0, 0))
    assert d.project((4, 2, 1)) == (4,)
    assert ConvexSubgroup(3, 2).project((4, 2, 1)) == (4, 2)


def test_convex_subgroup_trivial_and_whole():
    assert ConvexSubgroup(2, 2).is_trivial
    assert all(ConvexSubgroup(2, 0).contains(g) for g in window(2, 2))
    assert ConvexSubgroup(2, 2).project((3, 4)) == (3, 4)


def test_invariance_group_of_cuts():
    # a full-rank bound is shift-invariant only under 0
    assert invariance_group(Cut.le(2, (1, 0))) == ConvexSubgroup(2, 2)
    # a prefix bound absorbs shifts of the free coordinates
    assert invariance_group(Cut.le(2, (0,))) == ConvexSubgroup(2, 1)
    assert invariance_group(Cut.whole(2)) == ConvexSubgroup(2, 0)


def test_invariance_group_is_exactly_the_stabilizer():
    rho = Cut.le(2, (0,))
    delta = invariance_group(rho)
    for g in window(2, 2):
        assert (rho.shift(g) == rho) == delta.contains(g)


def test_window_is_sorted_and_complete():
    w = list(window(2, 1))
    assert w == sorted(w)
    assert len(w) == 9
    assert w[0] == (-1, -1) and w[-1] == (1, 1)


def test_cut_json_round_trip():
    for c in _cuts_rank2():
        data = c.to_json()
        assert Cut(2, data["prefix_len"], tuple(data["bound"]), data["inclusive"]) == c


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_le_equals_the_checked_constructor(rank):
    # le skips __new__ (an inclusive bound needs no normalising)
    for k in range(rank + 1):
        for bound in itertools.product(range(-1, 2), repeat=k):
            got, want = Cut.le(rank, list(bound)), Cut(rank, k, bound, True)
            assert type(got) is Cut and type(got.bound) is tuple
            assert got == want and hash(got) == hash(want)
    with pytest.raises(ValueError):
        Cut.le(rank, (0,) * (rank + 1))


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_lt_equals_the_checked_constructor(rank):
    # lt builds the normalised form, the bound's lower neighbour inclusive,
    # and is what the checked constructor gives a strict bound
    for k in range(rank + 1):
        for bound in itertools.product(range(-1, 2), repeat=k):
            got = Cut.lt(rank, list(bound))
            want = (Cut(rank, k, bound[:-1] + (bound[-1] - 1,), True) if k
                    else Cut.empty(rank))
            assert type(got) is Cut and type(got.bound) is tuple
            assert got == want == Cut(rank, k, bound, False)
            assert hash(got) == hash(want)
    assert Cut.lt(rank, ()) == Cut.empty(rank)
    with pytest.raises(ValueError):
        Cut.lt(rank, (0,) * (rank + 1))


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_value_gt_cut_is_the_unnormalised_rule(rank):
    # the rule before normalisation: v[:k] < b, or v[:k] == b when inclusive
    for k in range(rank + 1):
        for bound in itertools.product(range(-1, 2), repeat=k):
            for inclusive in (False, True):
                c = Cut(rank, k, bound, inclusive)
                for v in window(rank, 2):
                    inside = v[:k] < bound or (inclusive and v[:k] == bound)
                    assert value_gt_cut(v, c) is not inside
                    assert c.contains(v) is inside
                assert value_gt_cut(None, c)


def test_value_helpers_follow_tuple_order_with_infinity_on_top():
    vals = [None] + window(2, 1)
    for a in vals:
        for b in vals:
            assert vmin(a, b) is (a if _order(a) <= _order(b) else b)
            assert vadd(a, b) == (None if a is None or b is None
                                  else (a[0] + b[0], a[1] + b[1]))


def test_value_helpers_refuse_a_rank_mismatch():
    c = Cut.le(2, (0,))
    for call in (lambda: vmin((1,), (1, 2)), lambda: vmin((1, 2), (1,)),
                 lambda: vadd((1,), (1, 2)), lambda: vadd((1, 2), (1,)),
                 lambda: value_gt_cut((1,), c), lambda: c.contains((1, 2, 3))):
        with pytest.raises(ValueError, match="rank mismatch"):
            call()
    # infinity carries no rank: it decides without the check
    assert vmin(None, (1,)) == vmin((1,), None) == (1,)
    assert vadd(None, (1, 2)) is None and vadd((1,), None) is None


def test_cut_rank_guards():
    with pytest.raises(ValueError):
        Cut.le(1, (0,)).contains((0, 0))
    with pytest.raises(ValueError):
        Cut.le(1, (0,)).shift((1, 1))
    with pytest.raises(ValueError):
        Cut.le(1, (0,)).subseteq(Cut.le(2, (0,)))


def test_check_window_stops_at_the_limit():
    check_window(WINDOW_LIMIT, 1, 10 ** 12)  # 1^n never grows
    check_window(2, 10, 5)  # exactly the limit
    with pytest.raises(WindowTooLarge):
        check_window(2, 10, 5 + 1)
    with pytest.raises(WindowTooLarge):
        check_window(1, 7, 10 ** 12)  # refused without forming 7^(10^12)
    assert issubclass(WindowTooLarge, ValueError)


# -- the lemma the windowed checkers bisect by ------------------------------------

def cuts(rank):
    """Cuts of one rank: the whole and the empty one, and any prefix bound
    from either constructor."""
    prefix = st.integers(1, rank).flatmap(lambda k: st.tuples(*[st.integers(-2, 2)] * k))
    return st.one_of(st.sampled_from([Cut.whole(rank), Cut.empty(rank)]),
                     st.builds(Cut.le, st.just(rank), prefix),
                     st.builds(Cut.lt, st.just(rank), prefix))


def elems(rank):
    return st.tuples(*[st.integers(-3, 3)] * rank)


def values(rank):
    return st.one_of(st.none(), elems(rank))


ranks = st.integers(1, 3)


@settings(max_examples=300)
@given(ranks.flatmap(lambda r: st.tuples(cuts(r), cuts(r))))
def test_cuts_of_one_rank_are_nested(pair):
    a, b = pair
    assert a.subseteq(b) or b.subseteq(a)
    if b.subseteq(a):
        a, b = b, a
    # membership agrees on a window around the bounds
    assert all(b.contains(g) for g in window(a.rank, 3) if a.contains(g))


@settings(max_examples=300)
@given(ranks.flatmap(lambda r: st.tuples(cuts(r), elems(r), elems(r))))
def test_shifts_grow_with_the_shift(case):
    rho, m, m2 = case
    m, m2 = sorted((m, m2))
    assert rho.shift(m).subseteq(rho.shift(m2))


@settings(max_examples=300)
@given(ranks.flatmap(lambda r: st.tuples(cuts(r), cuts(r), values(r), values(r))))
def test_value_gt_cut_is_monotone_in_the_value_and_antitone_in_the_cut(case):
    c, d, v, w = case
    v, w = sorted((v, w), key=_order)
    # v <= w, so w lies above every cut v lies above
    assert value_gt_cut(w, c) or not value_gt_cut(v, c)
    if d.subseteq(c):
        c, d = d, c
    # c lies inside d, so v lies above c if it lies above d
    assert value_gt_cut(v, c) or not value_gt_cut(v, d)


def test_subgroups_and_cuts_refuse_an_element_of_another_rank():
    delta, c = ConvexSubgroup(2, 1), Cut.le(2, (0,))
    for call in (lambda: delta.contains((0,)), lambda: delta.project((0, 0, 0)),
                 lambda: c.all_below_in((0,)), lambda: c.all_below_in((0, 0, 0))):
        with pytest.raises(ValueError, match="rank mismatch"):
            call()
