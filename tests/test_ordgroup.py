"""Cuts, convex subgroups and lex-order helpers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields.ordgroup import (WINDOW_LIMIT, Cut, ConvexSubgroup,
                                  WindowTooLarge, check_window, gadd, gneg,
                                  gzero, invariance_group, lex_compare, pred,
                                  value_gt_cut, vadd, vcompare, vmin, window)

pairs2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def test_lex_compare_matches_tuple_order():
    for a in window(2, 2):
        for b in window(2, 2):
            want = (a > b) - (a < b)
            assert lex_compare(a, b) == want


def test_pred_is_the_lower_neighbour():
    for g in window(2, 2):
        assert pred(g) < g
        # nothing sits strictly between pred(g) and g
        for h in window(2, 3):
            assert not (pred(g) < h < g)


def test_value_arithmetic_with_infinity():
    assert vadd(None, (1, 2)) is None
    assert vadd((1, 0), (2, 2)) == (3, 2)
    assert vmin(None, (5, 0)) == (5, 0)
    assert vmin(None, None) is None
    assert vcompare(None, (9, 9)) == 1
    assert vcompare(None, None) == 0


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
        assert s.contains(gadd(h, g)) == c.contains(h)


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
    assert ConvexSubgroup(2, 0).is_whole
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
        assert Cut.from_json(2, c.to_json()) == c


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
