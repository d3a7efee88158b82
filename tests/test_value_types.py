"""The package's value types: named tuples that validate on every
construction path, refuse assignment, hash by value and keep their repr."""

import pytest

from hyperfields import hypersets as hs
from hyperfields.finite import (Classification, MalformedTableError, Morphism,
                                build_K, build_S, build_W)
from hyperfields.leading_terms import LTContext
from hyperfields.ordgroup import ConvexSubgroup, Cut
from hyperfields.report import AxiomCheck, ValidationReport
from hyperfields.tropical import TropicalHyperfield
from hyperfields.valuation import RingPredicate
from hyperfields.window import _Window


def test_direct_strict_cut_normalizes_like_lt():
    assert Cut(2, 1, (3,), False) == Cut.lt(2, (3,)) == Cut.le(2, (2,))
    c = Cut(2, 2, (0, 0), False)
    assert (c.bound, c.inclusive) == ((0, -1), True)
    # the degenerate segments keep their flag
    assert Cut(2, 0, (), False).inclusive is False


@pytest.mark.parametrize("args", [(1, 2, (0, 0), True), (1, -1, (), True),
                                  (2, 1, (), True), (2, 1, (0, 0), False)])
def test_bad_cuts_raise(args):
    with pytest.raises(ValueError):
        Cut(*args)


def test_bad_convex_subgroups_raise():
    with pytest.raises(ValueError):
        ConvexSubgroup(1, 2)
    with pytest.raises(ValueError):
        ConvexSubgroup(1, -1)
    assert ConvexSubgroup(rank=2, zeros=1) == ConvexSubgroup(2, 1)


@pytest.mark.parametrize("source, target, m", [
    (build_S, build_W, (0, 1)),        # too short
    (build_S, build_K, (0, 1, 2)),     # 2 is out of K's range
    (build_S, build_W, (0, 2, 1)),     # 1 not sent to 1
])
def test_bad_morphisms_raise(source, target, m):
    with pytest.raises(MalformedTableError):
        Morphism(source(), target(), m)
    with pytest.raises(MalformedTableError):
        Morphism(source=source(), target=target(), map=m)


VALUES = [
    Cut.le(2, (1,)), ConvexSubgroup(2, 1), hs.Singleton((0,)),
    hs.FiniteSet(frozenset({1, 2})), hs.AboveValue(Cut.lt(1, (0,))),
    AxiomCheck("CH1", True), Classification(True, False, False, True, True),
    Morphism(build_S(), build_S(), (0, 1, 2)), RingPredicate(None, bool, "O"),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.no_such_field = 1


# A Morphism holds two tables, which do not hash; it compares by value.
@pytest.mark.parametrize("value", [v for v in VALUES if not isinstance(v, Morphism)],
                         ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(value):
    copy = type(value)(*value)
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert {value: 1}[copy] == 1


def test_reprs_are_unchanged():
    assert repr(Cut.le(1, (0,))) == \
        "Cut(rank=1, prefix_len=1, bound=(0,), inclusive=True)"
    assert repr(ConvexSubgroup(2, 1)) == "ConvexSubgroup(rank=2, zeros=1)"
    assert repr(hs.Singleton(3)) == "Singleton(elem=3)"
    assert repr(AxiomCheck("V1", False, 2)) == \
        "AxiomCheck(axiom='V1', passed=False, witness=2, note='')"


def test_axiom_check_defaults():
    c = AxiomCheck("CH2", True)
    assert (c.witness, c.note) == (None, "")
    assert c.to_json() == {"axiom": "CH2", "passed": True}


def test_reports_start_empty_and_do_not_share_lists():
    a = ValidationReport("a", "proof by exhaustion")
    b = ValidationReport("b", "bounded verification", window={"bound": 1})
    a.add("X", False, 1)
    assert (b.checks, b.observations, b.skipped) == ([], [], [])
    assert a.window is None and b.window == {"bound": 1}
    assert a.to_json() == {"subject": "a", "mode": "proof by exhaustion",
                           "passed": False,
                           "checks": [{"axiom": "X", "passed": False, "witness": 1}]}


@pytest.mark.parametrize("backend, bound", [
    (LTContext(2, 1), 2), (TropicalHyperfield(2), 2),
    (TropicalHyperfield(2, strict=True), 1)], ids=["lt:2:1", "tropical:2", "tropical-strict:2"])
def test_intern_ids_agree_with_hyperset_equality(backend, bound):
    # Tuples compare equal across classes, so a Singleton, a FiniteSet and
    # an AboveValue must never be equal as tuples, or they would share an id.
    win = _Window(backend, bound)
    for x in win.window:
        for y in win.window:
            s = backend.add(x, y)
            assert win.intern(type(s)(*s)) == win.intern(s)
    shapes = {type(s) for s in win.sets}
    assert hs.AboveValue in shapes and hs.Singleton in shapes
    for i, a in enumerate(win.sets):
        assert win.intern(a) == i
        for j, b in enumerate(win.sets):
            assert hs.equal(a, b) == (i == j) == (a == b)


def test_hypersets_refuse_an_empty_sum_and_a_non_hyperset():
    with pytest.raises(ValueError, match="hypersums are never empty"):
        hs.finite([])
    value_of = TropicalHyperfield(1).value_of
    for call in (lambda: hs.subset("junk", hs.Singleton(None), value_of),
                 lambda: hs.values_of("junk", value_of)):
        with pytest.raises(TypeError, match="not a hyperset: 'junk'"):
            call()


def test_a_report_names_its_missing_axiom_and_renders_every_part():
    rep = ValidationReport("T", "bounded verification", window={"bound": 1})
    rep.add("X", False, (1, 2), note="why")
    rep.add("Y", True, (3,))
    rep.observe("flag", False)
    rep.skipped.append("Z: not reached")
    assert rep.check("flag") == AxiomCheck("flag", False)
    with pytest.raises(KeyError, match="W"):
        rep.check("W")
    assert rep.render_table().splitlines() == [
        "T  [bounded verification]",
        "  FAIL  X           witness=(1, 2)  (why)",
        "  PASS  Y         ",
        "  obs   flag      = no",
        "  skip  Z: not reached"]
