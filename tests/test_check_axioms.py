"""``window.check_axioms``, the one windowed CH1..CH4/HR3 kernel, off the
tropical path (``tests/test_compiled_window.py`` holds that path to its
per-tuple reference).

On a FiniteBackend the kernel is a second route to ``finite.validate``: on
K, S, W, F2..F64 and every enumerated class of orders 2..6, and on seeded
one-cell corruptions of them whose CH3 passes, the two give the same failed
axioms among CH1..CH4 and HR3 with the same first witnesses (the kernel's
names mapped to indices), and the kernel's observations are ``classify``'s
flags.  Where a table fails CH3 because an element has no additive inverse,
``validate`` skips CH4 but the kernel raises ``MalformedTableError`` from
``FiniteBackend.neg``.  A carrier the kernel cannot finish never passes:
the collapsed carrier, inclusive T(Z), gets the tropical verdicts, while
the leading-term and composite windows raise at CH4.
"""

import random

import pytest

from hyperfields.finite import (FiniteHyperfield, MalformedTableError, build_K,
                                build_S, build_W, build_finite_field, classify,
                                enumerate_hyperfields, validate)
from hyperfields.galois import prime_power
from hyperfields.leading_terms import (CollapsedConstantsContext,
                                       CompositeContext, LTContext)
from hyperfields.tropical import tropical_axiom_suite
from hyperfields.window import FiniteBackend, check_axioms

AXIOMS = ("CH1", "CH2", "CH3", "CH4", "HR3")

TABLES = [build_K(), build_S(), build_W()] + \
    [build_finite_field(q) for q in range(2, 65) if prime_power(q)] + \
    [F for order in range(2, 7) for F in enumerate_hyperfields(order)]


def _failures(rep, index=None) -> dict:
    """{axiom: witness} of the failed axioms among AXIOMS, with names read
    as indices through index and tuples as lists."""
    def read(w):
        if isinstance(w, (tuple, list)):
            return [read(v) for v in w]
        return index(w) if index else w
    return {c.axiom: read(c.witness) for c in rep.failed() if c.axiom in AXIOMS}


def _kernel_and_validate(F):
    rep = check_axioms(FiniteBackend(F), 0)
    return _failures(rep, F.names.index), _failures(validate(F)), rep


def test_tables_cover_every_enumerated_class():
    assert len(TABLES) == 3 + 27 + 57  # classes of orders 2..6: 2, 5, 7, 27, 16


@pytest.mark.parametrize("F", TABLES, ids=repr)
def test_kernel_agrees_with_validate(F):
    kernel, reference, rep = _kernel_and_validate(F)
    assert kernel == reference == {}
    assert rep.ok and rep.mode == "proof by exhaustion" and rep.window is None
    assert [c.axiom for c in rep.checks] == ["CH2", "CH3", "CH4", "CH1", "HR3"]
    flags = classify(F)
    assert {c.axiom: c.passed for c in rep.observations} == \
        {"char2": flags.char2, "cchar1": flags.cchar1, "stringent": flags.stringent}


def _corruptions(seed: int, per_table: int = 8):
    """One addition cell of each table of at most 16 elements replaced by a
    random nonempty set, and half the time its mirror cell too, kept when
    CH3 still passes."""
    rng = random.Random(seed)
    for F in TABLES:
        n = F.size
        if n > 16:
            continue
        for _ in range(per_table):
            x, y = rng.randrange(n), rng.randrange(n)
            cell = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            add = [[F.add_cell(a, b) for b in range(n)] for a in range(n)]
            add[x][y] = cell
            if rng.random() < 0.5:
                add[y][x] = cell
            G = FiniteHyperfield(F.names, F.mul, add, {"label": f"{F!r}@{x},{y}"})
            if validate(G).check("CH3").passed:
                yield G


CORRUPTED = list(_corruptions(2801))


def test_corruptions_reach_every_axiom():
    failed = [set(_failures(validate(G))) for G in CORRUPTED]
    assert len(CORRUPTED) > 200
    assert set().union(*failed) == set(AXIOMS) - {"CH3"}
    assert any(not f for f in failed)


@pytest.mark.parametrize("G", CORRUPTED, ids=repr)
def test_kernel_agrees_with_validate_on_corrupted_tables(G):
    kernel, reference, _ = _kernel_and_validate(G)
    assert kernel == reference


def test_a_table_without_an_inverse_raises_where_validate_skips_ch4():
    # 1 has no additive inverse at all
    broken = FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], [[(0,), (1,)], [(1,), (1,)]])
    assert validate(broken).skipped == ["CH4 (needs CH3 to define -x)"]
    with pytest.raises(MalformedTableError, match="element 1 has no additive inverse"):
        check_axioms(FiniteBackend(broken), 0)


@pytest.mark.parametrize("bound", range(5))
def test_collapsed_carrier_gets_the_inclusive_tropical_verdicts(bound):
    collapsed = check_axioms(CollapsedConstantsContext(), bound).to_json()
    tropical = tropical_axiom_suite(1, bound).to_json()
    assert collapsed["passed"] is tropical["passed"] is True
    for key in ("checks", "observations"):
        assert collapsed[key] == tropical[key]
    assert collapsed["mode"] == "bounded verification"
    assert collapsed["window"] == {"bound": bound}


@pytest.mark.parametrize("backend,message", [
    # t + t(2 + t) cancels to the three classes t^2(1 + kt), of value 2
    (LTContext(3, 1), "(LTElement(value=2, coeffs=(1, 0)), LTElement(value=1, coeffs=(2, 0)))"),
    # (-4/X) + (-4/X) = -8/X, and -8 is no window constant
    (CompositeContext(2), "(CompositeElement(n=-1, c=(-8, 1)), CompositeElement(n=-1, c=(4, 1)))"),
], ids=["lt", "composite"])
def test_a_sum_leaving_the_window_raises_at_ch4(backend, message):
    with pytest.raises(KeyError) as info:
        check_axioms(backend, 1)
    assert str(info.value) == message

