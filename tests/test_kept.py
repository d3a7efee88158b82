"""First-use tables: ``bitmask._Kept`` and the objects that keep them.

A ``_Kept`` makes a value on the first read of its key and keeps it; its
owners (``_Window``, the leading-term carriers, ``FiniteBackend``) must
still die by reference counting alone, so a checker's peak memory does not
wait for the garbage collector."""

import gc
import weakref

import pytest

from hyperfields.bitmask import _Kept
from hyperfields.finite import build_K
from hyperfields.leading_terms import CompositeContext, LTContext
from hyperfields.window import FiniteBackend, _Window


def test_each_key_is_made_once_on_its_first_read():
    made = []

    def make(key):
        made.append(key)
        return key * 10

    kept = _Kept(make, {0: "given"})
    assert made == [] and kept == {0: "given"}  # nothing is made at construction
    assert kept[0] == "given" and made == []
    assert kept[2] == 20 and kept[2] == 20 and kept[3] == 30
    assert made == [2, 3] and kept == {0: "given", 2: 20, 3: 30}
    assert list(kept) == [0, 2, 3]  # first-read order
    # get, in and iteration make nothing
    assert kept.get(4) is None and kept.get(5, "absent") == "absent"
    assert 6 not in kept and 2 in kept
    assert made == [2, 3] and len(kept) == 3


def test_a_make_that_raises_stores_nothing_and_raises_again():
    calls = []

    def make(key):
        calls.append(key)
        if key < 0:
            raise ValueError(f"no value for {key}")
        return -key

    kept = _Kept(make)
    for _ in range(2):
        with pytest.raises(ValueError, match="no value for -1"):
            kept[-1]
    assert calls == [-1, -1] and kept == {}
    assert kept[1] == -1 and kept == {1: -1}


def _used_objects():
    """(label, thunk) pairs: each thunk builds an object, uses every
    first-use table it keeps, and returns it."""

    def lt():
        ctx = LTContext(3, 1)
        U = ctx.elements(1)
        for x in U[1:4]:
            ctx.add(x, ctx.neg(x))  # a negation and a full-cancellation ray
        ctx.add(ctx.elem(0, (1, 0)), ctx.elem(0, (2, 1)))  # cancels to depth 1
        return ctx

    def composite():
        ctx = CompositeContext(2)
        x = ctx.elements(1)[1]
        ctx.add(x, ctx.neg(x))
        return ctx

    def finite():
        backend = FiniteBackend(build_K())
        backend.sum_sets(backend.add(1, 1), backend.add(0, 1))
        return backend

    def window(backend, bound):
        def build():
            win = _Window(backend, bound)
            for k in range(win.n):
                win.minus(k)
            for h in range(len(win.sets)):
                win.mask_of(h)
            win.members(0)
            return win
        return build

    return [("LTContext", lt), ("CompositeContext", composite),
            ("FiniteBackend", finite),
            ("window of LT(3,1)", window(LTContext(3, 1), 1)),
            ("window of the composite carrier", window(CompositeContext(2), 1)),
            ("window of K", window(FiniteBackend(build_K()), 0))]


@pytest.mark.parametrize("label,build", _used_objects(), ids=[c[0] for c in _used_objects()])
def test_a_used_owner_dies_with_its_last_name(label, build):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        obj = build()
        gone = weakref.ref(obj)
        del obj
        assert gone() is None, f"a used {label} outlives its last name"
    finally:
        if enabled:
            gc.enable()
