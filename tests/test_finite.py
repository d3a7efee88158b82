"""Finite hyperfields: tables, axioms, quotients, morphisms, enumeration."""

import functools
import itertools
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields import finite, galois
from hyperfields.galois import prime_power
from hyperfields.finite import (ONE, ZERO, FiniteHyperfield,
                                MalformedTableError, Morphism, build_K,
                                build_S, build_W, build_finite_field, classify,
                                enumerate_hyperfields, find_isomorphism,
                                is_field, is_homomorphism, is_hyperideal,
                                is_isomorphism, list_hyperideals,
                                non_quotient_certificate, quotient_hyperfield,
                                quotient_search, squares_subgroup,
                                subgroup_closure, validate)
from hyperfields.finite import _mask_images  # for the verbatim row search below
from hyperfields.window import FiniteBackend, check_superiorly_canonical


def _cells(F):
    return {(x, y): frozenset(F.add_cell(x, y))
            for x in range(F.size) for y in range(F.size)}


# -- full-scan reference kernels ---------------------------------------------------
# The library's kernels visit only the set bits of a mask; these scan every
# index, as the kernels once did, and are what the property tests hold them to.

def _ref_mask_to_cell(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def _ref_sumset(add, mask_a, mask_b):
    out = 0
    n = len(add)
    for a in range(n):
        if mask_a >> a & 1:
            for b in range(n):
                if mask_b >> b & 1:
                    out |= add[a][b]
    return out


def _ref_mul_mask(row, mask):
    out = 0
    for a in range(len(row)):
        if mask >> a & 1:
            out |= 1 << row[a]
    return out


def _ref_witnesses(F):
    """(passed, witness) of CH2, CH3, CH4 (when CH3 holds), CH1, HR2, HF and
    HR3 by full scans, first witness in x, y, z order."""
    n, add, mul = F.size, F._add, F.mul
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    out = {}
    w = next(((x, y) for x in range(n) for y in range(n) if add[x][y] != add[y][x]), None)
    out["CH2"] = (w is None, w)
    zeros = [tuple(y for y in range(n) if add[x][y] & 1) for x in range(n)]
    w = next(((x, c) for x, c in enumerate(zeros) if len(c) != 1), None)
    out["CH3"] = (w is None, w)
    # HR2 and HF as validate scanned them before the reduced scans
    w = None
    for x in range(n):
        if F.mul[x][0] != 0 or F.mul[0][x] != 0:
            w = (x, 0)
            break
        for y in range(n):
            if F.mul[x][y] != F.mul[y][x]:
                w = (x, y)
                break
            for z in range(n):
                if F.mul[F.mul[x][y]][z] != F.mul[x][F.mul[y][z]]:
                    w = (x, y, z)
                    break
            if w:
                break
        if w:
            break
    out["HR2"] = (w is None, w)
    w = None
    for x in F.units:
        if F.mul[1][x] != x:
            w = (x,)
            break
        if all(F.mul[x][y] != 1 for y in F.units):
            w = (x,)
            break
        if any(F.mul[x][y] == 0 for y in F.units):
            w = (x,)
            break
    out["HF"] = (w is None, w)
    if all(sum(add[x][y] & 1 for y in range(n)) == 1 for x in range(n)):
        w = next(((x, y, z) for x, y, z in triples if add[x][y] >> z & 1
                  and not add[z][F.neg(x)] >> y & 1), None)
        out["CH4"] = (w is None, w)
    w = next(((x, y, z) for x, y, z in triples
              if _ref_sumset(add, add[x][y], 1 << z)
              != _ref_sumset(add, 1 << x, add[y][z])), None)
    out["CH1"] = (w is None, w)
    w = next(((x, y, z) for x, y, z in triples
              if _ref_mul_mask(mul[x], add[y][z])
              != _ref_sumset(add, 1 << mul[x][y], 1 << mul[x][z])), None)
    out["HR3"] = (w is None, w)
    return out


def _small_hyperfields():
    out = [build_K(), build_S(), build_W()]
    out += [build_finite_field(q) for q in (2, 3, 4, 5, 7, 8)]
    for q in (7, 13):
        F = build_finite_field(q)
        quotients = (quotient_hyperfield(F, [u]) for u in F.units)
        out += [Q for Q in quotients if Q.size <= 8]
    return out


SMALL_HYPERFIELDS = _small_hyperfields()


@st.composite
def mask_tables(draw):
    """A table of order 2..8: a hyperfield with up to two add cells and one
    mul entry redrawn (often no longer a hyperfield); a hyperfield with the
    cells add[ux][uy] (and add[uy][ux], half the time) redrawn as uC for
    every unit u, which keeps distributivity but often breaks associativity,
    and without the mirror cells commutativity, the unique inverse or
    reversibility, on row 1 as on every row; or an arbitrary table."""
    kind = draw(st.sampled_from(("redrawn", "orbit", "arbitrary")))
    if kind != "arbitrary":
        base = draw(st.sampled_from(SMALL_HYPERFIELDS))
        n = base.size
        mul = [list(row) for row in base.mul]
        add = [list(row) for row in base._add]
    if kind == "redrawn":
        for _ in range(draw(st.integers(0, 2))):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            add[x][y] = draw(st.integers(1, (1 << n) - 1))
        if draw(st.booleans()):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            mul[x][y] = draw(st.integers(0, n - 1))
    elif kind == "orbit":
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cell = draw(st.integers(1, (1 << n) - 1))
        mirror = draw(st.booleans())
        for u in range(1, n):
            image = _ref_mul_mask(mul[u], cell)
            add[mul[u][x]][mul[u][y]] = image
            if mirror:
                add[mul[u][y]][mul[u][x]] = image
    else:
        n = draw(st.integers(2, 8))
        mul = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                            min_size=n, max_size=n))
        add = draw(st.lists(st.lists(st.integers(1, (1 << n) - 1), min_size=n,
                                     max_size=n), min_size=n, max_size=n))
    cells = [[_ref_mask_to_cell(m, n) for m in row] for row in add]
    return FiniteHyperfield([str(i) for i in range(n)], mul, cells)


# -- cell-decoding references -----------------------------------------------------
# is_field, quotient_hyperfield, is_hyperideal, list_hyperideals and
# is_homomorphism as they read the table before they read the add masks:
# every cell decoded to a tuple, every cell visited.  Only the names of the
# functions they call from this block are changed.

def ref_is_field(F: FiniteHyperfield) -> bool:
    """1 - 1 = {0} decides fieldness; cross-checked against all cells being
    singletons (the two are equivalent for valid hyperfields)."""
    primary = F.add_cell(ONE, F.neg(ONE)) == (ZERO,)
    all_single = all(F.add_mask(x, y).bit_count() == 1
                     for x in range(F.size) for y in range(F.size))
    if primary != all_single:
        raise RuntimeError("1-1={0} disagrees with the singleton criterion; "
                           "the table is not a valid hyperfield")
    return primary


def ref_quotient_hyperfield(K: FiniteHyperfield, generators) -> FiniteHyperfield:
    """K_T for a finite field K and T the subgroup generated by `generators`:
    carrier is {0} plus the cosets of T, with xT + yT = {(x+yt)T : t in T}."""
    if not ref_is_field(K):
        raise ValueError("quotient construction requires a finite field table")
    T = subgroup_closure(K, generators)
    # Scanning units in increasing order creates the coset of 1 (T itself)
    # first and the remaining cosets in increasing order of least member.
    coset_of = {ZERO: ZERO}
    reps = []
    for u in K.units:
        if u in coset_of:
            continue
        coset = sorted(K.mul[u][t] for t in T)
        for v in coset:
            coset_of[v] = len(reps) + 1  # index 0 is reserved for zero
        reps.append(coset[0])
    assert coset_of[ONE] == 1

    n = len(reps) + 1
    names = ["0"] + [f"[{K.names[r]}]" for r in reps]
    mul = [[0] * n for _ in range(n)]
    for i, a in enumerate([ZERO] + reps):
        for j, b in enumerate([ZERO] + reps):
            mul[i][j] = coset_of[K.mul[a][b]]
    add = [[None] * n for _ in range(n)]
    for i, a in enumerate([ZERO] + reps):
        for j, b in enumerate([ZERO] + reps):
            cell = set()
            for t in T:
                s = K.add_cell(a, K.mul[b][t])[0]
                cell.add(coset_of[s])
            add[i][j] = tuple(sorted(cell))
    H = FiniteHyperfield(
        names, mul, add,
        {"label": f"{K.meta.get('label', 'F')}/T",
         "subgroup": sorted(T),
         "base_field": K.meta.get("label", "")})
    rep_check = validate(H)
    if not rep_check.ok:
        raise RuntimeError(f"quotient table failed validation: {rep_check.failed()}")
    return H


def ref_is_hyperideal(F: FiniteHyperfield, subset) -> bool:
    s = frozenset(subset)
    if ZERO not in s:
        return False
    for x in s:
        for y in s:
            if any(z not in s for z in F.add_cell(x, F.neg(y))):
                return False
    for x in range(F.size):
        for y in s:
            if F.mul[x][y] not in s:
                return False
    return True


def ref_list_hyperideals(F: FiniteHyperfield) -> list[frozenset]:
    """All hyperideals, by exhaustive subset search (carrier is small)."""
    out = []
    rest = [x for x in range(F.size) if x != ZERO]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = frozenset((ZERO,) + combo)
            if ref_is_hyperideal(F, cand):
                out.append(cand)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def ref_is_homomorphism(m: Morphism) -> bool:
    F, G, s = m.source, m.target, m.map
    if s[ZERO] != ZERO or s[ONE] != ONE:
        return False
    for x in range(F.size):
        for y in range(F.size):
            if s[F.mul[x][y]] != G.mul[s[x]][s[y]]:
                return False
            target = G.add_mask(s[x], s[y])
            for z in F.add_cell(x, y):
                if not (target >> s[z] & 1):
                    return False
    for x in F.units:
        if s[F.inv(x)] != G.inv(s[x]):
            return False
    return True


def _outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e)


def _unit_subgroup_generators(F):
    """The least generator of each cyclic subgroup of the units of F."""
    seen = {}
    for u in F.units:
        seen.setdefault(subgroup_closure(F, [u]), u)
    return list(seen.values())


def _random_maps(F, G, rng, k=3):
    """k maps F -> G fixing 0 and 1 with the units sent to random units, and
    k random bijections fixing 0 and 1 when the sizes agree."""
    maps = [(ZERO, ONE) + tuple(rng.randrange(1, G.size) for _ in range(F.size - 2))
            for _ in range(k)]
    if F.size == G.size:
        for _ in range(k):
            rest = list(range(2, G.size))
            rng.shuffle(rest)
            maps.append((ZERO, ONE) + tuple(rest))
    return maps


# -- construction and validation ------------------------------------------------

def test_K_table_is_the_two_element_quotient():
    K = build_K()
    assert K.size == 2
    assert sorted(K.add_cell(1, 1)) == [0, 1]
    assert validate(K).ok


def test_S_table_matches_the_sign_arithmetic():
    S = build_S()
    assert list(S.names) == ["0", "1", "-1"]
    assert sorted(S.add_cell(1, 1)) == [1]
    assert sorted(S.add_cell(2, 2)) == [2]
    assert sorted(S.add_cell(1, 2)) == [0, 1, 2]
    assert validate(S).ok


def test_W_differs_from_S_only_on_the_diagonal():
    W, S = build_W(), build_S()
    assert sorted(W.add_cell(1, 1)) == [1, 2]
    assert sorted(W.add_cell(1, 2)) == [0, 1, 2]
    assert validate(W).ok
    assert find_isomorphism(S, W) is None


# every prime power up to 64: ``hyperval`` trusts the builtin F<q> unvalidated
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                               29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64])
def test_finite_fields_validate_and_are_fields(q):
    F = build_finite_field(q)
    assert validate(F).ok
    assert is_field(F)


def test_f4_has_characteristic_two_and_cyclic_units():
    F = build_finite_field(4)
    assert all(F.neg(x) == x for x in range(4))
    orders = sorted(len(subgroup_closure(F, [u])) for u in F.units)
    assert orders == [1, 3, 3]


def test_malformed_tables_are_rejected():
    with pytest.raises(MalformedTableError):
        FiniteHyperfield(["0", "1"], [[0, 0], [0]], [[(0,), (1,)], [(1,), (0,)]])
    with pytest.raises(MalformedTableError):
        FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], [[(0,), (1,)], [(1,), ()]])
    with pytest.raises(MalformedTableError):
        FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]],
                         [[(0,), (1,)], [(1,), (0, 7)]])
    # range-checked before any bit is set: 10**12 or 1e300 as a bit would
    # allocate or overflow
    for cell, message in (((0, -1), "add entry out of range"),
                          ((0, 10 ** 12), "add entry out of range"),
                          ((1e300,), "add entry out of range"),
                          ((2,), "add entry out of range"),
                          ((), "empty addition cell")):
        with pytest.raises(MalformedTableError, match=message):
            FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], [[(0,), (1,)], [(1,), cell]])
    for bad in (2, -1):
        with pytest.raises(MalformedTableError, match="mul entry out of range"):
            FiniteHyperfield(["0", "1"], [[0, 0], [0, bad]], [[(0,), (1,)], [(1,), (0,)]])
    rows = [[(0,), (1,)], [(1,), (0,)]]
    for add in (rows[:1], rows + [rows[0]], [rows[0], [(1,)]],
                [rows[0], [(1,), (0,), (1,)]]):
        with pytest.raises(MalformedTableError, match="add table must be size x size"):
            FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], add)
    data = build_finite_field(2).to_json()
    data["size"] = 3
    with pytest.raises(MalformedTableError, match="declared size disagrees with names"):
        FiniteHyperfield.from_json(data)
    del data["size"]
    assert FiniteHyperfield.from_json(data) == build_finite_field(2)


def test_table_faults_are_reported_in_table_order():
    # shapes and mul before any add cell is read; then cell by cell, row by row
    names, mul, rows = ["0", "1"], [[0, 0], [0, 1]], [[(0,), (1,)], [(1,), (0,)]]
    for bad_mul, add, message in (
            (mul, [rows[0], [("x",)]], "add table must be size x size"),
            ([[0, 0], [0, 2]], [rows[0], [(1,), ("x",)]], "mul entry out of range"),
            ([[0, 0], [0]], [rows[0], [(1,), ("x",)]], "mul table must be size x size"),
            (mul, [rows[0], [(5,), ()]], "add entry out of range"),
            (mul, [rows[0], [(), (5,)]], "empty addition cell"),
            (mul, [[(0,), ()], [(5,), (0,)]], "empty addition cell")):
        with pytest.raises(MalformedTableError, match=message):
            FiniteHyperfield(names, bad_mul, add)


def test_tables_differing_in_one_part_are_unequal():
    F = build_finite_field(2)
    cells = [[F.add_cell(x, y) for y in range(2)] for x in range(2)]
    assert FiniteHyperfield(F.names, F.mul, cells, F.meta) == F
    others = (FiniteHyperfield(F.names, F.mul, [cells[0], [(1,), (0, 1)]], F.meta),
              FiniteHyperfield(["z", "u"], F.mul, cells, F.meta),
              FiniteHyperfield(F.names, [[0, 0], [0, 0]], cells, F.meta),
              FiniteHyperfield(F.names, F.mul, cells, {**F.meta, "label": "other"}))
    for G in others:
        assert G != F and F != G
    assert F != F.to_json()


def test_duplicated_and_string_entries_give_the_same_masks():
    F2 = build_finite_field(2)
    dup = FiniteHyperfield(F2.names, F2.mul, [[(0, 0), (1,)], [(1, 1), (0,)]],
                           F2.meta)
    assert dup == F2 and dup.add_mask(1, 0) == 0b10
    data = F2.to_json()
    data["add"] = [[[str(v) for v in cell] for cell in row] for row in data["add"]]
    data["add"][1][1] = ["0", "0"]
    strings = FiniteHyperfield.from_json(data)
    assert strings == F2 and strings.to_json() == F2.to_json()


def test_validate_reports_witnesses_for_broken_tables():
    S = build_S()
    add = [[sorted(S.add_cell(x, y)) for y in range(3)] for x in range(3)]
    add[1][2] = [0, 1]  # drop -1 from 1 + (-1), breaking several axioms
    broken = FiniteHyperfield(S.names, S.mul, add)
    rep = validate(broken)
    assert not rep.ok
    failed = {c.axiom for c in rep.failed()}
    assert "CH2" in failed
    wit = rep.check("CH2").witness
    assert wit == (1, 2)
    # first witnesses in x, y, z order, pinned at seed
    assert rep.check("CH4").witness == (1, 2, 1)
    assert rep.check("CH1").witness == (1, 1, 2)
    # 2(1 + -1) = {0, -1} but 2*1 + 2*(-1) = -1 + 1 = S; pinned before the
    # set-bit kernel
    assert rep.check("HR3").witness == (2, 1, 2)


def test_validate_pins_a_ch1_witness_on_a_multivalued_sum():
    # W with 1 + (-1) = {0, -1}: the first CH1 failure has |x+y| = 2
    W = build_W()
    add = [[sorted(W.add_cell(x, y)) for y in range(3)] for x in range(3)]
    add[1][2] = add[2][1] = [0, 2]
    rep = validate(FiniteHyperfield(W.names, W.mul, add))
    # pinned before the set-bit kernel
    assert [(c.axiom, c.witness) for c in rep.failed()] == [
        ("CH4", (1, 1, 1)), ("CH1", (1, 2, 2)), ("HR3", (2, 1, 2))]


@settings(max_examples=200, deadline=None)
@given(mask_tables(), st.data())
def test_set_bit_kernels_match_full_scans(F, data):
    n = F.size
    masks = st.integers(0, (1 << n) - 1)
    a, b = data.draw(masks), data.draw(masks)
    x = data.draw(st.integers(0, n - 1))
    assert finite._sumset(F._add, a, b) == _ref_sumset(F._add, a, b)
    assert finite._mul_mask(F.mul[x], a) == _ref_mul_mask(F.mul[x], a)
    assert finite._mask_to_cell(a) == _ref_mask_to_cell(a, n)


@settings(max_examples=200, deadline=None)
@given(mask_tables())
def test_validate_matches_full_scan_references(F):
    ref = _ref_witnesses(F)
    got = {c.axiom: (c.passed, c.witness) for c in validate(F).checks
           if c.axiom in ref}
    assert got == ref


@settings(max_examples=200, deadline=None)
@given(mask_tables(), st.data())
def test_mask_readers_match_the_cell_decoding_references(F, data):
    # on tables that are often no hyperfield: the same verdict, or an
    # exception of the same type
    n = F.size
    assert _outcome(is_field, F) == _outcome(ref_is_field, F)
    subset = data.draw(st.frozensets(st.integers(0, n - 1)))
    assert _outcome(is_hyperideal, F, subset) == _outcome(ref_is_hyperideal, F, subset)
    assert _outcome(list_hyperideals, F) == _outcome(ref_list_hyperideals, F)
    G = data.draw(st.sampled_from([F] + SMALL_HYPERFIELDS))
    s = (ZERO, ONE) + tuple(data.draw(st.integers(0, G.size - 1)) for _ in range(n - 2))
    m = Morphism(F, G, s)
    assert _outcome(is_homomorphism, m) == _outcome(ref_is_homomorphism, m)
    u = data.draw(st.integers(1, n - 1))
    got, ref = (_outcome(f, F, [u]) for f in (quotient_hyperfield, ref_quotient_hyperfield))
    if isinstance(ref, FiniteHyperfield):
        got, ref = got.to_json(), ref.to_json()
    assert got == ref


def test_validate_f64_within_budget():
    F = build_finite_field(64)
    t0 = time.perf_counter()
    assert validate(F).ok
    dt = time.perf_counter() - t0
    assert dt < 3.0, f"validate(F64) took {dt:.2f}s, budget 3s"


def test_validate_f64_fast():
    F = build_finite_field(64)

    def timed():
        t0 = time.perf_counter()
        assert validate(F).ok
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.05, f"validate(F64) took {dt:.3f}s, budget 0.05s"


# Light's associativity test: the a with (xa)y = x(ay) for all x, y are
# closed under products, so checking a in a generating set decides the rest.

_S3 = list(itertools.permutations(range(3)))  # _S3[0] is the identity


def _s3_with_zero(x, y, n):
    """The symmetric group S3 on 1..6, 1 its identity, and 0 absorbing
    (n = 7): associative, with row 1 the identity, not commutative."""
    if not x or not y:
        return 0
    a, b = _S3[x - 1], _S3[y - 1]
    return _S3.index(tuple(a[i] for i in b)) + 1


_ASSOCIATIVE_OPS = (lambda x, y, n: x * y % n,  # Z/n under multiplication
                    lambda x, y, n: max(x, y),  # a semilattice
                    lambda x, y, n: x,  # left zero: associative, not commutative
                    _s3_with_zero)


@st.composite
def mul_tables(draw):
    """A mul table of order 2..7: an associative operation relabelled by a
    bijection fixing 0 and 1 (S3 with a zero at order 7), the same with one
    entry redrawn (and its mirror, half the time), or an arbitrary table."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        op = draw(st.sampled_from(_ASSOCIATIVE_OPS))
        n = 7 if op is _s3_with_zero else n
        p = [0, 1] + draw(st.permutations(range(2, n)))
        mul = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                mul[p[x]][p[y]] = p[op(x, y, n)]
        if draw(st.booleans()):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            mul[x][y] = draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                mul[y][x] = mul[x][y]
    else:
        mul = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                            min_size=n, max_size=n))
    return FiniteHyperfield([str(i) for i in range(n)], mul, [[(0,)] * n] * n)


def _associative_at(mul, middles):
    n = len(mul)
    return all(mul[mul[x][a]][y] == mul[x][mul[a][y]]
               for x in range(n) for a in middles for y in range(n))


@settings(max_examples=300, deadline=None)
@given(mul_tables())
def test_lights_lemma_on_the_generating_rows(F):
    n, mul = F.size, F.mul
    gens = finite._generators(mul)
    rows = (0, 1, *gens)
    assert all(1 < g < n for g in gens)
    closure = set(rows)
    while True:
        products = {mul[a][b] for a in closure for b in closure}
        if products <= closure:
            break
        closure |= products
    assert closure == set(range(n))
    assert _associative_at(mul, rows) == _associative_at(mul, range(n))
    if mul[ONE] == tuple(range(n)):  # the lemma scan's prerequisite
        assert (finite._hr2_lemma_witness(mul, gens) is None) == \
            (finite._hr2_witness(mul) is None)


def _ref_generators(mul):
    """The least unit of multiplicative order n - 1 but 1, as a list, else
    None (the units are no cyclic group, or 1 is their only member)."""
    n = len(mul)
    return next(([g] for g in range(2, n) if finite._mult_order(mul, g) == n - 1), None)


def test_generators_are_one_least_cyclic_generator_when_there_is_one():
    tables = [build_finite_field(q) for q in range(2, 65) if prime_power(q)]
    tables += [Q for F in (build_finite_field(q) for q in (13, 16, 25))
               for Q in map(lambda u: quotient_hyperfield(F, [u]), F.units)]
    tables += [F for order in (2, 3, 4, 5, 6) for F in enumerate_hyperfields(order)]
    seen = set()
    for F in tables:
        ref = _ref_generators(F.mul)
        gens = finite._generators(F.mul)
        assert gens == (ref or finite._greedy_generators(F.mul)[0]), F
        seen.add((ref is None, len(gens)))
    # K and F2 (no unit but 1), one generator, and the greedy pair on the
    # Klein four-group
    assert seen == {(True, 0), (False, 1), (True, 2)}


def test_generators_test_every_unit_not_the_count_of_products():
    # the products of 2 are 1, 2, 0: three keys, as many as the units, but
    # not the unit 3, so 2 alone does not generate and the greedy set runs
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 3], [0, 3, 3, 3]]
    assert set(finite._products(mul, [2])) == {0, 1, 2}
    assert finite._generators(mul) == [2, 3] == finite._greedy_generators(mul)[0]


# validate's reduced scans need these prerequisites: row 1 of mul the
# identity (every lemma; HR2's middles and HR3's rows are then the
# generators), HR2 itself (HR3's lemma), 0 + 0 = {0} (HR3 at x = 0), HR2, HF
# and HR3 (the scaling lemma: CH1..CH4 on the rows 0 and 1), CH3 (CH4 by
# scaling) and row 0 of add neutral (CH1 on the row x = 1 alone).

_KERNELS = {  # the rows each kernel scans, None for a full scan
    "_hr2_lemma_witness": lambda mul, gens: tuple(gens),
    "_hr2_witness": lambda mul: None,
    "_hr3_witness": lambda mul, add, rows=None: None if rows is None else tuple(rows),
    "_ch2_witness": lambda add, rows: tuple(rows),
    "_zeros": lambda add, rows: tuple(rows),
    "_ch4_witness": lambda add, neg: tuple(range(len(neg))),
    "_ch1_witness": lambda add, rows=None: None if rows is None else tuple(rows)}


def _scans(F, monkeypatch):
    """The (kernel, rows) of each scan validate(F) runs, in order."""
    calls = []
    for name, rows in _KERNELS.items():
        def recorded(*args, name=name, rows=rows, original=getattr(finite, name)):
            calls.append((name, rows(*args)))
            return original(*args)
        monkeypatch.setattr(finite, name, recorded)
    validate(F)
    monkeypatch.undo()
    return calls


def test_validate_takes_the_reduced_scans_on_hyperfields(monkeypatch):
    tables = SMALL_HYPERFIELDS + [build_finite_field(q) for q in (9, 16, 27, 32, 49)] + \
        [F for order in (4, 5, 6) for F in enumerate_hyperfields(order)]
    for F in tables:
        gens = tuple(finite._generators(F.mul))
        scans = _scans(F, monkeypatch)
        assert scans == [("_hr2_lemma_witness", gens), ("_hr3_witness", gens),
                         ("_ch2_witness", (ZERO, ONE)), ("_zeros", (ZERO, ONE)),
                         ("_ch4_witness", (ZERO, ONE)), ("_ch1_witness", (ONE,))], F
        # no scan is a full one (on K and F2 the rows 0 and 1 are all rows)
        assert F.size == 2 or all(rows is not None and len(rows) < F.size
                                  for _, rows in scans)


# the order-5 classes whose units, the Klein four-group, are not cyclic
NONCYCLIC = [F for F in enumerate_hyperfields(5) if len(finite._generators(F.mul)) > 1]


@st.composite
def fallback_tables(draw):
    """A hyperfield with one prerequisite of validate's reduced scans
    broken: half the time a cell or entry anywhere redrawn, then, on a table
    of SMALL_HYPERFIELDS, an entry of row 1 of mul, a cell of row 0 of add
    (each with its mirror half the time), the cell 0 + 0, an entry of column
    1 or of row 0 of mul, or a cell of row 1 of add against its mirror
    redrawn, or on one of NONCYCLIC the product of its two generators in one
    order."""
    kind = draw(st.sampled_from(("mul1", "row0", "zero", "col1", "mul0", "add1", "commute")))
    base = draw(st.sampled_from(NONCYCLIC if kind == "commute" else SMALL_HYPERFIELDS))
    n = base.size
    mul = [list(row) for row in base.mul]
    add = [list(row) for row in base._add]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            mul[x][y] = draw(st.integers(0, n - 1))
        else:
            add[x][y] = draw(st.integers(1, (1 << n) - 1))
    b = draw(st.integers(0, n - 1))
    if kind == "mul1":
        mul[ONE][b] = draw(st.integers(0, n - 1).filter(lambda v: v != b))
        if draw(st.booleans()):
            mul[b][ONE] = mul[ONE][b]
    elif kind == "row0":
        add[ZERO][b] = draw(st.integers(1, (1 << n) - 1).filter(lambda m: m != 1 << b))
        if draw(st.booleans()):
            add[b][ZERO] = add[ZERO][b]
    elif kind == "zero":
        add[ZERO][ZERO] = draw(st.integers(2, (1 << n) - 1))
    elif kind == "col1":
        mul[b][ONE] = draw(st.integers(0, n - 1).filter(lambda v: v != b))
    elif kind == "mul0":
        mul[ZERO][b] = draw(st.integers(1, n - 1))
    elif kind == "add1":
        b = draw(st.integers(0, n - 1).filter(lambda v: v != ONE))
        add[ONE][b] = draw(st.integers(1, (1 << n) - 1).filter(lambda m: m != add[b][ONE]))
    else:
        g, h = finite._generators(base.mul)[:2]
        mul[g][h] = draw(st.integers(0, n - 1).filter(lambda v: v != mul[h][g]))
    return kind, FiniteHyperfield._from_masks(base.names, mul, add)


@settings(max_examples=300, deadline=None)
@given(fallback_tables())
def test_validate_falls_back_when_a_prerequisite_fails(kind_and_table):
    kind, F = kind_and_table
    n, mul, add = F.size, F.mul, F._add
    gens = finite._generators(mul)
    broken = {"mul1": mul[ONE] != tuple(range(n)),
              "row0": any(add[ZERO][b] != 1 << b for b in range(n)),
              "zero": add[ZERO][ZERO] != 1,
              "col1": any(mul[b][ONE] != b for b in range(n)),
              "mul0": any(mul[ZERO][b] != ZERO for b in range(n)),
              "add1": any(add[ONE][b] != add[b][ONE] for b in range(n)),
              "commute": any(mul[g][h] != mul[h][g] for g in gens for h in gens)
              or len(gens) < 2}
    assert broken[kind]
    ref = _ref_witnesses(F)
    got = {c.axiom: (c.passed, c.witness) for c in validate(F).checks
           if c.axiom in ref}
    assert got == ref


def test_validate_pins_witnesses_only_the_full_scans_find():
    # 1 * 1 = 0 and 1 * 2 = 2 * 2 = 2: the generator 2 passes Light's test
    # and 1, no product of it, fails it at (1, 1, 2)
    S = build_S()
    rep = validate(FiniteHyperfield._from_masks(S.names, [[0, 0, 0], [0, 0, 2], [0, 2, 2]],
                                                S._add))
    assert rep.check("HR2").witness == (1, 1, 2)
    # S with 0 + 0 = {0, 1, -1}, a cell each unit maps onto itself: HR3 fails
    # at x = 0 alone
    add = [list(row) for row in S._add]
    add[ZERO][ZERO] = 0b111
    rep = validate(FiniteHyperfield._from_masks(S.names, S.mul, add))
    assert rep.check("HR2").passed and rep.check("HR3").witness == (0, 0, 0)


def test_hf_looks_for_an_inverse_among_the_units_only():
    # 2 * 0 = 1 but 2 * 1 = 2 * 2 = 2: the product 1 in row 2 is no inverse
    S = build_S()
    rep = validate(FiniteHyperfield._from_masks(S.names, [[0, 0, 0], [0, 1, 2], [1, 2, 2]],
                                                S._add))
    assert rep.check("HF").witness == (2,)


def test_mask_constructor_refuses_malformed_masks():
    names, mul = ["0", "1", "2"], [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    good = [[1, 2, 4], [2, 5, 1], [4, 1, 2]]
    assert FiniteHyperfield._from_masks(names, mul, good) == \
        FiniteHyperfield(names, mul, [[_ref_mask_to_cell(m, 3) for m in row] for row in good])
    for row, message in (([2, 0, 1], "empty addition cell"),
                         ([2, 5, 8], "add entry out of range"),
                         ([9, 5, 1], "add entry out of range"),
                         ([2, 5, 1 << 70], "add entry out of range"),
                         ([8, 0, 1], "add entry out of range"),
                         ([2, 0, 8], "empty addition cell"),
                         ([2, 5], "add table must be size x size"),
                         ([2, 5, 1, 1], "add table must be size x size")):
        with pytest.raises(MalformedTableError, match=message):
            FiniteHyperfield._from_masks(names, mul, [good[0], row, good[2]])
    for masks in (good[:2], good + [good[0]]):
        with pytest.raises(MalformedTableError, match="add table must be size x size"):
            FiniteHyperfield._from_masks(names, mul, masks)
    for bad, message in (([[0, 0, 0], [0, 1, 3], [0, 2, 1]], "mul entry out of range"),
                         ([[0, 0, 0], [0, 1], [0, 2, 1]], "mul table must be size x size")):
        with pytest.raises(MalformedTableError, match=message):
            FiniteHyperfield._from_masks(names, bad, good)
    with pytest.raises(MalformedTableError, match="need at least the elements 0 and 1"):
        FiniteHyperfield._from_masks(["0"], [[0]], [[1]])


def test_tables_built_from_masks_equal_tables_built_from_cells():
    # the fields as they were built from singleton cells, then every
    # quotient of q <= 64 and every enumerated class through the decoded cells
    for q in (q for q in range(2, 65) if prime_power(q)):
        F, gf = build_finite_field(q), galois.GaloisField(q)
        meta = {"label": f"F{q}", **({"modulus": list(gf.modulus)} if gf.modulus else {})}
        ref = FiniteHyperfield(gf.names(), gf.mul, [[(v,) for v in row] for row in gf.add], meta)
        assert F == ref and F.to_json() == ref.to_json()
    for F in _theorem_tables():
        cells = [[_ref_mask_to_cell(m, F.size) for m in row] for row in F._add]
        ref = FiniteHyperfield(F.names, F.mul, cells, F.meta)
        masks = FiniteHyperfield._from_masks(F.names, F.mul, F._add, F.meta)
        assert masks == ref and masks.to_json() == ref.to_json() == F.to_json()


def test_validate_skips_ch4_when_inverses_are_missing():
    # 1 has no additive inverse at all
    add = [[(0,), (1,)], [(1,), (1,)]]
    broken = FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], add)
    rep = validate(broken)
    assert not rep.ok
    assert not rep.check("CH3").passed
    assert rep.skipped  # CH4 is skipped rather than crashing on neg()
    with pytest.raises(MalformedTableError, match="element 1 has no additive inverse"):
        broken.neg(1)
    assert broken.neg(0) == 0


def test_neg_takes_the_least_candidate():
    # every sum of two units is the whole carrier, so 0 lies in 1 + 1 and 1 + 2
    every = (0, 1, 2)
    F = FiniteHyperfield(["0", "1", "2"], [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
                         [[(0,), (1,), (2,)], [(1,), every, every], [(2,), every, every]])
    assert [b for b in range(3) if F.contains(1, b, ZERO)] == [1, 2]
    assert [F.neg(x) for x in range(3)] == [0, 1, 1]


def test_neutral_axiom_checked_directly():
    K = build_K()
    rep = validate(K)
    assert rep.check("NEUTRAL").passed


def test_is_field_agrees_with_singleton_cells():
    for F in (build_K(), build_S(), build_W(), build_finite_field(5)):
        singleton = all(len(F.add_cell(x, y)) == 1
                        for x in range(F.size) for y in range(F.size))
        assert is_field(F) == singleton


def test_json_round_trip_preserves_tables():
    for F in (build_K(), build_S(), build_finite_field(9)):
        blob = json.dumps(F.to_json(), sort_keys=True)
        G = FiniteHyperfield.from_json(json.loads(blob))
        assert F == G
        assert _cells(F) == _cells(G)


# -- quotients -------------------------------------------------------------------

def test_quotient_by_full_units_is_K():
    for q in (3, 4, 5, 7, 9):
        F = build_finite_field(q)
        Q = quotient_hyperfield(F, F.units)
        assert Q.size == 2
        assert find_isomorphism(Q, build_K()) is not None


def test_quotient_by_squares_and_the_mod_four_split():
    for p, want in ((5, False), (7, True), (11, True), (13, False),
                    (19, True), (23, True)):
        F = build_finite_field(p)
        Q = quotient_hyperfield(F, squares_subgroup(F))
        assert (find_isomorphism(Q, build_W()) is not None) == want, p


def test_quotient_of_f3_by_trivial_subgroup_is_f3():
    F = build_finite_field(3)
    Q = quotient_hyperfield(F, [1])
    assert find_isomorphism(Q, F) is not None


def test_quotient_rejects_non_fields_and_non_subgroups():
    with pytest.raises(ValueError):
        quotient_hyperfield(build_K(), [1])
    F = build_finite_field(7)
    with pytest.raises(ValueError):
        quotient_hyperfield(F, [0, 1])


def test_quotient_results_validate():
    for q in (4, 9, 11):
        F = build_finite_field(q)
        for u in F.units:
            T = subgroup_closure(F, [u])
            assert validate(quotient_hyperfield(F, T)).ok


def _index_4_quotient_input():
    F = build_finite_field(49)
    g = next(u for u in F.units if finite._mult_order(F.mul, u) == 48)
    return F, finite._pow(F, g, 4)


def test_quotients_match_the_cell_decoding_reference():
    # every quotient of every prime power q <= 64 by every unit subgroup
    count = 0
    for q in range(2, 65):
        if prime_power(q) is None:
            continue
        F = build_finite_field(q)
        assert is_field(F) is ref_is_field(F) is True
        for u in _unit_subgroup_generators(F):  # F_q has cyclic units
            Q = quotient_hyperfield(F, [u])
            assert Q.to_json() == ref_quotient_hyperfield(F, [u]).to_json(), (q, u)
            assert is_field(Q) == ref_is_field(Q), (q, u)
            if Q.size <= 12:
                assert list_hyperideals(Q) == ref_list_hyperideals(Q), (q, u)
            count += 1
    assert count == 142


def test_quotient_of_f49_at_index_4_fast():
    F, t = _index_4_quotient_input()

    def timed():
        t0 = time.perf_counter()
        assert quotient_hyperfield(F, [t]).size == 5
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.0006, f"quotient_hyperfield(F49, index 4) took {dt * 1e3:.3f}ms, budget 0.6ms"


# -- morphisms -------------------------------------------------------------------

def test_sign_map_is_hom_but_not_embedding():
    m = Morphism(build_S(), build_W(), (0, 1, 2))
    assert is_homomorphism(m)
    assert not is_isomorphism(m)  # a bijection, but sigma(1+1) = {1} and 1+1 = {1,-1} in W


def test_reverse_sign_map_is_not_a_hom():
    assert not is_homomorphism(Morphism(build_W(), build_S(), (0, 1, 2)))


def test_a_map_keeping_sums_but_not_products_is_not_a_hom():
    # F5 -> W with 1, 2 -> 1 and 3, 4 -> -1 keeps every sum (in W any two
    # units sum to both signs, and it sends -x to -s(x)), but 2*2 = 4 goes
    # to -1 while 1*1 = 1.  Swapping 2 and 4 in F5 breaks 1+1 first.
    F, W = build_finite_field(5), build_W()
    s = (0, 1, 1, 2, 2)
    assert all(W.contains(s[x], s[y], s[z]) for x in range(5) for y in range(5)
               for z in F.add_cell(x, y))
    assert not is_homomorphism(Morphism(F, W, s))


def test_isomorphism_needs_a_bijection():
    F = build_finite_field(5)
    assert not is_isomorphism(Morphism(F, F, (0, 1, 1, 3, 4)))
    assert not is_isomorphism(Morphism(F, build_K(), (0, 1, 1, 1, 1)))


def test_field_collapse_onto_K_is_a_hom():
    F = build_finite_field(5)
    m = Morphism(F, build_K(), (0, 1, 1, 1, 1))
    assert is_homomorphism(m)


def test_morphism_must_fix_zero_and_one():
    with pytest.raises(ValueError):
        Morphism(build_K(), build_K(), (1, 0))


def test_isomorphism_cross_checks_both_routes():
    S = build_S()
    m = find_isomorphism(S, S)
    assert m is not None and is_isomorphism(m)
    # nontrivial automorphism would swap the signs; S has none
    assert m.map == (0, 1, 2)


def test_frobenius_is_an_automorphism_of_f4():
    F = build_finite_field(4)
    sq = tuple(F.mul[x][x] for x in range(4))
    m = Morphism(F, F, sq)
    assert is_isomorphism(m)
    assert sq != (0, 1, 2, 3)


def test_find_isomorphism_respects_unit_group_structure():
    assert find_isomorphism(build_finite_field(5), build_finite_field(4)) is None
    assert find_isomorphism(build_K(), build_S()) is None
    F9a = build_finite_field(9)
    F9b = build_finite_field(9, modulus=(2, 1, 1))  # x^2 + x + 2
    m = find_isomorphism(F9a, F9b)
    assert m is not None and is_isomorphism(m)


def ref_unit_group_isos(F: FiniteHyperfield, G: FiniteHyperfield):
    """All multiplicative-group isomorphisms F^x -> G^x, as full maps with
    0 -> 0, yielded in lexicographic order of the map tuple.  Backtracking
    with element-order and partial-product pruning plus a final full
    multiplicativity check; fine at desk scale."""
    n = F.size
    if n != G.size:
        return

    of = {x: finite._mult_order(F.mul, x) for x in F.units}
    og = {x: finite._mult_order(G.mul, x) for x in G.units}
    perm: list[int | None] = [None] * n
    perm[ZERO], perm[ONE] = ZERO, ONE
    used = [False] * n
    used[ZERO] = used[ONE] = True

    def full_check() -> bool:
        for a in range(1, n):
            for b in range(1, n):
                if perm[F.mul[a][b]] != G.mul[perm[a]][perm[b]]:
                    return False
        return True

    def extend(x):
        if x == n:
            if full_check():
                yield tuple(perm)
            return
        for y in range(1, n):
            if used[y] or of[x] != og[y]:
                continue
            ok = True
            for a in range(1, n):
                if perm[a] is None:
                    continue
                p = F.mul[a][x]
                if perm[p] is not None and perm[p] != G.mul[perm[a]][y]:
                    ok = False
                    break
            if ok:
                perm[x] = y
                used[y] = True
                yield from extend(x + 1)
                perm[x] = None
                used[y] = False

    yield from extend(2)


def ref_unit_automorphisms(mul) -> list[tuple[int, ...]]:
    """Every automorphism of the unit group {1, .., n-1} of the mul table,
    as a full map with 0 -> 0 and 1 -> 1, in lexicographic order (the
    identity first).  Brute force over the permutations fixing 1."""
    n = len(mul)
    units = range(1, n)
    return [s for s in ((ZERO, ONE) + p for p in itertools.permutations(range(2, n)))
            if all(s[mul[a][b]] == mul[s[a]][s[b]] for a in units for b in units)]


def _least_iso(F, G):
    """The least witness by a scan of every unit-group isomorphism."""
    return min((s for s in ref_unit_group_isos(F, G)
                if finite._em1_holds(F, G, s)), default=None)


def _transported(F, p):
    """The copy of F along the bijection p, which fixes 0 and 1."""
    n = F.size
    names, mul, add = [None] * n, [[0] * n for _ in range(n)], [[()] * n for _ in range(n)]
    for x in range(n):
        names[p[x]] = F.names[x]
        for y in range(n):
            mul[p[x]][p[y]] = p[F.mul[x][y]]
            add[p[x]][p[y]] = tuple(p[z] for z in F.add_cell(x, y))
    return FiniteHyperfield(names, mul, add)


def _relabelled(F):
    """F with its units other than 1 listed in reverse."""
    return _transported(F, [0, 1] + list(range(F.size - 1, 1, -1)))


def _iso_grid():
    pairs = []
    for order in range(2, 7):
        for F in enumerate_hyperfields(order):
            pairs += [(F, F), (F, _relabelled(F))]
    for index in range(5, 13):
        quotients = []
        for q in range(index + 1, 50):
            if galois.prime_power(q) is not None and (q - 1) % index == 0:
                K = build_finite_field(q)
                gen = next(u for u in K.units if finite._mult_order(K.mul, u) == q - 1)
                quotients.append(quotient_hyperfield(K, [finite._pow(K, gen, index)]))
        pairs += [(F, G) for F in quotients for G in quotients]
    return pairs


def test_find_isomorphism_returns_the_least_witness():
    # _unit_group_isos yields what the backtracking reference yields, in
    # lexicographic order, so the first map that passes the embedding
    # condition is the least
    grid = _iso_grid()
    assert len(grid) > 200
    for F, G in grid:
        isos = list(finite._unit_group_isos(F.mul, G.mul))
        assert isos == list(ref_unit_group_isos(F, G)) == sorted(isos), (F, G)
        m = find_isomorphism(F, G)
        assert (m and m.map) == _least_iso(F, G), (F, G)
    assert find_isomorphism(build_S(), build_W()) is None


def test_find_isomorphism_decides_a_cyclic_order_32_pair_quickly():
    # F125/<2> and F32 both have a cyclic unit group of order 31 (index 2 is
    # the constant 2, of order 4 in F125) but are not isomorphic, so every
    # unit-group isomorphism is tried and fails the embedding condition
    Q, F32 = quotient_hyperfield(build_finite_field(125), [2]), build_finite_field(32)
    assert Q.size == F32.size == 32
    t0 = time.perf_counter()
    assert find_isomorphism(Q, F32) is None
    dt = time.perf_counter() - t0
    assert dt < 0.5, f"find_isomorphism took {dt:.3f}s, budget 0.5s"


def test_morphism_checks_match_the_cell_decoding_reference():
    # K, S, W and every enumerated class of orders 2..6, under random maps
    # (bijective and not), the collapse of every unit onto 1, and the
    # unit-group isomorphisms, on which the additive condition decides
    structures = [build_K(), build_S(), build_W()]
    structures += [H for order in range(2, 7) for H in enumerate_hyperfields(order)]
    rng = random.Random(20)
    verdicts = {True: 0, False: 0}
    for F in structures:
        for G in structures:
            maps = _random_maps(F, G, rng) + [(ZERO,) + (ONE,) * (F.size - 1)]
            for s in maps + list(finite._unit_group_isos(F.mul, G.mul)):
                m = Morphism(F, G, s)
                hom = ref_is_homomorphism(m)
                assert is_homomorphism(m) == hom, (F, G, s)
                verdicts[hom] += 1
                if len(set(s)) == F.size == G.size:
                    inv = tuple(sorted(range(F.size), key=s.__getitem__))
                    back = ref_is_homomorphism(Morphism(G, F, inv))
                    assert is_isomorphism(m) == (hom and back), (F, G, s)
    assert min(verdicts.values()) > 100, verdicts


def test_find_isomorphism_refuses_tables_that_are_not_hyperfields():
    # every element times 1 is 1, and 1 + 1 = {0, 1}: no unit group, yet the
    # identity keeps every sum of K; this once raised a RuntimeError
    T3 = FiniteHyperfield.from_json({"names": ["0", "1"], "mul": [[1, 1], [1, 1]],
                                     "add": [[[0], [1]], [[1], [0, 1]]]})
    with pytest.raises(MalformedTableError, match="the tables are not hyperfields"):
        find_isomorphism(T3, build_K())


def test_find_isomorphism_refuses_units_that_are_no_group():
    # 2 * 2 = 2 in G: no power of 2 is 1, so it has no multiplicative order
    F = build_finite_field(3)
    add = [[F.add_cell(x, y) for y in range(3)] for x in range(3)]
    G = FiniteHyperfield(["0", "1", "2"], [[0, 0, 0], [0, 1, 2], [0, 2, 2]], add)
    with pytest.raises(MalformedTableError,
                       match="no power of element 2 is 1: the units are no group"):
        find_isomorphism(F, G)


def test_zero_has_no_multiplicative_inverse():
    with pytest.raises(ZeroDivisionError, match="0 has no multiplicative inverse"):
        build_finite_field(5).inv(ZERO)


def test_homomorphism_compares_inverses_on_a_target_that_is_no_group():
    # F3 -> G sends 2 to 3; 3 * 3 = 1 keeps every product, and every sum of
    # G is the whole carrier.  With 3 * 2 = 1 too, G's first inverse of 3 is
    # 2, not s(1/2) = 3: only the inverse check fails.
    F = build_finite_field(3)
    whole = [[(0, 1, 2, 3)] * 4 for _ in range(4)]
    for row3, want in (([0, 3, 1, 1], False), ([0, 3, 3, 1], True)):
        mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 2], row3]
        G = FiniteHyperfield(["0", "1", "2", "3"], mul, whole)
        assert is_homomorphism(Morphism(F, G, (0, 1, 3))) is want


def test_isomorphism_of_f64_with_itself_fast():
    F = build_finite_field(64)
    m = Morphism(F, F, tuple(range(64)))

    def timed():
        t0 = time.perf_counter()
        assert is_isomorphism(m)
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.006, f"is_isomorphism(F64 identity) took {dt * 1e3:.2f}ms, budget 6ms"


# -- classification ----------------------------------------------------------------

def test_classification_flags_on_named_hyperfields():
    cK = classify(build_K())
    assert (cK.char2, cK.cchar1, cK.stringent, cK.is_field) == (
        True, True, True, False)
    cS = classify(build_S())
    assert (cS.char2, cS.cchar1, cS.stringent) == (False, True, True)
    cW = classify(build_W())
    assert (cW.char2, cW.cchar1, cW.stringent) == (False, True, False)
    c3 = classify(build_finite_field(3))
    assert c3.is_field and c3.superiorly_canonical and not c3.cchar1


def test_superior_canonicity_fails_for_K_S_W():
    for F in (build_K(), build_S(), build_W()):
        assert not classify(F).superiorly_canonical
        assert not is_field(F)


def _all_quotients(q_max):
    """F_q / T for every prime power q <= q_max and every subgroup T of the
    cyclic unit group: the field itself at T = {1}, K at T = all units."""
    for q in range(2, q_max + 1):
        if prime_power(q) is None:
            continue
        K = build_finite_field(q)
        gen = next(u for u in K.units if finite._mult_order(K.mul, u) == q - 1)
        for index in range(1, q):
            if (q - 1) % index == 0:
                yield quotient_hyperfield(K, [finite._pow(K, gen, index)])


@functools.cache
def _theorem_tables():
    """The enumerated classes of orders 2-6, K, S, W and every quotient with
    q <= 64: 202 tables."""
    tables = [F for order in range(2, 7) for F in enumerate_hyperfields(order)]
    return tables + [build_K(), build_S(), build_W(), *_all_quotients(64)]


def test_classify_obeys_the_structure_theorems():
    # classify's docstring: a finite superiorly canonical hyperfield is a
    # field, and a finite stringent one is a field, K or S (Bowler-Su)
    K, S = build_K(), build_S()
    tables = _theorem_tables()
    assert len(tables) == 202
    for F in tables:
        c = classify(F)
        assert c.superiorly_canonical == c.is_field, F
        assert c.stringent == (c.is_field or find_isomorphism(F, K) is not None
                               or find_isomorphism(F, S) is not None), F


def test_the_generic_checker_finds_superior_canonicity_exactly_on_fields():
    # classify reads the flag as is_field; the windowed checker on the whole
    # table is the second route
    tables = _theorem_tables()
    assert len(tables) == 202
    for F in tables:
        checked = check_superiorly_canonical(FiniteBackend(F), 0).ok
        assert checked == is_field(F) == classify(F).superiorly_canonical, F


def test_classify_of_f37_fast():
    F = build_finite_field(37)

    def timed():
        t0 = time.perf_counter()
        assert classify(F).superiorly_canonical
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.0009, f"classify(F37) took {dt * 1e3:.3f}ms, budget 0.9ms"


# -- hyperideals -------------------------------------------------------------------

def test_hyperideal_dichotomy_for_hyperfields():
    for F in (build_K(), build_S(), build_W(), build_finite_field(3),
              build_finite_field(4)):
        ideals = list_hyperideals(F)
        assert sorted(map(sorted, ideals)) == [
            [0], sorted(range(F.size))]


def test_is_hyperideal_rejects_non_ideals():
    S = build_S()
    assert is_hyperideal(S, {0})
    assert is_hyperideal(S, {0, 1, 2})
    assert not is_hyperideal(S, {0, 1})
    assert not is_hyperideal(S, {1, 2})


def test_is_hyperideal_refuses_elements_outside_the_carrier():
    F5 = build_finite_field(5)
    # -1 once read row 4 by negative indexing, and 7 raised a bare IndexError
    with pytest.raises(ValueError, match="element -1 is not an index"):
        is_hyperideal(F5, {0, -1, 1, 2, 3})
    with pytest.raises(ValueError, match="element 7 is not an index"):
        is_hyperideal(F5, {0, 7})


def test_hyperideals_of_the_index_11_quotient_of_f23_fast():
    F = build_finite_field(23)
    Q = quotient_hyperfield(F, [finite._pow(F, 5, 11)])  # 5 has order 22
    assert Q.size == 12

    def timed():
        t0 = time.perf_counter()
        assert list_hyperideals(Q) == [frozenset({0}), frozenset(range(12))]
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.018, f"list_hyperideals(F23/T) took {dt * 1e3:.1f}ms, budget 18ms"


def _residues(n):
    """Z/n as a table: each sum a single residue, so every x with
    gcd(x, n) > 1 is not onto and lies in a proper ideal."""
    return FiniteHyperfield([str(i) for i in range(n)],
                            [[x * y % n for y in range(n)] for x in range(n)],
                            [[((x + y) % n,) for y in range(n)] for x in range(n)])


def test_pruned_hyperideal_search_matches_the_full_search():
    tables = [F for order in range(2, 7) for F in enumerate_hyperfields(order)]
    tables += [build_K(), build_S(), build_W(), *map(_residues, range(2, 13))]
    # F2 x F2, with 0 = (0, 0), 1 = (1, 1), 2 = (1, 0) and 3 = (0, 1)
    tables.append(FiniteHyperfield("0123", [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0],
                                            [0, 3, 0, 3]],
                                   [[(0,), (1,), (2,), (3,)], [(1,), (0,), (3,), (2,)],
                                    [(2,), (3,), (0,), (1,)], [(3,), (2,), (1,), (0,)]]))
    for F in tables:
        assert list_hyperideals(F) == ref_list_hyperideals(F), F
    assert list_hyperideals(_residues(12)) == [
        frozenset(range(0, 12, d)) for d in (12, 6, 4, 3, 2, 1)]
    assert list_hyperideals(tables[-1]) == [
        frozenset({0}), frozenset({0, 2}), frozenset({0, 3}), frozenset(range(4))]


def test_hyperideals_of_the_index_9_quotient_of_f37_fast():
    F = build_finite_field(37)
    Q = quotient_hyperfield(F, [finite._pow(F, 2, 9)])  # 2 has order 36
    assert Q.size == 10

    def timed():
        t0 = time.perf_counter()
        assert list_hyperideals(Q) == [frozenset({0}), frozenset(range(10))]
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.0005, f"list_hyperideals(F37/T) took {dt * 1e3:.3f}ms, budget 0.5ms"


# -- quotient recognition ------------------------------------------------------------

def test_non_quotient_certificate_is_none_on_known_quotients():
    for F in (build_K(), build_S(), build_W(), build_finite_field(2),
              build_finite_field(7)):
        assert non_quotient_certificate(F) is None


# An order-7 class (cyclic units of order 6, -1 = index 4) that the
# reachability criterion certifies: 1+1 = {2, 3} and 1+1+1 = {1, 2, 3}.
ORDER7_CERTIFIED = FiniteHyperfield(
    ["0", "1", "a2", "a3", "a4", "a5", "a6"],
    [[0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6], [0, 2, 3, 1, 5, 6, 4],
     [0, 3, 1, 2, 6, 4, 5], [0, 4, 5, 6, 1, 2, 3], [0, 5, 6, 4, 2, 3, 1],
     [0, 6, 4, 5, 3, 1, 2]],
    [[[0], [1], [2], [3], [4], [5], [6]],
     [[1], [2, 3], [1, 2], [1, 3], [0, 2, 3, 5, 6], [1, 2, 4, 5], [1, 3, 4, 6]],
     [[2], [1, 2], [1, 3], [2, 3], [1, 2, 4, 5], [0, 1, 3, 4, 6], [2, 3, 5, 6]],
     [[3], [1, 3], [2, 3], [1, 2], [1, 3, 4, 6], [2, 3, 5, 6], [0, 1, 2, 4, 5]],
     [[4], [0, 2, 3, 5, 6], [1, 2, 4, 5], [1, 3, 4, 6], [5, 6], [4, 5], [4, 6]],
     [[5], [1, 2, 4, 5], [0, 1, 3, 4, 6], [2, 3, 5, 6], [4, 5], [4, 6], [5, 6]],
     [[6], [1, 3, 4, 6], [2, 3, 5, 6], [0, 1, 2, 4, 5], [4, 6], [5, 6], [4, 5]]])


def test_non_quotient_certificate_on_an_order_seven_class():
    F = ORDER7_CERTIFIED
    assert validate(F).ok
    cert = non_quotient_certificate(F)
    assert cert is not None
    assert cert["iterated_sums"] == [[1], [2, 3], [1, 2, 3]]
    assert quotient_search(F, 43) is None  # a certificate excludes a witness


def test_certificate_and_search_are_consistent_on_the_enumeration():
    for order in (2, 3, 4):
        for F in enumerate_hyperfields(order):
            cert = non_quotient_certificate(F)
            hit = quotient_search(F, 11)
            if cert is not None:
                assert hit is None  # a certificate must never coexist with a witness
            if hit is not None:
                q, gens = hit["q"], hit["generators"]
                G = build_finite_field(q)
                T = subgroup_closure(G, gens)
                assert find_isomorphism(quotient_hyperfield(G, T), F) is not None


def test_quotient_search_finds_the_textbook_witnesses():
    hit = quotient_search(build_W(), 23)
    assert hit is not None and hit["q"] == 7
    F7 = build_finite_field(7)
    assert frozenset(hit["subgroup"]) == squares_subgroup(F7)
    hit = quotient_search(build_K(), 5)
    assert hit is not None and hit["q"] == 3
    hit = quotient_search(build_finite_field(2), 2)
    assert hit is not None and hit["q"] == 2


# -- enumeration --------------------------------------------------------------------

# The enumerator before reversibility was decided on the rows h(a): every
# admissible choice became a full add table, and CH4 was checked on the table.

def _ref_candidate_tables(order, mul, inv, iota):
    full = (1 << order) - 1
    img = []
    for x in range(order):
        row = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            row[mask] = row[mask ^ low] | 1 << mul[x][low.bit_length() - 1]
        img.append(row)

    units = list(range(1, order))
    slots = []
    done = set()
    for a in units:
        if a in done:
            continue
        done.add(a)
        done.add(inv[a])
        slots.append(a)

    def choices(a):
        if a == inv[a]:
            opts = []
            for mask in range(1, full + 1):
                if bool(mask & 1) != (a == iota):
                    continue
                if img[a][mask] != mask:
                    continue
                opts.append(mask)
            return opts
        opts = []
        for mask in range(1, full + 1):
            if bool(mask & 1) != (a == iota):
                continue
            opts.append(mask)
        return opts

    option_lists = [choices(a) for a in slots]
    for combo in itertools.product(*option_lists):
        h = [0] * order
        h[0] = 1 << 1
        for a, mask in zip(slots, combo):
            h[a] = mask
            if inv[a] != a:
                h[inv[a]] = img[inv[a]][mask]
        add = [[0] * order for _ in range(order)]
        for y in range(order):
            add[0][y] = 1 << y
            add[y][0] = 1 << y
        for x in range(1, order):
            for y in range(order):
                if y == 0:
                    continue
                add[x][y] = img[x][h[mul[inv[x]][y]]]
        yield add


def _unit_tables(order):
    """(divisors, mul, inv) for every abelian unit group of the order, in
    the enumerator's order."""
    m = order - 1
    for divisors in finite._abelian_groups(m):
        unit_mul = finite._group_mul_table(divisors, m)
        mul = [[0] * order for _ in range(order)]
        for a in range(1, order):
            for b in range(1, order):
                mul[a][b] = unit_mul[a][b]
        inv = [None] * order
        for a in range(1, order):
            inv[a] = next(b for b in range(1, order) if mul[a][b] == 1)
        yield divisors, mul, inv


def _unit_groups(order):
    """(mul, inv, iota) for every abelian unit group of the order and every
    choice of -1, in the enumerator's order."""
    for _, mul, inv in _unit_tables(order):
        for iota in range(1, order):
            if mul[iota][iota] == 1:
                yield mul, inv, iota


def _ref_reversible_tables(order, mul, inv, iota):
    neg = [mul[iota][x] for x in range(order)]
    return [cand for cand in _ref_candidate_tables(order, mul, inv, iota)
            if finite._ch4_witness(cand, neg) is None]


# The enumerator before the orbit rule: each table that validates is
# compared by find_isomorphism with every class found so far.

def _ref_enumerate(order):
    found = []
    for mul, inv, iota in _unit_groups(order):
        for cand in _ref_reversible_tables(order, mul, inv, iota):
            if finite._ch1_witness(cand) is not None:
                continue
            names = ["0", "1"] + [f"a{i}" for i in range(2, order)]
            add = [[finite._mask_to_cell(cand[x][y]) for y in range(order)]
                   for x in range(order)]
            H = FiniteHyperfield(names, mul, add, {"label": f"order{order}"})
            if not validate(H).ok:
                continue
            if any(find_isomorphism(H, R) is not None for R in found):
                continue
            found.append(H)
    found.sort(key=lambda H: (H.mul, tuple(tuple(row) for row in H._add)))
    for i, H in enumerate(found):
        H.meta["label"] = f"order{order}_{i}"
    return found


def _images(mul):
    return [finite._mask_images(row) for row in mul]


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_row_level_ch4_keeps_exactly_the_reversible_tables(order, monkeypatch):
    ref = [cand for mul, inv, iota in _unit_groups(order)
           for cand in _ref_reversible_tables(order, mul, inv, iota)]
    rows = [h for mul, inv, iota in _unit_groups(order)
            for h in finite._candidate_rows(mul, inv, _images(mul), iota)]
    assert rows == [tuple(cand[ONE]) for cand in ref]
    # Let every candidate past the orbit rule: the enumerator must turn each
    # one into its reversible table, and test it on the row x = 1.
    tables = []

    def rejecting_ch1(add, rows=None):
        assert rows == (ONE,)
        tables.append(add)
        return (0, 0, 0)

    monkeypatch.setattr(finite, "_least_in_orbit", lambda *args: True)
    monkeypatch.setattr(finite, "_ch1_witness", rejecting_ch1)
    assert enumerate_hyperfields(order) == []
    assert tables == ref
    assert len(ref) == {2: 2, 3: 5, 4: 14, 5: 124, 6: 114}[order]


# The row search before CH4 was decided once per search node, verbatim: each
# option of a slot re-tested every CH4 instance of the slot.

def _node_by_option_tables(order, mul, inv, iota):
    """Yield the addition tables (as mask matrices) of the admissible
    choices of the rows h(a) = 1+a that are reversible (CH4), in the
    lexicographic order of the choices.

    For x != 0 the table sets x+y = x h(x^-1 y).  With a = x^-1 y and
    z = xc, 'y in z - x' reads c^-1 a in h(-c^-1), so CH4 is decided on h:
    for every unit a and unit c in h(a).  The rows with x = 0 or y = 0 hold
    by construction, because h(0) = {1} and 0 lies in h(a) iff a = -1.

    The rows are chosen one slot at a time, depth first; a slot a fixes
    h(a) and h(a^-1) = a^-1 h(a).  A partial choice is dropped as soon as
    a CH4 instance (a, c) fails whose rows h(a) and h(-c^-1) are both
    chosen, and a table is built only for a full choice."""
    full = (1 << order) - 1
    img = [_mask_images(row) for row in mul]  # img[x][mask]: x times mask

    units = range(1, order)
    slots = [a for a in units if a <= inv[a]]  # h(a) also fixes h(a^-1)
    depth = {}
    for k, a in enumerate(slots):
        depth[a] = depth[inv[a]] = k
    # checks[k]: the CH4 instances (a, c) first decidable at slot k, as
    # (a, bit of c, -c^-1, bit of c^-1 a): c in h(a) needs c^-1 a in h(-c^-1)
    checks = [[] for _ in slots]
    for a in units:
        for c in units:
            t = mul[iota][inv[c]]
            checks[max(depth[a], depth[t])].append(
                (a, 1 << c, t, 1 << mul[inv[c]][a]))

    def choices(a):
        # h(a) = a h(a^-1) = a h(a) when a is its own inverse
        return [mask for mask in range(1, full + 1)
                if bool(mask & 1) == (a == iota)
                and (a != inv[a] or img[a][mask] == mask)]

    options = [choices(a) for a in slots]
    h = [0] * order
    h[0] = 1 << ONE

    def extend(k):
        if k == len(slots):
            yield [[1 << y for y in range(order)]] + [
                [1 << x] + [img[x][h[mul[inv[x]][y]]] for y in units]
                for x in units]
            return
        a, b = slots[k], inv[slots[k]]
        for mask in options[k]:
            h[a] = mask
            h[b] = img[b][mask]
            if all(h[t] & want for x, c, t, want in checks[k] if h[x] & c):
                yield from extend(k + 1)

    yield from extend(0)


def _run_counting_nodes(search):
    """The list of what the generator search yields, and how many distinct
    frames of functions named `extend` (one per search node) ran for it."""
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend":
            frames.append(frame)  # kept alive, so their ids stay distinct

    sys.setprofile(profile)
    try:
        out = list(search)
    finally:
        sys.setprofile(None)
    return out, len(set(map(id, frames)))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_node_level_ch4_keeps_the_per_option_search(order):
    # above the enumerator's cap too: the search itself has none
    kept = 0
    for mul, inv, iota in _unit_groups(order):
        got = finite._candidate_rows(mul, inv, _images(mul), iota)
        ref = _node_by_option_tables(order, mul, inv, iota)
        if order <= 7:
            # It enters the same nodes: a partial choice is dropped as soon
            # as a CH4 instance on its rows fails, also one on the rows of a
            # single slot, which later slots would catch only deeper down.
            (got, nodes), (ref, ref_nodes) = map(_run_counting_nodes, (got, ref))
            assert nodes == ref_nodes, (mul, iota)
        got = list(got)
        assert got == [tuple(t[ONE]) for t in ref], (mul, iota)
        kept += len(got)
    assert kept == {2: 2, 3: 5, 4: 14, 5: 124, 6: 114, 7: 1840, 8: 3926}[order]


def _moved(s, iota, h):
    """The candidate (iota, h) under the unit automorphism s: (s(iota), s.h)
    with (s.h)(s(a)) = s(h(a)), the images computed bit by bit."""
    image = [0] * len(h)
    for a, mask in enumerate(h):
        image[s[a]] = sum(1 << s[v] for v in range(len(h)) if mask >> v & 1)
    return s[iota], tuple(image)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
def test_burnside_counts_the_classes_on_each_unit_group(order):
    # Burnside's lemma, with no orbit rule, no isomorphism search and
    # brute-force automorphisms: the classes on a unit group number
    # (1/|Aut|) sum_s |Fix(s)| over the valid candidates (iota, h).  Order 7
    # is above the enumerator's cap; its 277 classes are the count a raised
    # cap gives (ROADMAP item 8).
    found = enumerate_hyperfields(order) if order <= 6 else []
    total = 0
    for _, mul, inv in _unit_tables(order):
        valid = []
        for iota in range(1, order):
            if mul[iota][iota] != ONE:
                continue
            for h in finite._candidate_rows(mul, inv, _images(mul), iota):
                # x+y = x h(x^-1 y) on units, built cell by cell
                add = [[[mul[x][v] for v in range(order) if h[mul[inv[x]][y]] >> v & 1]
                        if x and y else [x + y] for y in range(order)]
                       for x in range(order)]
                if validate(FiniteHyperfield(range(order), mul, add)).ok:
                    valid.append((iota, h))
        auts = ref_unit_automorphisms(mul)
        fixed = sum(_moved(s, iota, h) == (iota, h)
                    for s in auts for iota, h in valid)
        assert fixed % len(auts) == 0
        classes = fixed // len(auts)
        if order <= 6:
            assert classes == sum(H.mul == tuple(map(tuple, mul)) for H in found)
        total += classes
    assert total == {2: 2, 3: 5, 4: 7, 5: 27, 6: 16, 7: 277}[order]


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_enumeration_matches_the_table_level_reference(order):
    assert [H.to_json() for H in enumerate_hyperfields(order)] == \
        [H.to_json() for H in _ref_enumerate(order)]


def test_enumeration_counts_are_stable():
    assert len(enumerate_hyperfields(2)) == 2
    assert len(enumerate_hyperfields(3)) == 5
    assert len(enumerate_hyperfields(4)) == 7
    # pinned at seed, not yet checked against Baker-Jin
    assert len(enumerate_hyperfields(5)) == 27
    assert len(enumerate_hyperfields(6)) == 16


def test_enumeration_contains_the_named_structures():
    order2 = enumerate_hyperfields(2)
    assert any(find_isomorphism(F, build_finite_field(2)) for F in order2)
    assert any(find_isomorphism(F, build_K()) for F in order2)
    order3 = enumerate_hyperfields(3)
    for target in (build_finite_field(3), build_S(), build_W()):
        assert any(find_isomorphism(F, target) for F in order3)


def test_enumeration_is_deduplicated_and_validated():
    for order in (2, 3, 4, 5, 6):
        found = enumerate_hyperfields(order)
        for i, F in enumerate(found):
            assert validate(F).ok
            for G in found[:i]:
                assert find_isomorphism(F, G) is None


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_enumeration_validates_each_class_once_and_never_searches(order, monkeypatch):
    calls = dict.fromkeys(("validate", "find_isomorphism"), 0)

    def counted(name):
        original = getattr(finite, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(finite, name, counted(name))
    found = enumerate_hyperfields(order)
    assert calls == {"validate": len(found), "find_isomorphism": 0}


def test_enumeration_of_order_six_within_budget():
    def timed():
        t0 = time.perf_counter()
        enumerate_hyperfields(6)
        return time.perf_counter() - t0

    dt = min(timed() for _ in range(3))
    assert dt < 0.035, f"enumerate_hyperfields(6) took {dt:.3f}s, budget 0.035s"


def test_unit_automorphisms_are_the_group_automorphisms():
    sizes = {}
    for order in range(2, 10):
        for divisors, mul, _ in _unit_tables(order):
            auts = list(finite._unit_group_isos(mul, mul))
            assert auts == ref_unit_automorphisms(mul)
            sizes[divisors] = len(auts)
            assert auts[0] == tuple(range(order)) and auts == sorted(set(auts))
    assert sizes == {(): 1, (2,): 1, (3,): 2, (4,): 2, (2, 2): 6,
                     (5,): 4, (2, 3): 2, (7,): 6, (8,): 4, (2, 4): 8,
                     (2, 2, 2): 168}


def test_unit_group_isos_from_relabelled_groups():
    # With units 2 and 3 swapped, the first greedy generators of Z/2 x Z/4
    # are (0, 2) and (0, 1), whose square is the first: images that break
    # this relation can still give a bijection, which only the full
    # product check rejects.
    for order in range(4, 10):
        for _, mul, _ in _unit_tables(order):
            F = FiniteHyperfield(range(order), mul, [[(0,)] * order] * order)
            G = _transported(F, [0, 1, 3, 2, *range(4, order)])
            assert list(finite._unit_group_isos(G.mul, mul)) == \
                list(ref_unit_group_isos(G, F))


def test_automorphic_images_of_each_class_are_isomorphic_to_it():
    # the lemma behind the orbit rule, from the side find_isomorphism sees
    for order in (2, 3, 4, 5, 6):
        for H in enumerate_hyperfields(order):
            auts = list(finite._unit_group_isos(H.mul, H.mul))
            assert auts == list(ref_unit_group_isos(H, H))
            for s in auts:
                image = _transported(H, s)
                assert validate(image).ok
                assert find_isomorphism(image, H) is not None


def test_enumeration_respects_the_cap():
    with pytest.raises(ValueError):
        enumerate_hyperfields(7)
    with pytest.raises(ValueError):
        enumerate_hyperfields(1)


def test_enumeration_field_iff_singleton_cells():
    for order in (2, 3, 4):
        for F in enumerate_hyperfields(order):
            singleton = all(len(F.add_cell(x, y)) == 1
                            for x in range(order) for y in range(order))
            assert is_field(F) == singleton


def test_enumeration_superiorly_canonical_iff_field():
    for order in (2, 3, 4):
        for F in enumerate_hyperfields(order):
            c = classify(F)
            assert c.superiorly_canonical == c.is_field


def test_enumeration_charTGamma_predicates():
    K = build_K()
    for order in (2, 3, 4):
        for F in enumerate_hyperfields(order):
            c = classify(F)
            lhs = c.stringent and c.char2 and c.cchar1
            assert lhs == (find_isomorphism(F, K) is not None)
