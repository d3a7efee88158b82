"""Finite hyperfields: tables, axioms, quotients, morphisms, enumeration."""

import json

import pytest

from hyperfields.finite import (FiniteHyperfield, MalformedTableError,
                                Morphism, build_K, build_S, build_W,
                                build_finite_field, classify,
                                enumerate_hyperfields, find_isomorphism,
                                is_embedding, is_field, is_homomorphism,
                                is_hyperideal, is_isomorphism,
                                list_hyperideals, non_quotient_certificate,
                                quotient_hyperfield, quotient_search,
                                scalar_hyperideal, squares_subgroup,
                                subgroup_closure, validate)
from hyperfields.valuation import FiniteBackend, check_superiorly_canonical


def _cells(F):
    return {(x, y): frozenset(F.add_cell(x, y))
            for x in range(F.size) for y in range(F.size)}


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
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


def test_validate_skips_ch4_when_inverses_are_missing():
    # 1 has no additive inverse at all
    add = [[(0,), (1,)], [(1,), (1,)]]
    broken = FiniteHyperfield(["0", "1"], [[0, 0], [0, 1]], add)
    rep = validate(broken)
    assert not rep.ok
    assert not rep.check("CH3").passed
    assert rep.skipped  # CH4 is skipped rather than crashing on neg()


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


# -- morphisms -------------------------------------------------------------------

def test_sign_map_is_hom_but_not_embedding():
    m = Morphism(build_S(), build_W(), (0, 1, 2))
    assert is_homomorphism(m)
    assert not is_embedding(m)  # sigma(1+1) = {1} but (1+1) cap Im = {1,-1}


def test_reverse_sign_map_is_not_a_hom():
    assert not is_homomorphism(Morphism(build_W(), build_S(), (0, 1, 2)))


def test_field_collapse_onto_K_is_a_hom():
    F = build_finite_field(5)
    m = Morphism(F, build_K(), (0, 1, 1, 1, 1))
    assert is_homomorphism(m)
    assert not is_embedding(m)


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


def test_scalar_hyperideal_detects_multivalued_differences():
    for F in (build_S(), build_K(), build_W()):
        assert scalar_hyperideal(F) == frozenset({0})
    F7 = build_finite_field(7)
    assert scalar_hyperideal(F7) == frozenset(range(7))


# -- quotient recognition ------------------------------------------------------------

def test_non_quotient_certificate_is_none_on_known_quotients():
    for F in (build_K(), build_S(), build_W(), build_finite_field(2),
              build_finite_field(7)):
        assert non_quotient_certificate(F) is None


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
    for order in (2, 3, 4):
        found = enumerate_hyperfields(order)
        for i, F in enumerate(found):
            assert validate(F).ok
            for G in found[:i]:
                assert find_isomorphism(F, G) is None


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
            # the generic checker is the reference for the bitmask one
            assert c.superiorly_canonical == \
                check_superiorly_canonical(FiniteBackend(F)).ok


def test_enumeration_charTGamma_predicates():
    K = build_K()
    for order in (2, 3, 4):
        for F in enumerate_hyperfields(order):
            c = classify(F)
            lhs = c.stringent and c.char2 and c.cchar1
            assert lhs == (find_isomorphism(F, K) is not None)
