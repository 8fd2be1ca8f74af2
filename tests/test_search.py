import pytest

from tracebracket.biquandle import trivial_biquandle
from tracebracket.bracket import classify_adequacy, verify_bracket
from tracebracket.rings import ModRing
from tracebracket.search import (bracket_key, brute_force_brackets,
                                 search_brackets)


def keys(iterable):
    return {bracket_key(b) for b in iterable}


def test_search_matches_brute_force_one_element():
    bq = trivial_biquandle(1)
    for n in (3, 5, 7):
        found = keys(b for b, _ in search_brackets(bq, n))
        assert found == keys(brute_force_brackets(bq, n))


def test_one_element_search_is_all_unit_pairs():
    # every unit pair (A, B) defines a bracket on the one-element biquandle
    bq = trivial_biquandle(1)
    found = keys(b for b, _ in search_brackets(bq, 3))
    assert found == {(((a,),), ((b,),)) for a in (1, 2) for b in (1, 2)}


def test_search_matches_brute_force_two_element(bq2):
    found = keys(b for b, _ in search_brackets(bq2, 3))
    assert found == keys(brute_force_brackets(bq2, 3))


def test_quadratic_root_pruning_identity():
    # for every unit pair, B solves B^2 + delta*A*B + A^2 = 0 with the
    # delta that pair defines
    for n in range(2, 12):
        ring = ModRing(n)
        for a in ring.units():
            for b in ring.units():
                delta = -(a.inverse() * b) - (a * b.inverse())
                assert b * b + delta * a * b + a * a == ring.zero()


def test_every_emitted_bracket_verifies(bq2):
    for beta, cls in search_brackets(bq2, 5, limit=50):
        check = verify_bracket(beta.bq, beta.ring, beta.A, beta.B)
        assert check.ok
        again = classify_adequacy(beta)
        assert (again.over_adequate, again.under_adequate) == \
               (cls.over_adequate, cls.under_adequate)


def test_search_finds_bundled_z7_bracket(bq2):
    target = (((1, 6), (4, 1)), ((2, 5), (1, 2)))
    assert target in keys(b for b, _ in search_brackets(bq2, 7))


def test_search_deterministic_order(bq2):
    first = [bracket_key(b) for b, _ in search_brackets(bq2, 5, limit=10)]
    second = [bracket_key(b) for b, _ in search_brackets(bq2, 5, limit=10)]
    assert first == second


def test_search_lexicographic_emission(bq2):
    rows = [(b.delta.value,
             tuple(e.value for row in b.A for e in row),
             tuple(e.value for row in b.B for e in row))
            for b, _ in search_brackets(bq2, 5)]
    assert rows == sorted(rows)


def test_classification_filter(bq2):
    all_results = list(search_brackets(bq2, 5))
    adequate = list(search_brackets(bq2, 5, classification="adequate"))
    assert len(adequate) <= len(all_results)
    assert all(cls.label() == "adequate" for _, cls in adequate)
    assert (len([1 for _, c in all_results if c.label() == "adequate"])
            == len(adequate))


def test_limit(bq2):
    assert len(list(search_brackets(bq2, 7, limit=5))) == 5
    for limit in (0, -1):
        assert list(search_brackets(bq2, 7, limit=limit)) == []


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_brackets(trivial_biquandle(3), 7, cap=1000)
