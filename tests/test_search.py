import functools
import hashlib
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebracket import bracket as brmod
from tracebracket import fixture_text, parse_biquandle
from tracebracket import search as searchmod
from tracebracket.biquandle import biquandle_from_spec, trivial_biquandle
from tracebracket.bracket import (TRIPLE_EQUATIONS, BiquandleBracket, check_tables,
                                  classify_adequacy, compiled_triples, conditions_hold,
                                  equations_hold, parse_bracket, passthrough_witness,
                                  serialize_bracket, triple_slots, verify_bracket)
from tracebracket.rings import LaurentRing, ModRing
from tracebracket.search import (bracket_key, brute_force_brackets,
                                 search_brackets)


def keys(iterable):
    return {bracket_key(b) for b in iterable}


def test_search_matches_brute_force_one_element():
    bq = trivial_biquandle(1)
    # Z8 and Z12 have non-cyclic unit groups, Z9 a cyclic one of order 6
    for n in (3, 5, 7, 8, 9, 12):
        found = keys(b for b, _ in search_brackets(bq, n))
        assert found == keys(brute_force_brackets(bq, n))


def test_one_element_search_is_all_unit_pairs():
    # every unit pair (A, B) defines a bracket on the one-element biquandle
    bq = trivial_biquandle(1)
    found = keys(b for b, _ in search_brackets(bq, 3))
    assert found == {(((a,),), ((b,),)) for a in (1, 2) for b in (1, 2)}


def test_search_matches_brute_force_two_element(bq2):
    for bq, n in ((bq2, 3), (bq2, 4), (trivial_biquandle(2), 4)):
        found = keys(b for b, _ in search_brackets(bq, n))
        assert found == keys(brute_force_brackets(bq, n))


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


def test_invalid_modulus_raises_whatever_the_limit(bq2):
    for modulus in (0, -3, 1):
        for limit in (None, 0, 3):
            with pytest.raises(ValueError, match="^modulus must be at least 2$"):
                list(search_brackets(bq2, modulus, limit=limit))


def test_unknown_classification_raises():
    bq = trivial_biquandle(2)
    assert len(list(search_brackets(bq, 5, "adequate"))) == 256
    for limit in (None, 0):
        with pytest.raises(ValueError, match="^unknown classification 'adequat': expected "
                                             "one of adequate, over, under, neither, any$"):
            list(search_brackets(bq, 5, "adequat", limit))


@pytest.mark.parametrize("spec, n", [("bq2", 7), ("bq3", 4)])
def test_members_equal_their_verified_twins(request, spec, n):
    """A member built from the search's int tables is the bracket that
    verify_bracket builds from its element rows: the same element views,
    raw vector, key and file text, and the text parses back to it."""
    bq = request.getfixturevalue(spec)
    for beta, _cls in search_brackets(bq, n):
        twin = verify_bracket(bq, beta.ring, beta.A, beta.B).bracket
        for b in (twin, parse_bracket(serialize_bracket(beta), bq)):
            assert (b.A, b.B, b.delta, b.w) == (beta.A, beta.B, beta.delta, beta.w)
            assert b.raw == beta.raw and bracket_key(b) == bracket_key(beta)
            assert serialize_bracket(b) == serialize_bracket(beta)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_brackets(trivial_biquandle(3), 7, cap=1000)


# Emitted count and sha256 of the ordered bracket_key list, and of the list
# of (key, class label, passthrough), as the search gave them when it still
# walked every member of each scaling orbit (bq3/Z3: when it still placed the
# diagonal slots first).  Hashing the ordered lists pins the emission order,
# not just the set.  The bq2/Z8 set (Z8 has a non-cyclic unit group) equals
# brute_force_brackets(bq2, 8), which takes seconds to enumerate.  The class
# digests of bq2/Z7 and bq3/Z5 were re-pinned when the pass-through condition
# became the compiled tangle table, which changed only their flags.
PINNED_SEARCHES = [
    ("bq3", 3, 32, "d57851cbc82394c2bf1e37a39c9bbcd0c369c8afa81aec4af32d6f28e3fce50c",
     "e7159117e266c4d94041cbd123638577f86af594be89f71376ded5450d10e8a3"),
    ("bq2", 8, 512, "f5a123f074a549f57bd313b3f3853f94d1f126b38f60914500d477c0cb81d833",
     "8683617b57261cb36b117e4dff2305ca14d482b7e624f4b75453fa8eadaf09c1"),
    ("bq2", 7, 1296, "5aa6182136924909f44d0d579b4f395478d1d9ddef1f1fadb1fce2aefbc2e6b7",
     "1964e2c0e9862215bb3edc9570a1a33aa293fdb9969e15c1f4b40b8db4e889a6"),
    ("bq3", 4, 256, "b5988f5b644ec6b5046a4ab5fe755feb282cb173e6ce39e9c1417c683d76db1b",
     "8644f444c827ce301fb42f8867830f8a9ce4b187319923fcbb94c39d2fe8b60b"),
    ("a312", 5, 256, "42a6a10ee812f9c56fcf5fc0cf2f7cc6f321c6bb1bea1b55fc55ef4babe7e811",
     "9fd4460b0a3f97ab34d5859a56d9e3ef411b4540c9e1895877ea8d049ab214f0"),
    ("bq3", 5, 3072, "8d34bcab36b653b2f983c16de6e5204a9834eab3d49f1dcb122ed1c3d04c144f",
     "ac2bb6e60eaeefd0e50f2b11a71a47b52c780e703c7dd984a6cf793d7eab3667"),
]


def _sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("spec, n, count, key_sha, class_sha", PINNED_SEARCHES,
                         ids=[f"{spec}-Z{n}" for spec, n, *_ in PINNED_SEARCHES])
def test_search_output_pinned(request, spec, n, count, key_sha, class_sha):
    bq = request.getfixturevalue(spec)
    results = list(search_brackets(bq, n))
    assert len(results) == count
    assert _sha([bracket_key(b) for b, _ in results]) == key_sha
    assert _sha([(bracket_key(b), c.label(), c.passthrough) for b, c in results]) == class_sha


@pytest.mark.parametrize("spec, n", [("bq2", 7), ("bq2", 8), ("bq3", 4), ("a312", 5)])
def test_search_output_is_whole_scaling_orbits(request, spec, n):
    bq = request.getfixturevalue(spec)
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    found = keys(b for b, _ in search_brackets(bq, n))
    orbits = set()
    for A, B in found:
        orbit = frozenset((tuple(tuple(lam * v % n for v in row) for row in A),
                           tuple(tuple(lam * v % n for v in row) for row in B))
                          for lam in units)
        assert len(orbit) == len(units)
        assert orbit <= found
        orbits.add(orbit)
    assert len(found) == len(orbits) * len(units)


@pytest.mark.parametrize("spec, n", [(spec, n) for spec, n, *_ in PINNED_SEARCHES],
                         ids=[f"{spec}-Z{n}" for spec, n, *_ in PINNED_SEARCHES])
def test_every_orbit_member_verifies_and_classifies(request, spec, n):
    """The search checks and classifies one member per scaling orbit; every
    member it emits must still be a bracket with the emitted delta and w,
    and carry the class, witnesses included, that classify_adequacy gives."""
    bq = request.getfixturevalue(spec)
    for beta, cls in search_brackets(bq, n):
        check = verify_bracket(bq, beta.ring, beta.A, beta.B)
        assert check.ok
        assert (check.bracket.delta, check.bracket.w) == (beta.delta, beta.w)
        assert classify_adequacy(beta) == cls


@functools.cache
def _scaling_case(spec: str, modulus: int):
    """(biquandle, units, flat raw tables of every bracket)."""
    bq = parse_biquandle(fixture_text(f"{spec}.txt"))
    brackets = [tuple([e.value for row in table for e in row] for table in (b.A, b.B))
                for b, _ in search_brackets(bq, modulus)]
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    return bq, units, brackets


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_unit_scaling_keeps_verdicts(data):
    """Scaling (A, B) by a unit l keeps every violation of the bracket
    conditions (delta's values fixed, w's times l, the triple equations'
    times l^3), sends w to l*w and keeps the over/under and pass-through
    verdicts and witnesses.  Tables are random units, or a bracket with a
    few entries redrawn, so that violations and witnesses fall at varied
    triples."""
    spec, modulus = data.draw(st.sampled_from([("bq2", 7), ("bq3", 5)]))
    bq, units, brackets = _scaling_case(spec, modulus)
    ring, cells, unit = ModRing(modulus), bq.n * bq.n, st.sampled_from(units)
    if data.draw(st.booleans()):
        A, B = (list(t) for t in data.draw(st.sampled_from(brackets)))
        for _ in range(data.draw(st.integers(0, 3))):
            data.draw(st.sampled_from((A, B)))[data.draw(st.integers(0, cells - 1))] = \
                data.draw(unit)
    else:
        A, B = (data.draw(st.lists(unit, min_size=cells, max_size=cells)) for _ in "AB")
    lam = data.draw(unit)
    A_l, B_l = [lam * a % modulus for a in A], [lam * b % modulus for b in B]

    bad, delta, w = check_tables(bq, ring, A, B)
    bad_l, delta_l, w_l = check_tables(bq, ring, A_l, B_l)
    assert [(v.condition, v.witness) for v in bad_l] == [(v.condition, v.witness) for v in bad]
    for v, v_l in zip(bad, bad_l):
        factor = ring.element(lam) ** {"delta": 0, "w": 1}.get(v.condition, 3)
        assert (v_l.lhs, v_l.rhs) == (v.lhs * factor, v.rhs * factor)
    assert ring.same(delta_l, delta) and ring.same(w_l, lam * w)

    # the tables need not be a bracket: classify_adequacy reads only them
    cls, cls_l = (classify_adequacy(BiquandleBracket(bq, ring, *t))
                  for t in ((A, B, delta, w), (A_l, B_l, delta_l, w_l)))
    assert (cls_l.over_witness, cls_l.under_witness) == (cls.over_witness, cls.under_witness)
    assert (cls_l.over_adequate, cls_l.under_adequate) == (cls.over_adequate,
                                                           cls.under_adequate)
    assert cls_l.passthrough == cls.passthrough
    assert passthrough_witness(bq, ring, A_l, B_l) == cls.passthrough_witness


def test_unsound_pruning_raises(bq2, monkeypatch):
    # Dropping any single triple leaves the pruning sound on the shipped
    # biquandles, since the triple equations overlap, so drop every triple
    # checked at the last slot.
    ready_at = searchmod._ready_at
    monkeypatch.setattr(searchmod, "_ready_at",
                        lambda triples, slots: ready_at(triples, slots)[:-1] + [[]])
    with pytest.raises(RuntimeError, match=r"A=\[\[1, 1\], \[1, 1\]\] "
                                           r"B=\[\[2, 2\], \[3, 2\]\] over Z5: triple3 fails"):
        list(search_brackets(bq2, 5))


def test_failing_table_violations(bq2):
    ring = ModRing(7)
    A = [[ring.element(v) for v in row] for row in ((1, 6), (4, 1))]
    B = [[ring.element(v) for v in row] for row in ((2, 5), (1, 3))]
    check = verify_bracket(bq2, ring, A, B)
    assert [v.describe() for v in check.violations] == [
        "delta fails at (2,2): 6 != 1", "w fails at (2): 2 != 3",
        "triple4 fails at (1,1,1): 3 != 5", "triple5 fails at (1,1,1): 6 != 2",
        "triple3 fails at (1,1,2): 5 != 4", "triple2 fails at (1,2,1): 4 != 5",
        "triple3 fails at (1,2,1): 4 != 5", "triple4 fails at (1,2,1): 2 != 6",
        "triple5 fails at (1,2,1): 4 != 6", "triple2 fails at (1,2,2): 4 != 5",
        "triple2 fails at (2,1,1): 5 != 4", "triple2 fails at (2,1,2): 5 != 4",
        "triple3 fails at (2,1,2): 5 != 4", "triple4 fails at (2,1,2): 6 != 4",
        "triple5 fails at (2,1,2): 6 != 2", "triple3 fails at (2,2,1): 4 != 5",
        "triple4 fails at (2,2,2): 2 != 6", "triple5 fails at (2,2,2): 5 != 3"]


def test_failing_laurent_table_violations(bq2):
    # (A, B) -> (B, A) at the pair (1,2) keeps delta and w, and breaks
    # triple equations on both sides: each violation reads lhs != rhs
    ring = LaurentRing()
    A = [[ring.parse(v) for v in row] for row in (("A", "B"), ("A", "A"))]
    B = [[ring.parse(v) for v in row] for row in (("B", "A"), ("B", "B"))]
    check = verify_bracket(bq2, ring, A, B)
    assert [v.describe() for v in check.violations] == [
        "triple3 fails at (1,1,2): B^3 != A^2*B",
        "triple4 fails at (1,1,2): A*B^2 != 2*A*B^2 - A^-1*B^4",
        "triple5 fails at (1,1,2): A*B^2 != A^3", "triple2 fails at (1,2,1): B^3 != A^2*B",
        "triple3 fails at (1,2,1): A^2*B != B^3", "triple2 fails at (1,2,2): B^3 != A^2*B",
        "triple4 fails at (1,2,2): A*B^2 != 2*A*B^2 - A^-1*B^4",
        "triple5 fails at (1,2,2): A*B^2 != A^3", "triple2 fails at (2,1,1): A^2*B != B^3",
        "triple4 fails at (2,1,1): A^3 != A*B^2",
        "triple5 fails at (2,1,1): 2*A*B^2 - A^-1*B^4 != A*B^2",
        "triple2 fails at (2,1,2): A^2*B != B^3", "triple3 fails at (2,1,2): B^3 != A^2*B",
        "triple3 fails at (2,2,1): A^2*B != B^3", "triple4 fails at (2,2,1): A^3 != A*B^2",
        "triple5 fails at (2,2,1): 2*A*B^2 - A^-1*B^4 != A*B^2"]


@pytest.mark.parametrize("spec", ["bq2", "bq3", "a312"])
def test_slot_order_is_greedy(request, spec):
    # each slot placed completes at least as many triples as any slot left
    bq = request.getfixturevalue(spec)
    triples = triple_slots(bq)
    order = searchmod._slot_order(bq.n, triples)
    assert sorted(order) == list(range(bq.n * bq.n))

    def completes(placed, i):
        return sum(1 for _w, slots in triples
                   if i in slots[:6] and set(slots[:6]) <= placed | {i})

    for k, slot in enumerate(order):
        placed = set(order[:k])
        assert all(completes(placed, slot) >= completes(placed, other)
                   for other in order[k + 1:])


# (biquandle, modulus of the searched brackets the compiled checks are run on)
COMPILED_CASES = [("bq1", 7), ("bq2", 7), ("bq3", 4), ("alexander(3,1,2)", 5),
                  ("alexander(5,2,3)", 3), ("trivial(2)", 5), ("trivial(3)", 3)]


def _spec_biquandle(spec: str):
    return biquandle_from_spec(spec) or parse_biquandle(fixture_text(f"{spec}.txt"))


def _lowered(bq):
    """Per row of the triple table, (identity, key, equation): the key is
    the identity with the binomials' common factors cancelled and its sides
    sorted, and the equation its search tuple, None where the cancelled
    identity is trivial."""
    one = 2 * bq.n * bq.n + 1
    rows = []
    for _tag, _witness, identity in brmod._triple_table(bq):
        lhs, rhs = cancelled = brmod._cancel_binomial(identity)
        rows.append((identity, tuple(sorted(cancelled)),
                     None if lhs == rhs else brmod._search_tuple(cancelled, one)))
    return rows


def _keyed(bq):
    """The first search tuple of each key that is not trivial, by key."""
    keyed = {}
    for _identity, key, equation in _lowered(bq):
        if equation is not None:
            keyed.setdefault(key, equation)
    return keyed


# per biquandle: how many triple equations compile, and the sha256 of the
# repr of their keys (see _lowered), in order.  The keys are the equations
# as polynomials, so these digests change with the statement, the table,
# the cancelling or the order, and not with the search tuples' layout.
COMPILED_KEYS = {
    "bq1": (1, "5d99f99d93632145d909d9371c7c7dc67dc7687798a87c4a54a42bddb18ad920"),
    "bq2": (11, "eb18b6dace0189861b5243cb29aa5ff1268c314ef90fc895a08b999db1f72f9a"),
    "bq3": (63, "904b2060c2b4fdf0ca9fad4bb5e1fc539ec9e3fbffe14ee79748dc63b07f679f"),
    "alexander(3,1,2)": (85, "daf7fa29d1390d0bdc51268854fc6e272ad9c1e7daf4aa91d00c71f46730b00f"),
    "alexander(5,2,3)": (539, "ee9694ae0b59b87a43c85d3ee54d831a74f71ba7c8196b8d8e1a21d360c93858"),
    "trivial(2)": (8, "ae66c0f3de0f3c0a6e65ad625c790f924d003871780549939d91cfdd4d3ffe0a"),
    "trivial(3)": (27, "00786895640fcd58ce0f93d6e4df07dfe809c21b11efdecbcc37d2e09b0a8653"),
}


@pytest.mark.parametrize("spec", [spec for spec, _n in COMPILED_CASES])
def test_compiled_triples_are_the_statement(spec):
    """The triple table holds each equation of the statement at each triple,
    in order, over the base entries [*A, *B, delta]; compiled_triples is
    its rows lowered, with the trivial ones and the repeats (of either side
    order) dropped, in the order their keys first occur."""
    bq = _spec_biquandle(spec)
    N = bq.n * bq.n
    rows = brmod._triple_table(bq)
    assert [(tag, witness) for tag, witness, _ in rows] == [
        (tag, witness) for witness, _slots in triple_slots(bq) for tag, *_ in TRIPLE_EQUATIONS]
    assert all(i <= 2 * N for _, _, identity in rows for side in identity
               for m in side for i in m)
    keyed = _keyed(bq)
    assert list(keyed.values()) == list(compiled_triples(bq))
    digest = hashlib.sha256(repr(list(keyed)).encode()).hexdigest()
    assert (len(keyed), digest) == COMPILED_KEYS[spec]


@pytest.mark.parametrize("spec", [spec for spec, _n in COMPILED_CASES])
def test_compiled_equations_hold_where_the_statement_does(spec):
    """On seeded random units over Z7 and over the case's modulus, delta any
    residue, each row of the triple table, uncancelled, holds under the one
    identity evaluator exactly where its search tuple passes
    equations_hold; a row dropped as trivial holds everywhere.  So the
    cancelled binomials and the 9-tuples read off the four-term rows
    evaluate the statement."""
    bq = _spec_biquandle(spec)
    N = bq.n * bq.n
    rng = random.Random(spec)
    outcomes = Counter()
    for m in sorted({7, dict(COMPILED_CASES)[spec]}):
        ring = ModRing(m)
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        for identity, _key, equation in _lowered(bq):
            for _ in range(12):
                A, B = ([rng.choice(units) for _ in range(N)] for _table in "AB")
                delta, w = rng.randrange(m), rng.choice(units)      # no triple reads w
                holds = brmod.failing_identity([identity], [*A, *B, delta, w], ring) is None
                assert holds == (equation is None
                                 or equations_hold([*A, *B, delta, 1], m, [equation]))
                outcomes[equation is None, holds] += 1
    assert outcomes[False, True] and outcomes[False, False]


@pytest.mark.parametrize("spec, modulus", [("bq2", 7), ("bq3", 4), ("bq3", 5)])
def test_compiled_triples_are_identities_over_the_base_entries(spec, modulus):
    """The base entries [*A, *B, delta, w] begin a bracket's raw vector,
    and the one identity evaluator agrees with equations_hold on each
    compiled triple equation and its cancelled identity, equation by
    equation: on every searched bracket, and on seeded random unit tables
    with delta any residue."""
    bq = _spec_biquandle(spec)
    n, N = bq.n, bq.n * bq.n
    base = [brmod.raw_slot(n, t, 1, divmod(i, n)) for t in "AB" for i in range(N)]
    assert base + [brmod.raw_slot(n, "delta"), brmod.raw_slot(n, "w")] == list(range(2 * N + 2))
    keyed = _keyed(bq)
    ring = ModRing(modulus)
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    rng = random.Random(f"{spec}/Z{modulus}")
    tables = [(*beta.raw_tables, beta.raw_delta) for beta, _cls in search_brackets(bq, modulus)]
    tables += [([rng.choice(units) for _ in range(N)], [rng.choice(units) for _ in range(N)],
                rng.randrange(modulus)) for _ in range(1000)]
    for A, B, delta in tables:
        values = [*A, *B, delta, rng.choice(units)]      # no triple reads w
        T = [*A, *B, delta, 1]
        for key, equation in keyed.items():
            assert ((brmod.failing_identity([key], values, ring) is None)
                    == equations_hold(T, modulus, [equation]))


@functools.cache
def _compiled_case(spec: str, modulus: int):
    """(biquandle, units, delta -> unit pairs, flat tables of every bracket)."""
    bq = _spec_biquandle(spec)
    ring = ModRing(modulus)
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    brackets = [tuple([e.value for row in table for e in row] for table in (b.A, b.B))
                for b, _ in search_brackets(bq, modulus)]
    return bq, units, searchmod._delta_candidates(ring, units), brackets


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_conditions_agree_with_check_tables(data):
    """``conditions_hold`` passes a table exactly when ``check_tables``
    reports nothing, with the same delta and w.  Tables are random units,
    or a searched bracket with a few entries redrawn, or a few pairs
    redrawn among those with its delta, so that the triple equations decide."""
    spec, modulus = data.draw(st.sampled_from(COMPILED_CASES))
    bq, units, by_delta, brackets = _compiled_case(spec, modulus)
    ring, cells, unit = ModRing(modulus), bq.n * bq.n, st.sampled_from(units)
    how = data.draw(st.sampled_from(["units", "entries", "pairs"]))
    if how == "units":
        A, B = (data.draw(st.lists(unit, min_size=cells, max_size=cells)) for _ in "AB")
    else:
        A, B = (list(t) for t in data.draw(st.sampled_from(brackets)))
        delta = brmod.pair_delta(ring, A[0], B[0]) % modulus
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, cells - 1))
            if how == "entries":
                data.draw(st.sampled_from((A, B)))[i] = data.draw(unit)
            else:
                A[i], B[i] = data.draw(st.sampled_from(by_delta[delta]))
    bad, delta, w = check_tables(bq, ring, A, B)
    verdict = conditions_hold(ring, A, B, compiled_triples(bq))
    assert (verdict is not None) == (not bad)
    if verdict is not None:
        assert verdict == (delta % modulus, w % modulus)
