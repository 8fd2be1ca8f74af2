from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracebracket.rings import (LaurentRing, ModRing, NotAUnitError,
                                RingMismatchError, hermite_normal_form, parse_laurent)

m7 = ModRing(7)
m3 = ModRing(3)
m6 = ModRing(6)
L = LaurentRing()


def test_mod_basic():
    assert (m7.element(3) * m7.element(5)).value == 1
    assert ((-m3.element(1)) * (-m3.element(1))).value == 1
    assert (m7.element(3) + m7.element(5)).value == 1
    assert (m7.element(3) - m7.element(5)).value == 5


def test_mod_inverse_and_powers():
    assert m7.element(3).inverse().value == 5
    assert (m7.element(3) ** -2).value == 4          # 3^-1 = 5, 5^2 = 25 = 4
    assert (m7.element(4) * m7.element(9 % 7)).value == 1
    assert (m7.element(5) ** 0).value == 1
    with pytest.raises(NotAUnitError):
        m6.element(3).inverse()
    with pytest.raises(NotAUnitError):
        m6.element(3) ** -1


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        m7.element(1) + m3.element(1)


def test_laurent_identity_and_units():
    e = L.monomial(2, -1, -1)           # -A^2*B^-1
    assert e * L.one() == e
    assert e.inverse() == L.monomial(-2, 1, -1)
    assert e ** -3 == L.monomial(-6, 3, -1)
    assert (e ** 0) == L.one()
    assert not (L.monomial(1, 0) + L.monomial(0, 1)).is_unit()
    with pytest.raises(NotAUnitError):
        (L.monomial(1, 0) + L.monomial(0, 1)).inverse()


def test_laurent_cancellation():
    e = L.monomial(3, -2, 5) + L.monomial(0, 1, -2)
    assert (e + (-e)).terms == {}
    assert e - e == L.zero()


def test_laurent_printing():
    val = (L.monomial(-1, 1, -1) + L.monomial(-3, 3, -1)
           + L.monomial(-5, 5, -1) + L.monomial(-9, 9, 1))
    assert str(val) == "-A^-1*B - A^-3*B^3 - A^-5*B^5 + A^-9*B^9"
    delta = -(L.gen_a().inverse() * L.gen_b()) - (L.gen_a() * L.gen_b().inverse())
    assert str(delta) == "-A*B^-1 - A^-1*B"
    assert str(L.zero()) == "0"
    assert str(L.constant(-3)) == "-3"
    assert str(L.monomial(2, 0, 4)) == "4*A^2"


def test_laurent_parse_round_trip():
    for text in ["A", "B", "-A^2*B^-1", "1", "-1", "A^-1", "3", "-A*B"]:
        e = parse_laurent(L, text)
        assert parse_laurent(L, str(e)) == e
    assert parse_laurent(L, "-A^2*B^-1") == L.monomial(2, -1, -1)
    with pytest.raises(ValueError):
        parse_laurent(L, "C^2")


mod_elems = st.integers(min_value=0, max_value=6).map(m7.element)
laurent_elems = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-5, 5), max_size=4).map(L.element)


@given(mod_elems, mod_elems, mod_elems)
def test_mod_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + m7.zero() == a
    assert a * m7.one() == a


@given(laurent_elems, laurent_elems, laurent_elems)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + L.zero() == a
    assert a * L.one() == a


@given(st.integers(1, 6))
def test_mod7_unit_inverse(v):
    e = m7.element(v)
    assert (e * e.inverse()) == m7.one()


def test_not_a_unit_exactly_when_gcd():
    for n in (4, 6, 9, 12):
        ring = ModRing(n)
        from math import gcd
        for v in range(n):
            e = ring.element(v)
            if gcd(v, n) == 1:
                assert e.inverse() * e == ring.one()
            else:
                with pytest.raises(NotAUnitError):
                    e.inverse()


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_mod_raw_values_agree_with_elements(a, b):
    # the raw-int view of Z_n computes what the elements compute
    for ring in (m6, m7):
        x, y = ring.element(a), ring.element(b)
        assert ring.raw(x) == x.value and ring.wrap(a) == x
        assert ring.same(a * b - a, ring.raw(x * y - x))
        assert ring.same(a, b) == (x == y)
        assert ring.is_unit(ring.raw(x)) == x.is_unit()
        if x.is_unit():
            assert ring.wrap(ring.inv(ring.raw(x))) == x.inverse()


def test_laurent_raw_values_are_elements():
    a = L.parse("-A^2*B^-1")
    assert L.raw(a) is a and L.wrap(a) is a
    assert L.same(L.inv(a) * a, L.one()) and not L.same(a, -a)
    assert L.is_unit(a) and not L.is_unit(L.constant(2))


def test_hermite_normal_form_worked_examples():
    # 2 and 3 in one column give their gcd; the entry above a pivot is
    # reduced into [0, pivot); zero and repeated rows drop out
    assert hermite_normal_form([[2, 5], [3, 1]]) == [[1, 9], [0, 13]]
    assert hermite_normal_form([[0, 0, 0], [1, 2, 3], [2, 4, 6]]) == [[1, 2, 3]]
    assert hermite_normal_form([[1, 7], [0, 3]]) == [[1, 1], [0, 3]]
    # a lattice of index 2 is not the whole plane, as it is over Q
    assert hermite_normal_form([[1, 1], [1, -1]]) == [[1, 1], [0, 2]]
    assert hermite_normal_form([[-4, 0], [0, -6]]) == [[4, 0], [0, 6]]
    assert hermite_normal_form([]) == []


def _rational_rank(rows):
    rows, rank = [[Fraction(e) for e in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(rank + 1, len(rows)):
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
    return rank


ROWS = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), max_size=7))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows=ROWS, data=st.data())
def test_hermite_normal_form_is_the_lattices_one_reduced_basis(rows, data):
    basis = hermite_normal_form(rows)
    # echelon with positive pivots, each entry above a pivot in [0, pivot)
    pivots = [next(j for j, e in enumerate(row) if e) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(basis, pivots)):
        assert row[col] > 0 and all(0 <= upper[col] < row[col] for upper in basis[:i])
    # as many rows as the rank, and the same lattice: every row is an
    # integer combination of the basis, and the basis of the union is itself
    assert len(basis) == _rational_rank(rows)
    assert hermite_normal_form(rows + basis) == basis == hermite_normal_form(basis)
    # a unimodular change of the rows (reorder, add a multiple of one to
    # another, negate) keeps the form
    if len(rows) >= 2:
        changed = data.draw(st.permutations(rows))
        k = data.draw(st.integers(-3, 3))
        changed[0] = [a + k * b for a, b in zip(changed[0], changed[1])]
        changed[1] = [-b for b in changed[1]]
        assert hermite_normal_form(changed) == basis
    # doubling a row changes the lattice unless another row makes up for it
    if rows and any(rows[0]) and _rational_rank(rows[1:]) < _rational_rank(rows):
        assert hermite_normal_form([[2 * e for e in rows[0]]] + rows[1:]) != basis


def _reference_product(p, q):
    """The product of two term dicts by the double loop, cancelled terms
    dropped."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


monomials = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
one_terms = st.builds(lambda m, c: L.monomial(*m, c), monomials,
                      st.integers(-3, 3).filter(bool))


@given(one_terms, laurent_elems)
def test_laurent_one_term_products_and_powers_match_the_double_loop(m, e):
    # a one-term operand shifts exponents, on either side
    assert (m * e).terms == _reference_product(m.terms, e.terms) == (e * m).terms
    power = {(0, 0): 1}
    for k in range(7):
        assert (m ** k).terms == power
        power = _reference_product(power, m.terms)
    if m.is_unit():
        (i, j), c = next(iter(m.terms.items()))
        power = {(0, 0): 1}
        for k in range(7):
            # int coefficients: (-1) ** -k would be a float equal to them
            assert (m ** -k).terms == power
            assert all(type(v) is int for v in (m ** -k).terms.values())
            power = _reference_product(power, {(-i, -j): c})
    else:
        for k in range(1, 7):
            with pytest.raises(NotAUnitError):
                m ** -k


@given(laurent_elems, laurent_elems, laurent_elems)
def test_laurent_equal_elements_compare_and_hash_equal(a, b, c):
    # the same element by different operation orders, and from its terms in
    # another insertion order
    pairs = [((a + b) * c, c * b + a * c), (a - b + b, a), (a * b - c, -(c - b * a)),
             (a, L.element(dict(reversed(list(a.terms.items())))))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


@given(laurent_elems, laurent_elems, st.integers(0, 3))
def test_laurent_no_zero_coefficient_is_stored(a, b, k):
    A, B = L.gen_a(), L.gen_b()
    results = [(A + B) + (-A), (A + B) * (A - B), A * B - B * A, a + b, a - b, a * b,
               -a, a ** k, (a + b) * (a - b), a - a, (a - b) + (b - a)]
    if a.is_unit():
        results.append(a.inverse())
    for x in results:
        assert 0 not in x.terms.values()
    assert ((A + B) + (-A)).terms == {(0, 1): 1}


def test_laurent_element_copies_its_terms():
    d = {(1, 0): 2, (0, -1): 0}
    e = L.element(d)
    d[(1, 0)] = 5
    d[(3, 3)] = 1
    assert e.terms == {(1, 0): 2}


@given(laurent_elems, mod_elems)
def test_laurent_and_mod_operands_do_not_mix(a, m):
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(RingMismatchError):
            op(a, m)
        with pytest.raises(RingMismatchError):
            op(m, a)
    assert a != m and m != a
