"""Biquandle brackets: verification, state sums, the multiset invariant,
adequacy classification and the Homflypt-style skein coefficients.

A bracket over a ring R assigns units A[x][y], B[x][y] to each color pair
subject to three conditions:

  (i)   -A[x][x]^2 * B[x][x]^(-1) has a common value w for all x;
  (ii)  -A[x][y]^(-1)*B[x][y] - A[x][y]*B[x][y]^(-1) has a common value
        delta for all pairs;
  (iii) five product equations over all triples (x, y, z).

The five equations of (iii) are stated once, as the table of monomials
``TRIPLE_EQUATIONS``, and compiled once per biquandle into one table: an
identity lhs = rhs per equation and triple, nothing cancelled
(``_triple_table``).  ``check_tables`` sums both sides of every row and
reports each that fails.  ``compiled_triples`` reads the search's index
tuples over T = A + B + [delta, 1] off the same rows, with the common unit
factors of the binomials cancelled and identities and repeats dropped, and
``equations_hold`` checks those on plain ints.  Conditions (i)-(iii), the
adequacy chains and the pass-through condition have one body each
(``check_tables``, ``over_under_witnesses``, ``passthrough_witness``), run
on flat tables of raw ring values: plain ints over Z_n, reduced only when
compared, and the elements themselves over the Laurent ring.  The
pass-through condition is stated nowhere else: it is the identities
lhs = rhs that the eight pass-through trace moves compile to
(``passthrough_identities``, from ``trace``), checked in order until the
first one fails.  Every compiled
identity (type ``Identity``) indexes the base entries [*A, *B, delta, w],
which begin a bracket's raw vector, and one evaluator sums them all
(``_failures``, behind :func:`failing_identity` and ``check_tables``): on
[*A, *B, delta, w] of flat tables here, and on the raw vector in
``trace``.

The state sum of a colored diagram smooths every crossing both ways,
weights each state by its coefficients and by delta per resulting circle,
and corrects by w^(negative crossings - positive crossings).  Only the
colors depend on the coloring, so everything else is built once per
diagram and color count (``_crossings_plan``): the contraction plan of the
smoothings' joins (``diagram.plan_contraction``), each crossing's A and B
slots and the semiarcs whose colors pick its coefficient pair, and the
writhe exponent.  Per coloring the state sum reads two entries of the
bracket's raw vector (``BiquandleBracket.raw``) per crossing and runs the
plan on them.  That
vector is the one layout of a bracket's coefficients that the evaluators
read, here and in ``trace``: the base entries [*A, *B, delta, w] first,
then the inverses [*A^-1, *B^-1, w^-1].  :func:`raw_slot` is the one place
that knows where each entry sits in it.

A ``BiquandleBracket`` is never changed after construction, so
:func:`parse_bracket` is memoized by (text, biquandle): a bracket file is
parsed and verified once per process, and an error is never cached.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from typing import Iterable, List, Optional, Sequence, Tuple

from .biquandle import Biquandle, content_lines, parse_int
from .coloring import enumerate_colorings, positive_frame, validate_coloring
from .diagram import (SMOOTHING_JOINS, ContractionPlan, Crossing, OrientedDiagram,
                      plan_contraction, run_plan, writhe_counts)
from .rings import LaurentRing, ModRing


@dataclass(frozen=True)
class BracketViolation:
    condition: str            # "unit", "delta", "w", "triple1".."triple5"
    witness: Tuple[int, ...]  # 0-indexed elements involved
    lhs: object = None
    rhs: object = None

    def describe(self) -> str:
        w = ",".join(str(v + 1) for v in self.witness)
        if self.lhs is None:
            return f"{self.condition} fails at ({w})"
        relation = "is not a unit" if self.condition == "unit" else f"!= {self.rhs}"
        return f"{self.condition} fails at ({w}): {self.lhs} {relation}"


class BiquandleBracket:
    """A verified bracket, stored as raw values (see ``ring.raw``; over Z_n,
    ints in [0, n)): the flat tables ``A[x*n + y]`` and ``B[x*n + y]``
    (``raw_tables``), ``raw_delta`` and ``raw_w``.  These are what
    :func:`check_tables` reads and the search finds, so building one copies
    nothing.  The element views ``A``, ``B`` (rows of ring elements),
    ``delta`` and ``w``, and the evaluators' vector ``raw`` with its
    inverses, are built on first read.  Construct through
    :func:`verify_bracket`, unless the tables are known to pass."""

    def __init__(self, bq: Biquandle, ring, A, B, delta, w):
        self.bq = bq
        self.ring = ring
        self.raw_tables = (A, B)
        self.raw_delta = delta
        self.raw_w = w

    def _rows(self, flat) -> tuple:
        n, wrap = self.bq.n, self.ring.wrap
        return tuple(tuple(map(wrap, flat[x:x + n])) for x in range(0, n * n, n))

    # the element views: A and B as rows of ring elements, delta and w
    A = cached_property(lambda self: self._rows(self.raw_tables[0]))
    B = cached_property(lambda self: self._rows(self.raw_tables[1]))
    delta = cached_property(lambda self: self.ring.wrap(self.raw_delta))
    w = cached_property(lambda self: self.ring.wrap(self.raw_w))

    def a(self, x: int, y: int):
        return self.A[x][y]

    def delta_power(self, k: int):
        """delta^k as a raw value, powered in the ring, which over Z_n
        reduces it: the weight of k circles."""
        return self.ring.raw(self.delta ** k)

    def b(self, x: int, y: int):
        return self.B[x][y]

    @cached_property
    def raw(self) -> List[object]:
        """The raw values [A, B, delta, w, A^-1, B^-1, w^-1], each table
        flat at x*n + y; :func:`raw_slot` indexes it.  Its first 2n^2 + 2
        entries are the base entries [*A, *B, delta, w], which every
        compiled identity reads.  A list, whose bound ``__getitem__`` is
        quicker to call than a tuple's."""
        inv = self.ring.inv
        A, B = self.raw_tables
        return [*A, *B, self.raw_delta, self.raw_w, *map(inv, A), *map(inv, B), inv(self.raw_w)]

    def __repr__(self) -> str:
        return f"BiquandleBracket(n={self.bq.n}, ring={self.ring!r})"


def raw_slot(n: int, factor: str, sign: int = 1, pair: Tuple[int, int] = (0, 0)) -> int:
    """The index in :attr:`BiquandleBracket.raw`, for a bracket on n colors,
    of ``factor`` to the power ``sign``: "A" or "B" at the color pair
    ``pair``, "w", or "delta" (at sign 1 only)."""
    n2 = n * n
    if factor == "delta":
        return 2 * n2
    if factor == "w":
        return 2 * n2 + 1 if sign > 0 else 4 * n2 + 2
    return (0 if factor == "A" else n2) + (0 if sign > 0 else 2 * n2 + 2) + pair[0] * n + pair[1]


@dataclass
class BracketVerification:
    bracket: Optional[BiquandleBracket]
    violations: Tuple[BracketViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return self.bracket is not None


@lru_cache(maxsize=64)
def triple_slots(bq: Biquandle) -> Tuple[Tuple[Tuple[int, int, int], Tuple[int, ...]], ...]:
    """Every triple (x, y, z) with the flat indices (u*n + v) of the pairs
    the bracket conditions read there: (x,y), (y,z), (x^y,z_y) on the left
    of the triple equations, (x,z), (y_x,z_x), (x^z,y^z) on the right, and
    (y^x, z^x) for the over-adequacy chain.  Built once per biquandle."""
    U, O = bq.under, bq.over
    n = bq.n
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        out.append(((x, y, z), (x * n + y, y * n + z, U(x, y) * n + O(z, y),
                                x * n + z, O(y, x) * n + O(z, x), U(x, z) * n + U(y, z),
                                U(y, x) * n + U(z, x))))
    return tuple(out)


# Condition (iii): the five triple equations, stated once.  Each side is a
# sum of monomials.  A monomial is a word naming the table, A or B, read at
# each of its side's three slot roles from :func:`triple_slots` (l1 l2 l3
# on the left, r1 r2 r3 on the right); a leading "d" multiplies it by delta.
# :func:`_triple_table` compiles it, once per biquandle, and
# ``check_tables`` and :func:`compiled_triples` read that table.
TRIPLE_EQUATIONS = (
    ("triple1", ("AAA",), ("AAA",)),
    ("triple2", ("ABB",), ("BBA",)),
    ("triple3", ("BAB",), ("BAB",)),
    ("triple4", ("AAB",), ("ABA", "AAB", "dABB", "BBB")),
    ("triple5", ("BAA", "ABA", "dBBA", "BBB"), ("BAA",)),
)


@lru_cache(maxsize=64)
def _triple_table(bq: Biquandle) -> Tuple[Tuple[str, Tuple[int, int, int], Identity], ...]:
    """Condition (iii) at every triple, in the order of :func:`triple_slots`
    and of the statement: (tag, triple, identity), the identity over the
    base entries [*A, *B, delta, w] with the statement's sides in order,
    each a sorted tuple of sorted monomials, and nothing cancelled."""
    N = bq.n * bq.n

    def side(words, cells):
        return tuple(sorted(tuple(sorted([2 * N] * (word[0] == "d")
                                         + [N * "AB".index(t) + i
                                            for t, i in zip(word[-3:], cells)]))
                            for word in words))

    return tuple((tag, witness, (side(lhs, slots[:3]), side(rhs, slots[3:6])))
                 for witness, slots in triple_slots(bq) for tag, lhs, rhs in TRIPLE_EQUATIONS)


@lru_cache(maxsize=64)
def compiled_triples(bq: Biquandle) -> Tuple[Tuple[int, ...], ...]:
    """The triple equations of :func:`_triple_table`, compiled for the
    search over Z_n to index tuples over T = A + B + [delta, 1], as
    :func:`equations_hold` reads them (see :func:`_search_tuple`).  A
    binomial has the factors its sides share cancelled, which is sound only
    when every entry is a unit.  Identities and exact repeats, of either
    side order, are dropped."""
    first = {}
    for _tag, _witness, identity in _triple_table(bq):
        lhs, rhs = identity = _cancel_binomial(identity)
        if lhs != rhs:
            first.setdefault(tuple(sorted(identity)), identity)
    one = 2 * bq.n * bq.n + 1
    return tuple(_search_tuple(identity, one) for identity in first.values())


def _cancel_binomial(identity: Identity) -> Identity:
    """A binomial with the factors its two monomials share cancelled; any
    other identity as it is."""
    lhs, rhs = identity
    if len(lhs) != 1 or len(rhs) != 1:
        return identity
    common = Counter(lhs[0]) & Counter(rhs[0])
    return tuple((tuple(sorted((Counter(m) - common).elements())),) for (m,) in identity)


def _search_tuple(identity: Identity, one: int) -> Tuple[int, ...]:
    """A compiled triple equation as the tuple :func:`equations_hold`
    reads, ``one`` being the index of 1 in T.  A binomial becomes the
    6-tuple (a, b, c, x, y, z), T[a]T[b]T[c] = T[x]T[y]T[z], each side
    padded with ``one`` to three factors.  A four-term equation m = P
    becomes the 9-tuple (a, b, c, x1, y1, x2, y2, x3, y3),
    T[a]T[b]T[c] = T[x1](T[y2]T[x3] + T[x2]T[y3] + delta T[y2]T[y3]) + T[y1]T[y2]T[y3],
    read off P's monomials: the delta one gives x1, y2 and y3, the one that
    lacks x1 (all B) gives y1, and of the other two, the one with y2 gives
    x3 and the one with y3 gives x2."""
    lhs, rhs = identity
    if len(lhs) == len(rhs) == 1:
        return tuple(i for (m,) in identity for i in m + (one,) * (3 - len(m)))
    (m,), p = sorted(identity, key=len)
    [(x1, y2, y3, _delta)] = [t for t in p if len(t) == 4]
    [all_b] = [t for t in p if len(t) == 3 and x1 not in t]
    [y1] = (Counter(all_b) - Counter((y2, y3))).elements()
    # the other two are x1 T[a] T[y], sorted with the A entries first: as
    # (y, a), the one with y2 sorts first (y2 <= y3)
    (_, x3), (_, x2) = sorted((t[2], t[1] if t[0] == x1 else t[0])
                              for t in p if len(t) == 3 and x1 in t)
    return (*m, x1, y1, x2, y2, x3, y3)


def equations_hold(T, modulus: int, equations) -> bool:
    """Whether every compiled equation (see :func:`compiled_triples`) holds
    on the int vector T = A + B + [delta, 1] over Z_modulus."""
    for e in equations:
        if len(e) == 6:
            a, b, c, x, y, z = e
            if (T[a] * T[b] * T[c] - T[x] * T[y] * T[z]) % modulus:
                return False
        else:
            a, b, c, x1, y1, x2, y2, x3, y3 = e
            b2, b3 = T[y2], T[y3]
            if (T[a] * T[b] * T[c] - T[x1] * (b2 * T[x3] + T[x2] * b3 + T[-2] * b2 * b3)
                    - T[y1] * b2 * b3) % modulus:
                return False
    return True


def conditions_hold(ring: ModRing, A, B, equations) -> Optional[Tuple[int, int]]:
    """Conditions (i)-(iii) on flat int tables over Z_n, with the triple
    equations compiled (see :func:`compiled_triples`): (delta, w), reduced,
    if they hold, else None.  The units are checked first, which makes the
    compiled set's cancelled factors sound.  :func:`check_tables` says
    which condition fails."""
    m = ring.modulus
    if not all(map(ring.is_unit, itertools.chain(A, B))):
        return None
    # over units, delta = pair_delta(a, b) iff a^2 + delta*a*b + b^2 = 0, and
    # w = pair_w(a, b) iff a^2 + w*b = 0
    delta = pair_delta(ring, A[0], B[0]) % m
    if any((a * (a + delta * b) + b * b) % m for a, b in zip(A, B)):
        return None
    n = isqrt(len(A))
    w = pair_w(ring, A[0], B[0]) % m
    if any((A[i] * A[i] + w * B[i]) % m for i in range(n + 1, n * n, n + 1)):
        return None
    return (delta, w) if equations_hold([*A, *B, delta, 1], m, equations) else None


def pair_delta(ring, a, b):
    """-a^(-1)*b - a*b^(-1): condition (ii)'s value at one pair, with one
    inverse, as -(a^2 + b^2)*(a*b)^(-1)."""
    return -(a * a + b * b) * ring.inv(a * b)


def pair_w(ring, a, b):
    """-a^2*b^(-1): condition (i)'s value at one diagonal pair."""
    return -(a * a * ring.inv(b))


def check_tables(bq: Biquandle, ring, A, B):
    """Conditions (i)-(iii) on flat tables of raw ring values, A[x*n + y]
    (see ``ModRing.raw``), condition (iii) as the rows of
    :func:`_triple_table`.

    Returns (violations, delta, w), delta and w raw; the violations hold
    ring elements.  This is the one body behind :func:`verify_bracket`, and
    it names what failed when the search's compiled check
    (:func:`conditions_hold`) rejects a table.
    """
    n = bq.n
    same, wrap = ring.same, ring.wrap
    bad: List[BracketViolation] = []
    for i in range(n * n):
        for name, tab in (("A", A), ("B", B)):
            if not ring.is_unit(tab[i]):
                bad.append(BracketViolation("unit", divmod(i, n), f"{name}={wrap(tab[i])}"))
    if bad:
        return bad, None, None

    delta = pair_delta(ring, A[0], B[0])
    for i in range(1, n * n):
        d = pair_delta(ring, A[i], B[i])
        if not same(d, delta):
            bad.append(BracketViolation("delta", divmod(i, n), wrap(d), wrap(delta)))

    w = pair_w(ring, A[0], B[0])
    for x in range(1, n):
        wx = pair_w(ring, A[x * (n + 1)], B[x * (n + 1)])
        if not same(wx, w):
            bad.append(BracketViolation("w", (x,), wrap(wx), wrap(w)))

    table = _triple_table(bq)
    for k, lhs, rhs in _failures((identity for _tag, _witness, identity in table),
                                 [*A, *B, delta, w], ring):
        tag, witness, _identity = table[k]
        bad.append(BracketViolation(tag, witness, wrap(lhs), wrap(rhs)))
    return bad, delta, w


def verify_bracket(bq: Biquandle, ring, A_table, B_table) -> BracketVerification:
    """Check bracket conditions on tables of ring elements; on success
    return the bracket, built from the flat raw tables that were checked
    and the reduced delta and w, otherwise collect violations with
    witnesses."""
    n = bq.n
    if len(A_table) != n or len(B_table) != n or any(len(r) != n for r in [*A_table, *B_table]):
        raise ValueError(f"coefficient tables must be {n}x{n}")
    A, B = ([ring.raw(e) for row in table for e in row] for table in (A_table, B_table))
    bad, delta, w = check_tables(bq, ring, A, B)
    if bad:
        return BracketVerification(None, tuple(bad))
    delta, w = (ring.raw(ring.wrap(v)) for v in (delta, w))      # reduced
    return BracketVerification(BiquandleBracket(bq, ring, A, B, delta, w))


def make_bracket(bq: Biquandle, ring, A_table, B_table) -> BiquandleBracket:
    """verify_bracket, raising on failure."""
    v = verify_bracket(bq, ring, A_table, B_table)
    if not v.ok:
        raise ValueError("not a biquandle bracket: "
                         + "; ".join(viol.describe() for viol in v.violations[:5]))
    assert v.bracket is not None
    return v.bracket


def constant_bracket(ring, a, b) -> BiquandleBracket:
    """The bracket with constant coefficients on the one-element biquandle."""
    from .biquandle import trivial_biquandle
    return make_bracket(trivial_biquandle(1), ring, [[a]], [[b]])


def generic_laurent_bracket() -> BiquandleBracket:
    """Symbolic constant bracket: A and B free unit variables."""
    ring = LaurentRing()
    return constant_bracket(ring, ring.gen_a(), ring.gen_b())


def coefficient_pair(sign: int, u_in: int, o_in: int, o_out: int,
                     u_out: int) -> Tuple[int, int]:
    """The color pair indexing the coefficients of a crossing colored
    (u_in, o_in, o_out, u_out): the (a, c) of its
    :func:`~tracebracket.coloring.positive_frame`.

    At a kink the coloring rules make this pair diagonal, (x, x), and
    condition (i) fixes -A[x][x]^2 B[x][x]^(-1) = w on diagonal pairs only,
    so this is the pair at which the w correction cancels a kink.
    """
    a, _, c, _ = positive_frame(sign, u_in, o_in, o_out, u_out)
    return a, c


def crossing_coefficient_pair(c: Crossing, coloring: Sequence[int]) -> Tuple[int, int]:
    """The color pair indexing this crossing's coefficients; see
    :func:`coefficient_pair`."""
    return coefficient_pair(c.sign, coloring[c.u_in - 1], coloring[c.o_in - 1],
                            coloring[c.o_out - 1], coloring[c.u_out - 1])


@lru_cache(maxsize=8)
def _crossings_plan(crossings: Tuple[Crossing, ...], n: int
                    ) -> Tuple[ContractionPlan, Tuple[Tuple[int, int, int, int], ...], int]:
    """What a diagram's state sum on n colors reads that no coloring
    changes: the contraction plan of its crossings; per crossing, the raw
    slots of its A and B at the color pair (0, 0) and the 0-based semiarcs
    (a, c) of its :func:`~tracebracket.coloring.positive_frame`, whose
    colors x, y put the coefficients x*n + y slots further on; and the
    writhe exponent, negative minus positive crossings."""
    plan = plan_contraction([[joins(c) for joins in SMOOTHING_JOINS.values()]
                             for c in crossings])
    slots = []
    for c in crossings:
        a, _, cc, _ = positive_frame(c.sign, c.u_in, c.o_in, c.o_out, c.u_out)
        slots.append((raw_slot(n, "A", c.sign), raw_slot(n, "B", c.sign), a - 1, cc - 1))
    p, neg = writhe_counts(OrientedDiagram(crossings))
    return plan, tuple(slots), neg - p


def state_sum(d: OrientedDiagram, coloring: Sequence[int], beta: BiquandleBracket):
    """The state sum of one colored diagram: the diagram's contraction plan
    run on the raw coefficients of this coloring."""
    if not validate_coloring(d, beta.bq, coloring):
        raise ValueError("coloring is not valid for this diagram and biquandle")
    n, raw = beta.bq.n, beta.raw
    plan, slots, writhe = _crossings_plan(d.crossings, n)
    coefficients = []
    for a_slot, b_slot, a, c in slots:
        pair = coloring[a] * n + coloring[c]
        coefficients.append((raw[a_slot + pair], raw[b_slot + pair]))
    total = run_plan(plan, coefficients, beta.delta_power(d.free_loops),
                     raw[raw_slot(n, "delta")])[frozenset()]
    # w^writhe as w or w^-1 to the power |writhe|
    return beta.ring.wrap(raw[raw_slot(n, "w", writhe)] ** abs(writhe) * total)


@dataclass
class InvariantResult:
    """Multiset of per-coloring state sums plus its u-polynomial form."""
    multiset: Counter
    ring: object

    def sorted_items(self):
        return sorted(self.multiset.items(), key=lambda kv: _element_sort_key(kv[0]))

    def multiset_str(self) -> str:
        inner = ", ".join(f"{value}:{mult}" for value, mult in self.sorted_items())
        return "{" + inner + "}"

    def polynomial_str(self) -> str:
        terms = []
        for value, mult in self.sorted_items():
            coeff = "" if mult == 1 else str(mult)
            if isinstance(self.ring, ModRing):
                e = value.value
                if e == 0:
                    terms.append(str(mult))
                elif e == 1:
                    terms.append(f"{coeff}u")
                else:
                    terms.append(f"{coeff}u^{e}")
            else:
                terms.append(f"{coeff}u^({value})")
        return " + ".join(terms) if terms else "0"

    def total_multiplicity(self) -> int:
        return sum(self.multiset.values())


def _element_sort_key(value):
    if hasattr(value, "value"):
        return (0, value.value)
    return (1, str(value))


def bracket_invariant(d: OrientedDiagram, bq: Biquandle, beta: BiquandleBracket) -> InvariantResult:
    """State sums over every coloring, as a multiset."""
    if beta.bq != bq:
        raise ValueError("bracket is defined over a different biquandle")
    counts: Counter = Counter()
    for coloring in enumerate_colorings(d, bq):
        counts[state_sum(d, coloring, beta)] += 1
    return InvariantResult(counts, beta.ring)


@dataclass(frozen=True)
class AdequacyClass:
    """Where each adequacy condition first fails, None where it holds: a
    triple for the over and under chains, an identity of
    :func:`passthrough_identities` for pass-through."""
    over_witness: Optional[Tuple[int, ...]]
    under_witness: Optional[Tuple[int, ...]]
    passthrough_witness: Optional[Identity]

    over_adequate = property(lambda self: self.over_witness is None)
    under_adequate = property(lambda self: self.under_witness is None)
    passthrough = property(lambda self: self.passthrough_witness is None)
    adequate = property(lambda self: self.over_adequate and self.under_adequate)

    def label(self) -> str:
        return ("neither", "under", "over", "adequate")[
            2 * (self.over_witness is None) + (self.under_witness is None)]


def classify_adequacy(beta: BiquandleBracket) -> AdequacyClass:
    """Check the over- and under-adequacy chains for all triples and the
    pass-through condition, on the bracket's flat raw tables."""
    bq, ring, (A, B) = beta.bq, beta.ring, beta.raw_tables
    return AdequacyClass(*over_under_witnesses(ring, A, B, triple_slots(bq)),
                         passthrough_witness(bq, ring, A, B))


def over_under_witnesses(ring, A, B, triples):
    """The first triples at which the over- and the under-adequacy chains
    fail on flat raw tables, each None if its chain holds everywhere.

    Both sides of every chain equation have the same degree in (A, B), so
    scaling both tables by a unit keeps the verdicts and the witnesses.
    """
    same = ring.same
    over_witness = under_witness = None
    for witness, (l1, l2, l3, r1, r2, r3, u) in triples:
        # over:  A[y,z] = A[y^x,z^x] and A[y,z]B[x^y,z_y] = B[x,z]A[y_x,z_x]
        #        = A[x,z]B[y_x,z_x] = B[y,z]A[x^y,z_y]
        # under: A[y,z] = A[y_x,z_x] and A[x,y]B[x^y,z_y] = B[x,z]A[x^z,y^z]
        #        = A[x,z]B[x^z,y^z] = B[x,y]A[x^y,z_y]
        if over_witness is None:
            c = A[l2] * B[l3]
            if not (same(A[l2], A[u]) and same(B[r1] * A[r2], c)
                    and same(A[r1] * B[r2], c) and same(B[l2] * A[l3], c)):
                over_witness = witness
        if under_witness is None:
            c = A[l1] * B[l3]
            if not (same(A[l2], A[r2]) and same(B[r1] * A[r3], c)
                    and same(A[r1] * B[r3], c) and same(B[l1] * A[l3], c)):
                under_witness = witness
        if over_witness is not None and under_witness is not None:
            break
    return over_witness, under_witness


# one identity lhs = rhs: each side a sorted tuple of monomials, each
# monomial a sorted tuple of indices into the base entries [*A, *B, delta, w]
# of a bracket, which begin its raw vector
Identity = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]


def _failures(identities: Iterable[Identity], values: Sequence, ring):
    """Yield (k, lhs, rhs) for each identity, the k-th, whose two sides sum
    to different values lhs and rhs, each monomial the product of
    ``values`` at its indices.  ``values`` holds raw ring values and begins
    with the base entries: a bracket's raw vector, or [*A, *B, delta, w] of
    flat tables."""
    one = values[0] ** 0                        # 1 as a raw value
    zero, same = one - one, ring.same
    # every compiled monomial has one to four factors, which a plain loop
    # multiplies faster than prod(map(...)) does
    for k, (lhs, rhs) in enumerate(identities):
        left = right = zero
        for m in lhs:
            term = one
            for i in m:
                term *= values[i]
            left += term
        for m in rhs:
            term = one
            for i in m:
                term *= values[i]
            right += term
        if not same(left, right):
            yield k, left, right


def failing_identity(identities: Sequence[Identity], values: Sequence,
                     ring) -> Optional[Identity]:
    """The first identity whose two sides sum to different values on
    ``values`` (see :func:`_failures`), or None."""
    for k, _lhs, _rhs in _failures(identities, values, ring):
        return identities[k]
    return None


@lru_cache(maxsize=64)
def passthrough_identities(bq: Biquandle) -> Tuple[Identity, ...]:
    """The pass-through condition: the identities that the eight
    pass-through trace moves compile to on this biquandle (the ``trace``
    family table "through").  Scaling (A, B) by a unit l sends w to l*w and
    scales both sides of every identity alike, so the verdict and the
    witness are constant on a scaling orbit."""
    from .trace import _family_table    # trace imports this module
    return _family_table(bq.under_table, bq.over_table, "through")


def passthrough_witness(bq: Biquandle, ring, A, B) -> Optional[Identity]:
    """The first identity of :func:`passthrough_identities` that fails on
    flat raw tables, w and delta read off conditions (i) and (ii) at the
    pair (0, 0), or None."""
    values = [*A, *B, pair_delta(ring, A[0], B[0]), pair_w(ring, A[0], B[0])]
    return failing_identity(passthrough_identities(bq), values, ring)


def identity_text(n: int, identity: Identity) -> str:
    """An identity over [*A, *B, delta, w] of tables on n colors as text,
    with 1-based entries: ``A[1,2] A[2,1] B[1,2] B[2,1] = w^4``."""
    names = [f"{t}[{x + 1},{y + 1}]" for t in "AB" for x in range(n) for y in range(n)]
    names += ["delta", "w"]
    return " = ".join(" + ".join(" ".join(f if k == 1 else f"{f}^{k}"
                                          for f, k in Counter(names[i] for i in m).items())
                                 or "1" for m in side) or "0" for side in identity)


def homflypt_coefficients(beta: BiquandleBracket, x: int):
    """Skein coefficients (c_switch, c_smooth) at a crossing whose
    coefficient pair is (x, x).

    Derived by eliminating the two smoothing terms between the expansions of
    the positive and negative crossing, using w = -A[x][x]^2 B[x][x]^(-1):

        [L+] = c_switch*[L-] + c_smooth*[L0]
        c_switch = A^(-4) B^4,   c_smooth = A^(-3) B^3 - A^(-1) B.

    On trace diagrams L0 is L+ with the crossing replaced by an A trace,
    which keeps the crossing's weight w^(-1); its term there is
    c_smooth*w = A - A^(-1) B^2 (see ``trace.skein_identity_check``).
    """
    a, b = beta.a(x, x), beta.b(x, x)
    c_switch = a ** (-4) * b ** 4
    c_smooth = a ** (-3) * b ** 3 - a.inverse() * b
    return c_switch, c_smooth


# ---------------------------------------------------------------------------
# bracket file format
# ---------------------------------------------------------------------------

def parse_bracket_tables(text: str, bq: Biquandle):
    """Parse ``ring mod <n>`` or ``ring laurent`` followed by the [A|B] rows
    into (ring, A, B), without checking the bracket conditions."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty bracket file")
    (first, head), rows = lines[0], lines[1:]
    words = head.split()
    if words == ["ring", "laurent"]:
        ring = LaurentRing()
    elif len(words) == 3 and words[:2] == ["ring", "mod"]:
        try:
            ring = ModRing(parse_int(words[2]))
        except ValueError as e:
            raise ValueError(f"line {first}: bad modulus {words[2]!r}: {e}") from None
    else:
        raise ValueError("bracket file must start with 'ring mod <n>' or 'ring laurent', "
                         f"got {head!r}")
    n = bq.n
    if len(rows) != n:
        raise ValueError(f"expected {n} coefficient rows, found {len(rows)}")
    A, B = [], []
    for i, ln in rows:
        entries = ln.split()
        if len(entries) != 2 * n:
            raise ValueError(f"line {i}: expected {2 * n} entries, found {len(entries)}")
        try:
            values = [ring.parse(e) for e in entries]
        except ValueError as err:
            raise ValueError(f"line {i}: {err}") from None
        A.append(values[:n])
        B.append(values[n:])
    return ring, A, B


@lru_cache(maxsize=64)
def parse_bracket(text: str, bq: Biquandle) -> BiquandleBracket:
    """Parse a bracket file (see :func:`parse_bracket_tables`) and verify it."""
    return make_bracket(bq, *parse_bracket_tables(text, bq))


def serialize_bracket(beta: BiquandleBracket) -> str:
    ring = beta.ring
    head = f"ring mod {ring.modulus}" if isinstance(ring, ModRing) else "ring laurent"
    n, (A, B) = beta.bq.n, beta.raw_tables
    rows = (" ".join(map(str, [*A[x:x + n], *B[x:x + n]])) for x in range(0, n * n, n))
    return "\n".join([head, *rows]) + "\n"
