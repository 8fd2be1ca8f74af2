"""Biquandle brackets: verification, state sums, the multiset invariant,
adequacy classification and the Homflypt-style skein coefficients.

A bracket over a ring R assigns units A[x][y], B[x][y] to each color pair
subject to three conditions:

  (i)   -A[x][x]^2 * B[x][x]^(-1) has a common value w for all x;
  (ii)  -A[x][y]^(-1)*B[x][y] - A[x][y]*B[x][y]^(-1) has a common value
        delta for all pairs;
  (iii) five product equations over all triples (x, y, z), spelled out in
        ``_triple_equations`` below.

Conditions (i)-(iii) and the adequacy chains have one body each
(``check_tables``, ``classify_tables``), run on flat tables of raw ring
values: plain ints over Z_n, reduced only when compared, and the elements
themselves over the Laurent ring.

The state sum of a colored diagram smooths every crossing both ways,
weights each state by its coefficients and by delta per resulting circle,
and corrects by w^(negative crossings - positive crossings).
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .biquandle import Biquandle
from .coloring import enumerate_colorings, positive_frame, validate_coloring
from .diagram import (SMOOTHINGS, Crossing, OrientedDiagram, contract, state_pairings,
                      writhe_counts)
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
        return f"{self.condition} fails at ({w}): {self.lhs} != {self.rhs}"


class BiquandleBracket:
    """A verified bracket; construct through :func:`verify_bracket`."""

    def __init__(self, bq: Biquandle, ring, A, B, delta, w):
        self.bq = bq
        self.ring = ring
        self.A = tuple(tuple(row) for row in A)
        self.B = tuple(tuple(row) for row in B)
        self.delta = delta
        self.w = w

    def a(self, x: int, y: int):
        return self.A[x][y]

    def b(self, x: int, y: int):
        return self.B[x][y]

    def __repr__(self) -> str:
        return f"BiquandleBracket(n={self.bq.n}, ring={self.ring!r})"


@dataclass
class BracketVerification:
    bracket: Optional[BiquandleBracket]
    violations: Tuple[BracketViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return self.bracket is not None


def triple_slots(bq: Biquandle) -> Tuple[Tuple[Tuple[int, int, int], Tuple[int, ...]], ...]:
    """Every triple (x, y, z) with the flat indices (u*n + v) of the pairs
    the bracket conditions read there: (x,y), (y,z), (x^y,z_y) on the left
    of the triple equations, (x,z), (y_x,z_x), (x^z,y^z) on the right, and
    (y^x, z^x) for the over-adequacy chain."""
    U, O = bq.under, bq.over
    n = bq.n
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        out.append(((x, y, z), (x * n + y, y * n + z, U(x, y) * n + O(z, y),
                                x * n + z, O(y, x) * n + O(z, x), U(x, z) * n + U(y, z),
                                U(y, x) * n + U(z, x))))
    return tuple(out)


def _triple_equations(A, B, delta, slots):
    """The five equations at one triple over flat tables, ``slots`` being
    its index tuple from :func:`triple_slots`; yields (tag, lhs, rhs)."""
    l1, l2, l3, r1, r2, r3 = slots[:6]
    yield ("triple1",
           A[l1] * A[l2] * A[l3],
           A[r1] * A[r2] * A[r3])
    yield ("triple2",
           A[l1] * B[l2] * B[l3],
           B[r1] * B[r2] * A[r3])
    yield ("triple3",
           B[l1] * A[l2] * B[l3],
           B[r1] * A[r2] * B[r3])
    yield ("triple4",
           A[l1] * A[l2] * B[l3],
           A[r1] * B[r2] * A[r3]
           + A[r1] * A[r2] * B[r3]
           + delta * A[r1] * B[r2] * B[r3]
           + B[r1] * B[r2] * B[r3])
    yield ("triple5",
           B[l1] * A[l2] * A[l3]
           + A[l1] * B[l2] * A[l3]
           + delta * B[l1] * B[l2] * A[l3]
           + B[l1] * B[l2] * B[l3],
           B[r1] * A[r2] * A[r3])


def pair_delta(ring, a, b):
    """-a^(-1)*b - a*b^(-1): condition (ii)'s value at one pair."""
    return -(ring.inv(a) * b) - a * ring.inv(b)


def pair_w(ring, a, b):
    """-a^2*b^(-1): condition (i)'s value at one diagonal pair."""
    return -(a * a * ring.inv(b))


def check_tables(bq: Biquandle, ring, A, B, triples):
    """Conditions (i)-(iii) on flat tables of raw ring values, A[x*n + y]
    (see ``ModRing.raw``), with ``triples`` from :func:`triple_slots`.

    Returns (violations, delta, w), delta and w raw; the violations hold
    ring elements.  This is the one body behind :func:`verify_bracket` and
    the bracket search.
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

    for witness, slots in triples:
        for tag, lhs, rhs in _triple_equations(A, B, delta, slots):
            if not same(lhs, rhs):
                bad.append(BracketViolation(tag, witness, wrap(lhs), wrap(rhs)))
    return bad, delta, w


def verify_bracket(bq: Biquandle, ring, A_table, B_table) -> BracketVerification:
    """Check bracket conditions; on success return the bracket with cached
    delta and w, otherwise collect violations with witnesses."""
    n = bq.n
    A = [list(row) for row in A_table]
    B = [list(row) for row in B_table]
    if len(A) != n or len(B) != n or any(len(r) != n for r in A + B):
        raise ValueError(f"coefficient tables must be {n}x{n}")
    bad, delta, w = check_tables(bq, ring, [ring.raw(e) for row in A for e in row],
                                 [ring.raw(e) for row in B for e in row], triple_slots(bq))
    if bad:
        return BracketVerification(None, tuple(bad))
    return BracketVerification(BiquandleBracket(bq, ring, A, B, ring.wrap(delta), ring.wrap(w)))


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


def smoothing_coefficient(beta: BiquandleBracket, sign: int, pair: Tuple[int, int],
                          choice: str):
    """A[x][y] or B[x][y] at the pair (x, y), inverted at a negative crossing."""
    x, y = pair
    coeff = beta.a(x, y) if choice == "A" else beta.b(x, y)
    return coeff if sign > 0 else coeff.inverse()


def crossing_coefficient(beta: BiquandleBracket, c: Crossing,
                         coloring: Sequence[int], choice: str):
    return smoothing_coefficient(beta, c.sign, crossing_coefficient_pair(c, coloring), choice)


def state_sum(d: OrientedDiagram, coloring: Sequence[int], beta: BiquandleBracket):
    """The state sum of one colored diagram, contracted crossing by crossing."""
    if not validate_coloring(d, beta.bq, coloring):
        raise ValueError("coloring is not valid for this diagram and biquandle")
    nodes = [[(crossing_coefficient(beta, c, coloring, choice), state_pairings(c, choice))
              for choice in SMOOTHINGS] for c in d.crossings]
    total = contract(nodes, beta.ring.one(), beta.delta)[frozenset()]
    p, neg = writhe_counts(d)
    return beta.w ** (neg - p) * beta.delta ** d.free_loops * total


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
    over_adequate: bool
    under_adequate: bool
    passthrough: bool
    over_witness: Optional[Tuple[int, ...]] = None
    under_witness: Optional[Tuple[int, ...]] = None
    passthrough_witness: Optional[Tuple[int, ...]] = None

    @property
    def adequate(self) -> bool:
        return self.over_adequate and self.under_adequate

    def label(self) -> str:
        if self.adequate:
            return "adequate"
        if self.over_adequate:
            return "over"
        if self.under_adequate:
            return "under"
        return "neither"


def classify_adequacy(beta: BiquandleBracket) -> AdequacyClass:
    """Check the over-, under- and pass-through conditions for all triples."""
    raw = beta.ring.raw
    return classify_tables(beta.bq, beta.ring, [raw(e) for row in beta.A for e in row],
                           [raw(e) for row in beta.B for e in row], triple_slots(beta.bq))


def classify_tables(bq: Biquandle, ring, A, B, triples) -> AdequacyClass:
    """:func:`classify_adequacy` on flat raw tables, as in :func:`check_tables`."""
    same = ring.same
    over_witness = under_witness = pass_witness = None
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

    n = bq.n
    one = ring.raw(ring.one())
    for x in range(n):
        xx, yy = x * (n + 1), bq.diag(x) * (n + 1)
        if not (same(A[xx] ** 2 * B[yy] ** 2, one) and same(A[yy] ** 2 * B[xx] ** 2, one)):
            pass_witness = (x, bq.diag(x))
            break

    return AdequacyClass(over_adequate=over_witness is None,
                         under_adequate=under_witness is None,
                         passthrough=pass_witness is None,
                         over_witness=over_witness,
                         under_witness=under_witness,
                         passthrough_witness=pass_witness)


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
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty bracket file")
    head = lines[0].split()
    if head == ["ring", "laurent"]:
        ring = LaurentRing()
    elif len(head) == 3 and head[:2] == ["ring", "mod"]:
        try:
            ring = ModRing(int(head[2]))
        except ValueError as e:
            raise ValueError(f"line 1: bad modulus {head[2]!r}: {e}") from None
    else:
        raise ValueError("bracket file must start with 'ring mod <n>' or 'ring laurent', "
                         f"got {lines[0]!r}")
    n = bq.n
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} coefficient rows, found {len(lines) - 1}")
    A, B = [], []
    for i, ln in enumerate(lines[1:], start=2):
        entries = ln.split()
        if len(entries) != 2 * n:
            raise ValueError(f"line {i}: expected {2 * n} entries, found {len(entries)}")
        A.append([ring.parse(e) for e in entries[:n]])
        B.append([ring.parse(e) for e in entries[n:]])
    return ring, A, B


def parse_bracket(text: str, bq: Biquandle) -> BiquandleBracket:
    """Parse a bracket file (see :func:`parse_bracket_tables`) and verify it."""
    return make_bracket(bq, *parse_bracket_tables(text, bq))


def serialize_bracket(beta: BiquandleBracket) -> str:
    ring = beta.ring
    head = f"ring mod {ring.modulus}" if isinstance(ring, ModRing) else "ring laurent"
    lines = [head]
    for x in range(beta.bq.n):
        row = [str(beta.A[x][y]) for y in range(beta.bq.n)]
        row += [str(beta.B[x][y]) for y in range(beta.bq.n)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"
