"""Colored trace diagrams: the full state sum, crossingless evaluation,
the skein relation at a diagonal-pair crossing, magnetic parity, the
parity fast evaluator, and diagrammatic verification of the trace moves on
fixed three-strand tangles, each move compiled once per biquandle into
identities in the bracket's coefficient entries.

A trace diagram is a set of rows over edge labels, one row per node, with
the roles of ``diagram.Crossing``: (u_in, o_in, o_out, u_out).  Nodes are
crossings (kind ``x``), pass-through traces (kind ``a``) and sink/source
traces (kind ``b``).  Each node carries the sign and the color pair
indexing its coefficients, ``bracket.coefficient_pair`` (the convention is
``coloring.positive_frame``).  A trace stands where a crossing was smoothed
and keeps that crossing's sign, pair and edges, so smoothing a crossing
only changes its kind.

``_PASS`` pairs the roles of each node once the traces are deleted: a
crossing is walked through, an ``a`` trace continues the strand through
u_in into o_out (and o_in into u_out), and a ``b`` trace joins its two
inputs into a sink and its two outputs into a source.  Deleting a ``b``
trace leaves a cap and a cup, so its ends reverse orientation along the
curve; these are the vertices magnetic parity counts.

The full state sum runs on ``diagram.contract`` over the edge labels.  A
crossing offers both smoothings, each weighted by its coefficient and by
w^(-sign), the weight of the trace it leaves; a trace offers only its
pass-through pairing, weighted w^(-sign).  In an open tangle a boundary
edge is a label that only one node joins, so it stays open, and the value
is keyed by the pairing of the boundary labels.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from math import prod
from typing import Dict, Hashable, List, Sequence, Tuple

from .biquandle import Biquandle
from .bracket import (BiquandleBracket, coefficient_pair, crossing_coefficient_pair,
                      homflypt_coefficients, smoothing_coefficient)
from .coloring import _propagate, crossing_outputs, positive_frame, validate_coloring
from .diagram import (SMOOTHINGS, OrientedDiagram, contract, join_ends, switch_crossing,
                      validate_diagram)


class MultiComponentCrossingError(ValueError):
    """A crossing whose over- and under-passes lie on different components."""


class NotRIReducibleError(ValueError):
    """The trace-deleted diagram cannot be unknotted by kink removal alone."""


_ROLES = ("u_in", "o_in", "o_out", "u_out")
# pass-through pairing of each node kind after traces are deleted: a crossing
# is walked through, and a trace keeps the pairing of the smoothing it stands for
_PASS = {"x": (("u_in", "u_out"), ("o_in", "o_out")),
         "a": SMOOTHINGS["A"], "b": SMOOTHINGS["B"]}
# the role each role is paired with by _PASS
_PARTNER = {kind: {r: s for pair in pairs for r, s in (pair, pair[::-1])}
            for kind, pairs in _PASS.items()}


@dataclass(frozen=True)
class Node:
    kind: str                 # "x", "a", "b"
    sign: int                 # +1 / -1
    pair: Tuple[int, int]     # coefficient color pair (0-indexed)
    u_in: Hashable            # edge labels by crossing role
    o_in: Hashable
    o_out: Hashable
    u_out: Hashable

    def joins(self, pairs) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """The edge labels that a pairing of roles joins."""
        return tuple((getattr(self, r), getattr(self, s)) for r, s in pairs)


@dataclass(frozen=True)
class TraceDiagram:
    nodes: Dict[int, Node]
    free_circles: int = 0

    def crossings(self) -> List[int]:
        return sorted(i for i, n in self.nodes.items() if n.kind == "x")

    def traces(self) -> List[int]:
        return sorted(i for i, n in self.nodes.items() if n.kind != "x")

    @cached_property
    def ends(self) -> Dict[Hashable, List[Tuple[int, str]]]:
        """Each edge label -> the (node, role) slots it joins."""
        ends: Dict[Hashable, List[Tuple[int, str]]] = {}
        for nid, n in self.nodes.items():
            for role in _ROLES:
                ends.setdefault(getattr(n, role), []).append((nid, role))
        return ends


def from_colored_diagram(d: OrientedDiagram, bq: Biquandle,
                         coloring: Sequence[int]) -> TraceDiagram:
    """Build the trace diagram of a colored oriented diagram (no traces yet)."""
    report = validate_diagram(d)
    if not report.ok:
        raise ValueError("invalid diagram: " + "; ".join(report.problems))
    nodes = {i: Node("x", c.sign, crossing_coefficient_pair(c, coloring),
                     c.u_in, c.o_in, c.o_out, c.u_out)
             for i, c in enumerate(d.crossings)}
    return TraceDiagram(nodes, d.free_loops)


def replace_with_trace(td: TraceDiagram, cid: int, kind: str) -> TraceDiagram:
    """Smooth one crossing, leaving a trace of the given kind in its place."""
    node = td.nodes[cid]
    if node.kind != "x":
        raise ValueError(f"node {cid} is not a crossing")
    if kind not in SMOOTHINGS:
        raise ValueError("kind must be 'A' or 'B'")
    return TraceDiagram({**td.nodes, cid: replace(node, kind=kind.lower())}, td.free_circles)


def smooth_crossing(td: TraceDiagram, cid: int, kind: str, beta: BiquandleBracket):
    """Return (coefficient, smoothed diagram) for one crossing."""
    node = td.nodes[cid]
    coeff = smoothing_coefficient(beta, node.sign, node.pair, kind)
    return coeff, replace_with_trace(td, cid, kind)


def _node_choices(td: TraceDiagram, coefficient, w_trace) -> List[list]:
    """Each node's choices for ``diagram.contract``: a crossing offers both
    smoothings, weighted ``coefficient(sign, pair, kind) * w_trace(sign)``, and
    a trace only its pass-through pairing, weighted ``w_trace(sign)``."""
    nodes = []
    for node in td.nodes.values():
        w = w_trace(node.sign)
        if node.kind == "x":
            nodes.append([(coefficient(node.sign, node.pair, k) * w, node.joins(SMOOTHINGS[k]))
                          for k in SMOOTHINGS])
        else:
            nodes.append([(w, node.joins(_PASS[node.kind]))])
    return nodes


def _trace_state_sum(td: TraceDiagram, beta: BiquandleBracket) -> Dict[frozenset, object]:
    """``diagram.contract`` over every node of the trace diagram."""
    nodes = _node_choices(td, partial(smoothing_coefficient, beta), lambda sign: beta.w ** -sign)
    circles = beta.delta ** td.free_circles
    return {pairing: circles * value
            for pairing, value in contract(nodes, beta.ring.one(), beta.delta).items()}


def circles_trace_deleted(td: TraceDiagram) -> int:
    """Components of the curve system after deleting all traces.

    Crossings are walked through; trace nodes contribute their cap/cup or
    pass-through pairings, which is exactly what deletion leaves behind.
    """
    mate: Dict[Hashable, Hashable] = {}
    return td.free_circles + sum(join_ends(mate, a, b)
                                 for n in td.nodes.values()
                                 for a, b in n.joins(_PASS[n.kind]))


def evaluate_crossingless(td: TraceDiagram, beta: BiquandleBracket):
    """w^(n-p) * delta^k for a diagram with no crossings left."""
    if td.crossings():
        raise ValueError("diagram still has crossings")
    return _trace_state_sum(td, beta)[frozenset()]


def evaluate_recursive(td: TraceDiagram, beta: BiquandleBracket):
    """The full state sum of a closed trace diagram: both smoothings of
    every crossing, each leaving a trace of its kind."""
    return _trace_state_sum(td, beta)[frozenset()]


def skein_identity_check(d: OrientedDiagram, bq: Biquandle, beta: BiquandleBracket,
                         coloring: Sequence[int], index: int) -> bool:
    """Verify the skein relation at a crossing whose coefficient pair is
    diagonal, (x, x):

        E(L+) = c_switch E(L-) + c_smooth w E(L+ with the crossing an A trace)

    E is :func:`evaluate_recursive`, L+ and L- are the diagram with that
    crossing positive and negative under the same coloring, and (c_switch,
    c_smooth) = ``homflypt_coefficients(beta, x)``.  The A trace keeps the
    crossing's weight w^(-1), which the factor w cancels.  Switching the
    crossing keeps its pair (x, x), and a trace keeps every edge color, so
    nothing is renumbered.
    """
    x, y = crossing_coefficient_pair(d.crossings[index], coloring)
    if x != y:
        raise ValueError(f"crossing {index} reads the coefficient pair ({x + 1}, {y + 1}), "
                         "which is not diagonal")
    plus, minus = d, switch_crossing(d, index)
    if d.crossings[index].sign < 0:
        plus, minus = minus, plus
    if not (validate_coloring(plus, bq, coloring) and validate_coloring(minus, bq, coloring)):
        raise ValueError("coloring is not valid for this diagram and its switched crossing")
    td_plus = from_colored_diagram(plus, bq, coloring)
    smoothed = replace_with_trace(td_plus, index, "A")
    c_switch, c_smooth = homflypt_coefficients(beta, x)
    return (evaluate_recursive(td_plus, beta)
            == c_switch * evaluate_recursive(from_colored_diagram(minus, bq, coloring), beta)
            + c_smooth * beta.w * evaluate_recursive(smoothed, beta))


# ---------------------------------------------------------------------------
# magnetic parity and the parity evaluator
# ---------------------------------------------------------------------------

def magnetic_parity(td: TraceDiagram, cid: int) -> str:
    """'odd', 'even', or 'multi' for one crossing.

    Walks the trace-deleted curve out of the under-pass exit until it comes
    back to the crossing at its over-pass or its under-pass.  At each node
    the walk leaves by the role that ``_PASS`` pairs with the one it arrived
    at; a partner on the same side (a sink or a source) reverses the
    direction of travel, and these reversals are counted.
    """
    if td.nodes[cid].kind != "x":
        raise ValueError(f"node {cid} is not a crossing")
    count = 0
    here = (cid, "u_out")
    for _ in range(4 * len(td.nodes) + 4):
        first, second = td.ends[getattr(td.nodes[here[0]], here[1])]
        nid, role = second if first == here else first
        if nid == cid:
            if role.startswith("o"):
                return "odd" if count % 2 else "even"
            return "multi"              # back at the under-pass
        leave = _PARTNER[td.nodes[nid].kind][role]
        count += role.endswith("in") == leave.endswith("in")
        here = (nid, leave)
    raise RuntimeError("parity walk did not terminate")


def ri_reducible(td: TraceDiagram) -> bool:
    """Can the trace-deleted diagram be unknotted by kink removal alone?

    A kink is a crossing two of whose under/over slots are joined by an arc
    meeting no other crossing; removing it joins the two remaining slots.
    """
    # the arcs between crossing slots, through edges and trace nodes only
    mate: Dict[Hashable, Hashable] = {}
    for nid, n in td.nodes.items():
        if n.kind == "x":
            for role in _ROLES:
                join_ends(mate, (nid, role), getattr(n, role))
        else:
            for a, b in n.joins(_PASS[n.kind]):
                join_ends(mate, a, b)
    remaining = set(td.crossings())
    while remaining:
        kink = next(((cid, us, os_) for cid in sorted(remaining)
                     for us, os_ in itertools.product(("u_in", "u_out"), ("o_in", "o_out"))
                     if mate.get((cid, us)) == (cid, os_)), None)
        if kink is None:
            return False
        cid, us, os_ = kink
        other_u = "u_out" if us == "u_in" else "u_in"
        other_o = "o_out" if os_ == "o_in" else "o_in"
        join_ends(mate, (cid, other_u), (cid, other_o))
        remaining.discard(cid)
    return True


_PHI_TABLE = {
    # (sign > 0, parity) -> coefficient builder
    (True, "odd"): lambda a, b, d: a + d * b,
    (True, "even"): lambda a, b, d: d * a + b,
    (False, "odd"): lambda a, b, d: a.inverse() + d * b.inverse(),
    (False, "even"): lambda a, b, d: d * a.inverse() + b.inverse(),
}


def evaluate_by_parity(td: TraceDiagram, beta: BiquandleBracket):
    """delta^k * w^(n-p) * product of per-crossing parity weights.

    Requires every crossing to be single-component and the trace-deleted
    diagram to reduce to zero crossings by kink removal alone.
    """
    parities = {}
    for cid in td.crossings():
        par = magnetic_parity(td, cid)
        if par == "multi":
            raise MultiComponentCrossingError(f"crossing {cid} is multi-component")
        parities[cid] = par
    if not ri_reducible(td):
        raise NotRIReducibleError("trace-deleted diagram is not kink-reducible")

    k = circles_trace_deleted(td)
    neg = sum(1 for i, n in td.nodes.items() if n.sign < 0)
    pos = len(td.nodes) - neg
    value = beta.delta ** k * beta.w ** (neg - pos)
    for cid, par in parities.items():
        node = td.nodes[cid]
        x, y = node.pair
        phi = _PHI_TABLE[(node.sign > 0, par)](beta.a(x, y), beta.b(x, y), beta.delta)
        value = value * phi
    return value


def parity_applicable(td: TraceDiagram) -> bool:
    return (all(magnetic_parity(td, cid) != "multi" for cid in td.crossings())
            and ri_reducible(td))


def evaluate_recursive_parity(td: TraceDiagram, beta: BiquandleBracket):
    """Recursive expansion that stops early on parity-evaluable diagrams."""
    try:
        return evaluate_by_parity(td, beta)
    except (MultiComponentCrossingError, NotRIReducibleError):
        pass
    cid = td.crossings()[0]
    coeff_a, td_a = smooth_crossing(td, cid, "A", beta)
    coeff_b, td_b = smooth_crossing(td, cid, "B", beta)
    return (coeff_a * evaluate_recursive_parity(td_a, beta)
            + coeff_b * evaluate_recursive_parity(td_b, beta))


# ---------------------------------------------------------------------------
# open tangles and the trace moves
#
# The sixteen strand-past-a-trace moves and the eight monochromatic
# pass-through moves are verified on a fixed three-strand tangle: a crossing
# c0 between strands U and V (smoothed into the trace under test) and a
# strand S crossing two of the edges at c0.  Both sides of a move are
# contracted as OPEN tangles and compared boundary-resolved: each pairing of
# the six boundary wires carries the summed value of the states that induce
# it.  The two sides agree for every seeding of the three strand colors
# exactly when the bracket admits the move.  (Closing the tangle first would
# be useless for discrimination: any bracket with delta = 0 evaluates every
# closed diagram to zero.)  The sides are not expanded per bracket: each move
# is compiled once per biquandle into identities in the coefficient entries
# (see the compiled move checks below).
# ---------------------------------------------------------------------------

# One side of a trace move, as crossing rows (sign, u_in, o_in, o_out, u_out)
# over named wires; row 0 is c0.
Tangle = Tuple[Tuple[int, str, str, str, str], ...]


def _slide_tangles(s_over: bool, c0_sign: int, s_west: bool) -> Tuple[Tangle, Tangle]:
    s_sign = 1 if (s_over == s_west) else -1

    def sc(s_in, s_out, e_in, e_out):
        if s_over:
            return (s_sign, e_in, s_in, s_out, e_out)
        return (s_sign, s_in, e_in, e_out, s_out)

    if not s_west:
        before = ((c0_sign, "Uin", "Vin", "v1", "u1"),
                  sc("Sin", "s_mid", "v1", "Vout"),
                  sc("s_mid", "Sout", "u1", "Uout"))
        after = ((c0_sign, "u1", "v1", "Vout", "Uout"),
                 sc("Sin", "s_mid", "Uin", "u1"),
                 sc("s_mid", "Sout", "Vin", "v1"))
    else:
        before = ((c0_sign, "Uin", "Vin", "v1", "u1"),
                  sc("Sin", "s_mid", "u1", "Uout"),
                  sc("s_mid", "Sout", "v1", "Vout"))
        after = ((c0_sign, "u1", "v1", "Vout", "Uout"),
                 sc("Sin", "s_mid", "Vin", "v1"),
                 sc("s_mid", "Sout", "Uin", "u1"))
    return before, after


def _through_tangles(s_over: bool, c0_sign: int,
                     s_reversed: bool) -> Tuple[Tangle, Tangle]:
    """Threading the sink/source neck of a B-trace.

    The strand crosses one sink edge and one source edge; pushing it through
    the neck to the other diagonal reverses both of its crossing signs (the
    neck edges flow in opposite directions on the two sides).
    """
    s_sign = -1 if s_reversed else 1

    def sc(sign, s_in, s_out, e_in, e_out):
        if s_over:
            return (sign, e_in, s_in, s_out, e_out)
        return (sign, s_in, e_in, e_out, s_out)

    before = ((c0_sign, "u1", "Vin", "v1", "Uout"),
              sc(s_sign, "Sin", "s_mid", "Uin", "u1"),
              sc(s_sign, "s_mid", "Sout", "v1", "Vout"))
    after = ((c0_sign, "Uin", "v2", "Vout", "u2"),
             sc(-s_sign, "Sin", "s_mid", "Vin", "v2"),
             sc(-s_sign, "s_mid", "Sout", "u2", "Uout"))
    return before, after


@dataclass(frozen=True)
class TraceMove:
    move_id: str
    kind: str
    before: Tangle
    after: Tangle
    monochromatic_only: bool = False


def slide_moves() -> List[TraceMove]:
    """The 16 oriented over/under trace moves."""
    out = []
    for kind in ("A", "B"):
        for s_over in (True, False):
            for c0_sign in (1, -1):
                for s_west in (False, True):
                    b, a = _slide_tangles(s_over, c0_sign, s_west)
                    move_id = (f"{'over' if s_over else 'under'}_{kind}"
                               f"_{'pos' if c0_sign > 0 else 'neg'}"
                               f"_{'W' if s_west else 'E'}")
                    out.append(TraceMove(move_id, kind, b, a))
    return out


def passthrough_moves() -> List[TraceMove]:
    """The 8 oriented monochromatic pass-through moves."""
    out = []
    for s_over in (True, False):
        for c0_sign in (1, -1):
            for s_reversed in (False, True):
                b, a = _through_tangles(s_over, c0_sign, s_reversed)
                move_id = (f"through_B_{'pos' if c0_sign > 0 else 'neg'}"
                           f"_{'over' if s_over else 'under'}"
                           f"_{'R' if s_reversed else 'F'}")
                out.append(TraceMove(move_id, "B", b, a, monochromatic_only=True))
    return out


def all_moves() -> List[TraceMove]:
    return slide_moves() + passthrough_moves()


def move_by_id(move_id: str) -> TraceMove:
    for m in all_moves():
        if m.move_id == move_id:
            return m
    raise KeyError(f"unknown move {move_id!r}")


def _tangle_trace_diagram(tangle: Tangle, bq: Biquandle,
                          seeds: Dict[str, int], kind: str) -> TraceDiagram:
    """Color the tangle from its entry seeds and replace c0 by a trace.

    The wires are colored by ``coloring._propagate``; seeds that leave a
    wire uncolored raise ValueError.  The boundary wires are the labels that
    only one row uses, so the result is an open trace diagram.
    """
    colors = dict.fromkeys(wire for row in tangle for wire in row[1:])
    colors.update(seeds)
    if not _propagate([positive_frame(*row) for row in tangle], bq, colors) \
            or None in colors.values():
        raise ValueError("the seeds do not color every wire of the tangle")
    nodes = {i: Node("x", sign, coefficient_pair(sign, *(colors[w] for w in wires)), *wires)
             for i, (sign, *wires) in enumerate(tangle)}
    return replace_with_trace(TraceDiagram(nodes, 0), 0, kind)


def evaluate_open(td: TraceDiagram, beta: BiquandleBracket) -> Dict[object, object]:
    """Boundary-resolved value of an open trace diagram.

    Maps each induced pairing of the boundary labels (those only one node
    joins) to the accumulated ring value of the states producing it.
    Pairings whose value is zero are dropped, so dicts compare structurally.
    """
    zero = beta.ring.zero()
    return {frozenset(frozenset(pair) for pair in pairing): value
            for pairing, value in _trace_state_sum(td, beta).items() if value != zero}


# ---------------------------------------------------------------------------
# compiled move checks
#
# Only the coefficient values depend on the bracket: the colored tangles,
# their states, boundary pairings and loop counts, and the pair each
# coefficient reads depend only on the biquandle's tables.  So each move is
# compiled once per biquandle.  Both sides of every seed are contracted by
# ``diagram.contract`` over sums of monomials in the factor keys A[x][y] and
# B[x][y] (exponent -1 at a negative crossing), delta and w.  Per boundary
# pairing, before - after must vanish; the monomials the two sides share
# cancel, and the non-zero differences left over all seeds, without repeats,
# are the move's identities, each scaled so its first monomial counts up.
# An identity is stored as a tuple of monomials, each a flat int tuple
# (count, *indices), the indices into the bracket's raw vector
# [A, A^-1, B, B^-1, delta, w, w^-1], the four tables flat (x*n + y).  A
# bracket passes the move when every identity sums to zero.
# ---------------------------------------------------------------------------

class _Monomials:
    """A sum of monomials over factor keys: ``terms`` maps each monomial, a
    sorted tuple of (key, exponent) pairs, to its integer count."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[Tuple[int, int], ...], int]):
        self.terms = terms

    def __add__(self, other: "_Monomials") -> "_Monomials":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _Monomials({m: c for m, c in out.items() if c})

    def __mul__(self, other: "_Monomials") -> "_Monomials":
        out: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for key, e in m2:
                    exps[key] = exps.get(key, 0) + e
                m = tuple(sorted((key, e) for key, e in exps.items() if e))
                out[m] = out.get(m, 0) + c1 * c2
        return _Monomials({m: c for m, c in out.items() if c})

    def __pow__(self, k: int) -> "_Monomials":
        out = _Monomials({(): 1})
        for _ in range(k):
            out = out * self
        return out


# one identity: its monomials as flat int tuples (count, *indices into the
# raw vector)
Identity = Tuple[Tuple[int, ...], ...]


def _factor(key: int, exponent: int) -> _Monomials:
    return _Monomials({((key, exponent),): 1})


def _seed_identities(bq: Biquandle, move: TraceMove,
                     seeds: Tuple[int, int, int]) -> List[Identity]:
    """The identities that one seeding of the strands (S, U, V) imposes,
    sorted; [] when the two sides agree for every bracket."""
    n, n2 = bq.n, bq.n * bq.n
    delta_key, w_key = 4 * n2, 4 * n2 + 1
    seed_map = {"Sin": seeds[0], "Uin": seeds[1], "Vin": seeds[2]}
    before = _tangle_trace_diagram(move.before, bq, seed_map, move.kind)
    if move.monochromatic_only:
        x, y = before.nodes[0].pair
        if x != y:
            return []
    after = _tangle_trace_diagram(move.after, bq, seed_map, move.kind)

    def coefficient(sign, pair, kind):
        return _factor((0 if kind == "A" else 2 * n2) + pair[0] * n + pair[1], sign)

    def side(td):
        nodes = _node_choices(td, coefficient, lambda sign: _factor(w_key, -sign))
        return contract(nodes, _Monomials({(): 1}), _factor(delta_key, 1))

    def position(key, e):
        """Where key^(sign of e) sits in the raw vector."""
        if e > 0:
            return key
        return key + 1 if key == w_key else key + n2

    b_sums, a_sums = side(before), side(after)
    out = []
    for pairing in b_sums.keys() | a_sums.keys():
        diff = dict(b_sums[pairing].terms) if pairing in b_sums else {}
        for m, c in (a_sums[pairing].terms.items() if pairing in a_sums else ()):
            diff[m] = diff.get(m, 0) - c
        identity = sorted((sorted(position(key, e) for key, e in m for _ in range(abs(e))), c)
                          for m, c in diff.items() if c)
        if identity:
            sign = 1 if identity[0][1] > 0 else -1
            out.append(tuple((sign * c, *idx) for idx, c in identity))
    return sorted(out)


@lru_cache(maxsize=128)     # every move on five biquandles
def _compiled_move(under_table, over_table, move_id: str) -> Tuple[Identity, ...]:
    """The identities of the move on this biquandle over all seeds, without
    repeats."""
    bq = Biquandle(under_table, over_table)
    move = move_by_id(move_id)
    identities = dict.fromkeys(identity for seeds in itertools.product(range(bq.n), repeat=3)
                               for identity in _seed_identities(bq, move, seeds))
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    return tuple(tuple(shared.setdefault(m, m) for m in identity) for identity in identities)


def _raw_factors(beta: BiquandleBracket) -> list:
    """The raw vector [A, A^-1, B, B^-1, delta, w, w^-1] of a bracket."""
    ring = beta.ring
    a = [ring.raw(e) for row in beta.A for e in row]
    b = [ring.raw(e) for row in beta.B for e in row]
    w = ring.raw(beta.w)
    return (a + [ring.inv(v) for v in a] + b + [ring.inv(v) for v in b]
            + [ring.raw(beta.delta), w, ring.inv(w)])


def _multiple(one, count: int):
    """``count`` times ``one`` by addition; raw Laurent values take no int factor."""
    total = one - one
    for _ in range(abs(count)):
        total = total + one
    return total if count > 0 else -total


def trace_move_fixture_check(bq: Biquandle, beta: BiquandleBracket, move_id: str) -> bool:
    """True iff [before] == [after] boundary-resolved, for all color seeds.

    A pass-through move is checked only on seeds that color its trace
    monochromatically, read at the trace's own pair.  Each of the move's
    compiled identities is summed over the bracket's raw values.
    """
    ring = beta.ring
    factor = _raw_factors(beta).__getitem__
    one = ring.raw(ring.one())
    zero = one - one
    multiples: Dict[int, object] = {}
    for identity in _compiled_move(bq.under_table, bq.over_table, move_id):
        total = zero
        for monomial in identity:
            scale = multiples.get(monomial[0])
            if scale is None:
                scale = multiples[monomial[0]] = _multiple(one, monomial[0])
            total = total + prod(map(factor, monomial[1:]), start=scale)
        if not ring.same(total, zero):
            return False
    return True


def diagrammatic_adequacy(bq: Biquandle, beta: BiquandleBracket) -> Tuple[bool, bool]:
    """(over, under) verdicts aggregated over the eight moves of each kind."""
    over = all(trace_move_fixture_check(bq, beta, m.move_id)
               for m in slide_moves() if m.move_id.startswith("over"))
    under = all(trace_move_fixture_check(bq, beta, m.move_id)
                for m in slide_moves() if m.move_id.startswith("under"))
    return over, under


def diagrammatic_passthrough(bq: Biquandle, beta: BiquandleBracket) -> bool:
    return all(trace_move_fixture_check(bq, beta, m.move_id)
               for m in passthrough_moves())


# ---------------------------------------------------------------------------
# trace diagram files
# ---------------------------------------------------------------------------

# the edge fields of each trace line, the order of their groups as the roles
# (u_in, o_in, o_out, u_out), and the line's shape for error messages
_TRACE_LINES = {
    "traceA": (re.compile(r"(\d+)>(\d+) (\d+)>(\d+)"), (0, 2, 1, 3),
               "traceA (+|-) <in1>><out1> <in2>><out2> <x> <y>"),
    "traceB": (re.compile(r"sink\((\d+),(\d+)\) source\((\d+),(\d+)\)"), (0, 1, 3, 2),
               "traceB (+|-) sink(<e1>,<e2>) source(<e3>,<e4>) <x> <y>"),
}


def _line_ints(lineno: int, fields: Sequence[str]) -> List[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from None


def parse_trace_diagram(text: str, bq: Biquandle) -> Tuple[TraceDiagram, Dict[int, int]]:
    """Parse the trace-diagram file format.

    Crossing lines are as in diagram files.  Trace lines:

        traceA <sign> <in1>><out1> <in2>><out2> <x> <y>
        traceB <sign> sink(<e1>,<e2>) source(<e3>,<e4>) <x> <y>

    Edges are semiarc ids.  A trace stands where a crossing of that sign
    was smoothed, and its edges take the crossing's roles: ``in>out`` names
    the segments entering and leaving a pass-through point, in1>out1 on the
    (u_in -> o_out) strand and in2>out2 on the (o_in -> u_out) strand; the
    traceB sink absorbs (u_in, o_in) = (e1, e2) and its source emits
    (u_out, o_out) = (e3, e4).  (x, y) is the trace's recorded color pair,
    1-indexed: the pair ``bracket.coefficient_pair`` reads at that crossing,
    so (in1, out1) at + and (out2, in2) at - for traceA, and (e1, e4) at +
    and (e3, e2) at - for traceB.  Every edge must be colored by a
    ``color <edge> <value>`` line with a value in 1..n, every color line
    must name an edge in use, each edge must leave one port and enter one,
    and the colors must satisfy the crossing rules at every crossing and
    trace.  Returns the diagram and the edge -> color map (0-indexed
    values).
    """
    # (kind, sign, u_in, o_in, o_out, u_out, recorded pair or None)
    crossing_rows: List[Tuple] = []
    trace_rows: List[Tuple] = []
    colors: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        head = parts[0]
        if head in ("+", "-"):
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: expected '(+|-) u_in o_in o_out u_out'")
            crossing_rows.append(("x", 1 if head == "+" else -1,
                                  *_line_ints(lineno, parts[1:]), None))
        elif head == "color":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'color <edge> <value>'")
            edge, value = _line_ints(lineno, parts[1:])
            if not 1 <= value <= bq.n:
                raise ValueError(f"line {lineno}: color {value} is out of range 1..{bq.n}")
            colors[edge] = value - 1
        elif head in _TRACE_LINES:
            pattern, order, shape = _TRACE_LINES[head]
            edges = pattern.fullmatch(" ".join(parts[2:4]))
            if len(parts) != 6 or parts[1] not in ("+", "-") or edges is None:
                raise ValueError(f"line {lineno}: expected '{shape}'")
            pair = tuple(v - 1 for v in _line_ints(lineno, parts[4:]))
            roles = (int(edges.group(i + 1)) for i in order)
            trace_rows.append((head[-1].lower(), 1 if parts[1] == "+" else -1, *roles, pair))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {ln!r}")

    rows = crossing_rows + trace_rows
    ins, outs = set(), set()
    for _, _, *edges, _ in rows:
        for role, e in zip(_ROLES, edges):
            side, ends = ("output", outs) if role.endswith("out") else ("input", ins)
            if e in ends:
                raise ValueError(f"edge {e} is used as an {side} more than once")
            ends.add(e)

    edges = ins | outs
    loose = ins ^ outs
    if loose:
        raise ValueError(f"edges with a loose end: {sorted(loose)}")
    uncolored = edges - set(colors)
    if uncolored:
        raise ValueError(f"edges without a color: {sorted(uncolored)}")
    unused = sorted(set(colors) - edges)
    if unused:
        raise ValueError(f"color lines for edges no crossing or trace uses: {unused}")

    nodes: Dict[int, Node] = {}
    for nid, (kind, sign, u_in, o_in, o_out, u_out, recorded) in enumerate(rows):
        cu, co = colors[u_in], colors[o_in]
        if crossing_outputs(bq, sign, cu, co) != (colors[u_out], colors[o_out]):
            name = "crossing" if kind == "x" else "trace"
            raise ValueError(f"{name} colors inconsistent at inputs ({u_in}, {o_in})")
        pair = coefficient_pair(sign, cu, co, colors[o_out], colors[u_out])
        if recorded is not None and recorded != pair:
            raise ValueError(f"trace pair {tuple(v + 1 for v in recorded)} does not "
                             f"match its colors, which give {tuple(v + 1 for v in pair)}")
        nodes[nid] = Node(kind, sign, pair, u_in, o_in, o_out, u_out)
    return TraceDiagram(nodes, 0), colors
