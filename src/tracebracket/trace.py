"""Colored trace diagrams: the full state sum, the skein relation at a
diagonal-pair crossing, magnetic parity and kink reducibility, the parity
fast evaluator, and diagrammatic verification of the trace moves on fixed
three-strand tangles, each move compiled once per biquandle into identities
lhs = rhs in the bracket's base entries [*A, *B, delta, w] with their unit
factors divided out.  Each family of eight moves is the union of its moves'
identities, and every one of them states a unit binomial on a bracket that
passes condition (ii), so the family verdicts check the Hermite basis of
those binomials' exponent lattice, a few relations per family, with the one
identity evaluator, ``bracket.failing_identity``.

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
curve; these are the vertices magnetic parity counts.  One walker,
``_walk``, walks each component of the trace-deleted curve once, and the
circle count, magnetic parity and the crossings that kink removal leaves are
all read off that walk.  The paper's stop condition, a magnetic parity at every crossing
and kink reducibility, reduces to kink reducibility alone, so the
parity-stop recursion expands the lowest-numbered crossing that kink
removal leaves: expanding a kink that already comes off would leave both
children blocked by the same crossings.  The walk follows the
diagram's end links (``TraceDiagram.links``: each node role linked to the
other end of its edge) and leaves each node by the end that its kind pairs
with the one it entered (``_leave``).  A smoothing keeps every edge and
changes one node's kind, so the recursion keeps the root's links and, per
expansion, patches the expanded node's four leave entries and walks again,
building no diagram.

The full state sum is one contraction (``diagram.plan_contraction`` then
``diagram.run_plan``) over the edge labels.  A crossing offers both
smoothings, each weighted by its coefficient and by w^(-sign), the weight of
the trace it leaves; a trace offers only its pass-through pairing, weighted
w^(-sign).  Each weight is named by its slots in the bracket's raw vector
(``bracket.raw_slot``), so the numeric evaluators multiply raw values and
wrap once, and the compiled move checks run the same choices over symbols.
In an open tangle a boundary edge is a label that only one node joins, so
it stays open, and the value is keyed by the pairing of the boundary labels.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from operator import mul
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

from .biquandle import Biquandle, content_lines, parse_int
from .bracket import (BiquandleBracket, Identity, coefficient_pair, crossing_coefficient_pair,
                      failing_identity, homflypt_coefficients, identity_text, raw_slot)
from .coloring import (crossing_outputs, positive_frame, propagation_schedule, run_steps,
                       validate_coloring)
from .diagram import (SMOOTHINGS, OrientedDiagram, plan_contraction, require_valid,
                      role_joins, run_plan, switch_crossing)
from .rings import hermite_normal_form


class MultiComponentCrossingError(ValueError):
    """A crossing whose over- and under-passes lie on different components."""


class NotRIReducibleError(ValueError):
    """The trace-deleted diagram cannot be unknotted by kink removal alone."""


_ROLES = ("u_in", "o_in", "o_out", "u_out")
# pass-through pairing of each node kind after traces are deleted: a crossing
# is walked through, and a trace keeps the pairing of the smoothing it stands for
_PASS = {"x": (("u_in", "u_out"), ("o_in", "o_out")),
         "a": SMOOTHINGS["A"], "b": SMOOTHINGS["B"]}


def _partners(pairs) -> Tuple[int, ...]:
    """For each role, the index of the role that ``pairs`` pairs it with."""
    partner = {r: s for pair in pairs for r, s in (pair, pair[::-1])}
    return tuple(_ROLES.index(partner[r]) for r in _ROLES)


_PARTNER = {kind: _partners(pairs) for kind, pairs in _PASS.items()}
_JOINS = {kind: role_joins(pairs) for kind, pairs in _PASS.items()}


def _leave(kinds: Sequence[str]) -> List[int]:
    """The end by which the walk leaves a node it entered at end e, for each
    end e (see ``TraceDiagram.links``), of nodes of these kinds."""
    return [4 * i + r for i, kind in enumerate(kinds) for r in _PARTNER[kind]]


def _walk(ids: list, kinds: list, links: list, leave: list) -> List[List[Tuple[int, int]]]:
    """Walk each component of a closed diagram's trace-deleted curve once,
    the nodes given by their ids and kinds, their ends by ``links`` and
    ``leave``: each component's crossing passes in walking order, each as
    (node id, the sink/source visits made before it).  A component that
    meets no crossing is an empty list."""
    curves, seen = [], [False] * len(links)
    for start in range(len(links)):
        if not seen[start]:
            passes, visits, here = [], 0, start
            while not seen[here]:
                there = links[here]
                seen[here] = seen[there] = True
                kind = kinds[there >> 2]
                if kind == "x":
                    passes.append((ids[there >> 2], visits))
                visits += kind == "b"
                here = leave[there]
            curves.append(passes)
    return curves


def _parities(curves: list) -> Dict[int, str]:
    """Every crossing's magnetic parity (see :func:`magnetic_parity`), from
    one pass over the curves."""
    parities: Dict[int, str] = {}
    for curve in curves:
        first: Dict[int, int] = {}
        for cid, visits in curve:
            if cid in first:
                parities[cid] = "odd" if (visits - first[cid]) % 2 else "even"
            else:
                # "multi" stays if the crossing passes this curve only once
                first[cid], parities[cid] = visits, "multi"
    return parities


def _kink_leftover(curves: list) -> FrozenSet[int]:
    """The crossings that maximal kink removal leaves in the trace-deleted
    diagram.

    A kink is a crossing whose two passes are adjacent on a curve, and
    removing it makes its neighbours adjacent.  So removal cancels adjacent
    equal passes, and what is left does not depend on the order of removal:
    push each crossing, and pop it when it comes back on top.  The walk
    starts a curve at an arbitrary point, so the stack's two ends are
    adjacent too, and they cancel while they are equal.  A multi-component
    crossing passes its curve once and always stays.
    """
    left: List[int] = []
    for curve in curves:
        stack: List[int] = []
        for cid, _ in curve:
            if stack and stack[-1] == cid:
                stack.pop()
            else:
                stack.append(cid)
        lo, hi = 0, len(stack) - 1
        while lo < hi and stack[lo] == stack[hi]:
            lo, hi = lo + 1, hi - 1
        left += stack[lo:hi + 1]
    return frozenset(left)


@dataclass(frozen=True)
class Node:
    kind: str                 # "x", "a", "b"
    sign: int                 # +1 / -1
    pair: Tuple[int, int]     # coefficient color pair (0-indexed)
    u_in: Hashable            # edge labels by crossing role
    o_in: Hashable
    o_out: Hashable
    u_out: Hashable

    def joins(self, kind: str) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """The edge labels that the pass-through pairing of a node of
        ``kind`` joins (see ``_PASS``)."""
        return _JOINS[kind](self)


@dataclass(frozen=True)
class TraceDiagram:
    nodes: Dict[int, Node]
    free_circles: int = 0

    def crossings(self) -> List[int]:
        return sorted(i for i, n in self.nodes.items() if n.kind == "x")

    def traces(self) -> List[int]:
        return sorted(i for i, n in self.nodes.items() if n.kind != "x")

    @cached_property
    def links(self) -> List[int]:
        """The end links of the edges: end 4*i + r is role ``_ROLES[r]`` of
        the i-th node in ``nodes`` order, and ``links[e]`` is the other end
        of e's edge, or -1 at a boundary edge, which only one node joins."""
        links = [-1] * (4 * len(self.nodes))
        first: Dict[Hashable, int] = {}
        for i, n in enumerate(self.nodes.values()):
            for e, label in enumerate((n.u_in, n.o_in, n.o_out, n.u_out), start=4 * i):
                if label in first:
                    links[e], links[first[label]] = first[label], e
                else:
                    first[label] = e
        return links

    @cached_property
    def curves(self) -> List[List[Tuple[int, int]]]:
        """The trace-deleted curve of a closed diagram, walked once by
        :func:`_walk`."""
        if -1 in self.links:
            raise ValueError("an open tangle has no closed trace-deleted curve")
        kinds = [n.kind for n in self.nodes.values()]
        return _walk(list(self.nodes), kinds, self.links, _leave(kinds))

    # each crossing's magnetic parity, and the crossings that kink removal
    # leaves, read off the curves (see ``_parities`` and ``_kink_leftover``)
    parities = cached_property(lambda self: _parities(self.curves))
    kink_leftover = cached_property(lambda self: _kink_leftover(self.curves))


def from_colored_diagram(d: OrientedDiagram, bq: Biquandle,
                         coloring: Sequence[int]) -> TraceDiagram:
    """Build the trace diagram of a colored oriented diagram (no traces yet)."""
    require_valid(d)
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


def _node_choices(td: TraceDiagram, n: int) -> List[list]:
    """Each node's choices as (raw slots, joins), the slots those of a
    bracket on n colors whose product weighs the choice: a crossing offers
    both smoothings, weighted by its coefficient and w^(-sign), and a trace
    only its pass-through pairing, weighted w^(-sign)."""
    nodes = []
    for node in td.nodes.values():
        w = raw_slot(n, "w", -node.sign)
        if node.kind == "x":
            nodes.append([((raw_slot(n, k, node.sign, node.pair), w), node.joins(k.lower()))
                          for k in SMOOTHINGS])
        else:
            nodes.append([((w,), node.joins(node.kind))])
    return nodes


def _state_sum(td: TraceDiagram, n: int, values: Sequence, circles) -> Dict[frozenset, object]:
    """The state sum over every node of the trace diagram, each choice
    weighted by the product of ``values`` at its slots and the sum started
    at ``circles``, delta^(free circles): ``values`` is a bracket's raw
    vector or symbols standing for it.  Maps each final pairing of the
    boundary labels to its unwrapped sum."""
    nodes = _node_choices(td, n)
    plan = plan_contraction([[joins for _, joins in choices] for choices in nodes])
    weights = [[reduce(mul, map(values.__getitem__, slots)) for slots, _ in choices]
               for choices in nodes]
    return run_plan(plan, weights, circles, values[raw_slot(n, "delta")])


def evaluate_recursive(td: TraceDiagram, beta: BiquandleBracket):
    """The full state sum of a closed trace diagram: both smoothings of
    every crossing, each leaving a trace of its kind."""
    sums = _state_sum(td, beta.bq.n, beta.raw, beta.delta_power(td.free_circles))
    return beta.ring.wrap(sums[frozenset()])


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

    'multi' when the crossing passes its component of the trace-deleted
    curve only once (its other pass lies on another component); otherwise
    the parity of the sink/source visits between its two passes, where the
    walk reverses direction.  Every component makes an even number of such
    visits, so both arcs between the passes give the same parity.  All
    crossings' parities come from one pass, ``TraceDiagram.parities``.
    """
    if td.nodes[cid].kind != "x":
        raise ValueError(f"node {cid} is not a crossing")
    return td.parities[cid]


def ri_reducible(td: TraceDiagram) -> bool:
    """Can the trace-deleted diagram be unknotted by kink removal alone?
    True when kink removal leaves no crossing: ``TraceDiagram.kink_leftover``,
    computed once per diagram."""
    return not td.kink_leftover


def evaluate_by_parity(td: TraceDiagram, beta: BiquandleBracket):
    """delta^k * w^(n-p) * product of per-crossing parity weights.

    Requires every crossing to be single-component and the trace-deleted
    diagram to reduce to zero crossings by kink removal alone.  With a, b
    the crossing's A and B entries, inverted at a negative crossing (the
    raw slots ``raw_slot(n, kind, sign, pair)``), its weight is a + delta b
    at odd parity and delta a + b at even parity.
    """
    for cid in td.crossings():
        if td.parities[cid] == "multi":
            raise MultiComponentCrossingError(f"crossing {cid} is multi-component")
    if td.kink_leftover:
        raise NotRIReducibleError("trace-deleted diagram is not kink-reducible")
    return beta.ring.wrap(_parity_value(td.parities, td.free_circles + len(td.curves),
                                        *_parity_factors(td, beta)))


def _parity_factors(td: TraceDiagram, beta: BiquandleBracket) -> tuple:
    """(delta^k as a function of k, delta, w^(-writhe), each crossing's raw
    (a, b) by id): what the parity weights read, the same at every diagram
    smoothed from ``td``, as a trace keeps its crossing's sign and pair."""
    n, raw, writhe = beta.bq.n, beta.raw, sum(node.sign for node in td.nodes.values())
    # each crossing's (a, b), in the order of its trace kinds "a", "b"
    ab = {cid: tuple(raw[raw_slot(n, k, node.sign, node.pair)] for k in "AB")
          for cid, node in td.nodes.items() if node.kind == "x"}
    # w^(-writhe), a power of w or of w^-1 as raw values take no negative powers
    return (beta.delta_power, raw[raw_slot(n, "delta")],
            raw[raw_slot(n, "w", -writhe)] ** abs(writhe), ab)


def _parity_value(parities: Dict[int, str], circles: int, delta_power, delta, w_factor, ab):
    """The unwrapped value of :func:`evaluate_by_parity` on a diagram with
    these parities and trace-deleted circles, given its
    :func:`_parity_factors`: the one parity weighing, which the parity-stop
    recursion also applies at each leaf."""
    value = delta_power(circles) * w_factor
    for cid, par in parities.items():
        a, b = ab[cid]
        value = value * (a + delta * b if par == "odd" else delta * a + b)
    return value


# every crossing of a kink-reducible diagram passes its own curve twice, so
# the parity evaluator applies exactly when the diagram is kink-reducible
parity_applicable = ri_reducible


def evaluate_recursive_parity(td: TraceDiagram, beta: BiquandleBracket):
    """The recursive expansion with the parity stop: a diagram that kink
    removal unknots is weighed as :func:`evaluate_by_parity` weighs it, and
    any other has its lowest-numbered crossing that kink removal leaves
    (``TraceDiagram.kink_leftover``) smoothed both ways.  Smoothing a kink
    that already comes off leaves its children blocked by the same
    crossings, so the expansion works on what blocks the stop; every order
    gives the same value.

    A smoothed diagram is its parent's kind list and leave array (see
    :func:`_leave`) with the expanded node's entries patched, walked on the
    root's links, so no diagram is built per expansion, and the parity
    factors are read once, at the root.  The expansion sums raw values and
    wraps once."""
    kinds = [node.kind for node in td.nodes.values()]
    root = (list(td.nodes), td.links, td.free_circles, *_parity_factors(td, beta))
    return beta.ring.wrap(_expand_to_parity_stops(root, kinds, _leave(kinds), td.curves))


def _expand_to_parity_stops(root: tuple, kinds: list, leave: list, curves: list):
    """The unwrapped value of :func:`evaluate_recursive_parity` at the
    diagram with these kinds, leave array and curves, smoothed from the root
    diagram given as (ids, links, free circles, then its
    :func:`_parity_factors`)."""
    ids, links, free_circles, delta_power, delta, w_factor, ab = root
    left = _kink_leftover(curves)
    if not left:
        return _parity_value(_parities(curves), free_circles + len(curves), delta_power, delta,
                             w_factor, ab)
    i, terms = ids.index(min(left)), []
    # the second smoothing rewrites the entries that the first one patched
    for kind, coefficient in zip("ab", ab[ids[i]]):
        kinds = kinds[:i] + [kind] + kinds[i + 1:]
        leave = leave[:4 * i] + [4 * i + r for r in _PARTNER[kind]] + leave[4 * i + 4:]
        terms.append(coefficient * _expand_to_parity_stops(root, kinds, leave,
                                                           _walk(ids, kinds, links, leave)))
    return terms[0] + terms[1]


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


def _strand_rows(s_over: bool, sign: int, first: Tuple[str, str],
                 second: Tuple[str, str]) -> Tangle:
    """The two crossings of strand S, which runs Sin -> s_mid across the edge
    ``first`` = (e_in, e_out) and then s_mid -> Sout across ``second``, over
    both edges or under both."""
    return tuple((sign, e_in, s_in, s_out, e_out) if s_over else (sign, s_in, e_in, e_out, s_out)
                 for (s_in, s_out), (e_in, e_out)
                 in ((("Sin", "s_mid"), first), (("s_mid", "Sout"), second)))


def _slide_tangles(s_over: bool, c0_sign: int, s_west: bool) -> Tuple[Tangle, Tangle]:
    """Sliding S past c0, from c0's output edges to its input edges; S meets
    each pair of edges in the opposite order when it comes from the west."""
    s_sign = 1 if (s_over == s_west) else -1
    order = -1 if s_west else 1
    before = ((c0_sign, "Uin", "Vin", "v1", "u1"),
              *_strand_rows(s_over, s_sign, *(("v1", "Vout"), ("u1", "Uout"))[::order]))
    after = ((c0_sign, "u1", "v1", "Vout", "Uout"),
             *_strand_rows(s_over, s_sign, *(("Uin", "u1"), ("Vin", "v1"))[::order]))
    return before, after


def _through_tangles(s_over: bool, c0_sign: int,
                     s_reversed: bool) -> Tuple[Tangle, Tangle]:
    """Threading the sink/source neck of a B-trace.

    The strand crosses one sink edge and one source edge; pushing it through
    the neck to the other diagonal reverses both of its crossing signs (the
    neck edges flow in opposite directions on the two sides).
    """
    s_sign = -1 if s_reversed else 1
    before = ((c0_sign, "u1", "Vin", "v1", "Uout"),
              *_strand_rows(s_over, s_sign, ("Uin", "u1"), ("v1", "Vout")))
    after = ((c0_sign, "Uin", "v2", "Vout", "u2"),
             *_strand_rows(s_over, -s_sign, ("Vin", "v2"), ("u2", "Uout")))
    return before, after


@dataclass(frozen=True)
class TraceMove:
    move_id: str
    kind: str
    before: Tangle
    after: Tangle
    # "over", "under" or "through", the first word of the id; a pass-through
    # ("through") move is checked only on seeds that color its trace
    # monochromatically
    family = property(lambda self: self.move_id.split("_")[0])


def _build_moves() -> Dict[str, TraceMove]:
    """The 16 oriented over/under trace moves, then the 8 oriented
    monochromatic pass-through moves, by id."""
    moves = []
    for kind, s_over, c0_sign, s_west in itertools.product("AB", (True, False), (1, -1),
                                                            (False, True)):
        move_id = (f"{'over' if s_over else 'under'}_{kind}"
                   f"_{'pos' if c0_sign > 0 else 'neg'}_{'W' if s_west else 'E'}")
        moves.append(TraceMove(move_id, kind, *_slide_tangles(s_over, c0_sign, s_west)))
    for s_over, c0_sign, s_reversed in itertools.product((True, False), (1, -1), (False, True)):
        move_id = (f"through_B_{'pos' if c0_sign > 0 else 'neg'}"
                   f"_{'over' if s_over else 'under'}_{'R' if s_reversed else 'F'}")
        moves.append(TraceMove(move_id, "B", *_through_tangles(s_over, c0_sign, s_reversed)))
    return {m.move_id: m for m in moves}


_MOVES = _build_moves()


def all_moves() -> List[TraceMove]:
    return list(_MOVES.values())


def move_by_id(move_id: str) -> TraceMove:
    """The move with this id; KeyError naming the id if there is none."""
    return _MOVES[move_id]


def _tangle_trace_diagram(tangle: Tangle, bq: Biquandle,
                          seeds: Dict[str, int], kind: str) -> TraceDiagram:
    """Color the tangle from its entry seeds and replace c0 by a trace.

    The wires are colored by ``coloring.propagation_schedule`` with the
    seeds as given labels; seeds that leave a wire uncolored, or that no
    coloring extends, raise ValueError.  The boundary wires are the labels
    that only one row uses, so the result is an open trace diagram.
    """
    labels = list(dict.fromkeys(wire for row in tangle for wire in row[1:]))
    levels = propagation_schedule([positive_frame(*row) for row in tangle], labels, seeds)
    colors = dict(seeds)
    # the given level alone must color every wire
    if [seed for seed, _ in levels] != [None] or not run_steps(levels[0][1], bq, colors):
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
    ring = beta.ring
    zero = ring.zero()
    sums = _state_sum(td, beta.bq.n, beta.raw, beta.delta_power(td.free_circles))
    values = {frozenset(frozenset(pair) for pair in pairing): ring.wrap(value)
              for pairing, value in sums.items()}
    return {pairing: value for pairing, value in values.items() if value != zero}


# ---------------------------------------------------------------------------
# compiled move checks
#
# Only the coefficient values depend on the bracket: the colored tangles,
# their states, boundary pairings and loop counts, and the pair each
# coefficient reads depend only on the biquandle's tables.  So each move is
# compiled once per biquandle.  Both sides of every seed run the numeric
# evaluator's state sum over symbols in place of the raw vector: sums of
# monomials in the factor keys A[x][y], B[x][y], delta and w, each key the
# raw slot of its factor, and the slot of A[x][y]^-1 standing for key
# A[x][y] at exponent -1 (likewise B and w).  Per boundary pairing, before -
# after must vanish; the monomials the two sides share cancel, and each
# non-zero difference is divided by the largest monomial in the unit keys
# (the A, B and w entries) that divides all of its terms.  A unit factor
# does not change whether a sum vanishes, and once it is divided out the
# identities of different seeds and moves coincide.  delta is never divided
# out, as it may be a zero divisor over Z_n.  What is left is stored as an
# identity lhs = rhs: the terms that count up on the left and those that
# count down on the right, a count c as c copies, each monomial a sorted
# tuple of base raw slots, each side sorted and the two sides sorted, so an
# identity and its negation coincide: a ``bracket.Identity``.  The base slots
# begin the raw vector and are the indices of [*A, *B, delta, w], so an
# identity reads the same on the raw vector and on flat tables.  A move's
# identities are those of all its seeds, without repeats, and a bracket
# passes the move when every identity holds.
#
# A family of eight moves (over, under or pass-through, the first word of
# the move ids) has one table per biquandle: the union of the moves'
# identities, without repeats.  Every identity in it is a binomial in the
# unit entries A, B and w, or a trinomial 0 = P + q delta + R in which P/q
# or R/q is A_p/B_p or its inverse at some pair p.  Condition (ii) gives
# delta = -(u + 1/u) for u = A_p/B_p, so on a bracket that passes it the
# trinomial says P R = q^2: a binomial too.  A bracket's entries are units,
# so a binomial m = m' holds exactly when the character x -> prod x_i^(e_i)
# of the bracket's entries kills its exponent vector e = m - m', and the
# table holds exactly when the character kills the lattice those vectors
# span over Z: exactly when it kills any basis of it.  So each family table
# is compiled once per biquandle into the lattice's Hermite basis
# (``rings.hermite_normal_form``): 0 to 14 rows on bq1, bq2, bq3 and
# alexander(3,1,2) in place of 1 to 138 identities, each row an identity of
# its positive exponents on the left and its negative ones on the right
# (``_family_basis``).  An identity of any other shape raises when the basis
# is compiled.  The family verdicts check the bases, and single moves and
# ``bracket.passthrough_identities`` keep the tables.  Both are checked by
# the one identity evaluator, ``bracket.failing_identity``, on the raw
# vector: it sums each side over the raw values (plain ints over Z_n),
# compares the two sums through ``ring.same``, which over Z_n reduces their
# difference once, and stops at the first identity that fails.
# ---------------------------------------------------------------------------

# a monomial over factor keys: a sorted tuple of (key, exponent) pairs
Monomial = Tuple[Tuple[int, int], ...]


class _Monomials:
    """A sum of monomials over factor keys: ``terms`` maps each monomial to
    its integer count."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, int]):
        self.terms = terms

    def __add__(self, other: "_Monomials") -> "_Monomials":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _Monomials({m: c for m, c in out.items() if c})

    def __mul__(self, other: "_Monomials") -> "_Monomials":
        out: Dict[Monomial, int] = {}
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


@lru_cache(maxsize=8)
def _raw_symbols(n: int) -> List[_Monomials]:
    """The raw vector of a bracket on n colors as symbols, each slot the
    key of its factor (the factor's slot at sign +1) to the power +-1."""
    delta = raw_slot(n, "delta")
    powers = {delta: (delta, 1)}
    factors = [("w", (0, 0))] + [(k, pair) for k in SMOOTHINGS
                                 for pair in itertools.product(range(n), repeat=2)]
    for factor, pair in factors:
        for sign in (1, -1):
            powers[raw_slot(n, factor, sign, pair)] = (raw_slot(n, factor, 1, pair), sign)
    return [_Monomials({(powers[slot],): 1}) for slot in range(len(powers))]


def _cancel_units(terms: Dict[Monomial, int], delta: int) -> Identity:
    """The identity sum(terms) = 0 divided by the largest monomial in the
    keys other than ``delta`` that divides every term, as lhs = rhs (see
    the compiled move checks).  Every key is left at exponent 0 or more."""
    low = {key: min(dict(m).get(key, 0) for m in terms)
           for key in {key for m in terms for key, _ in m} - {delta}}
    sides: Tuple[list, list] = ([], [])
    for m, count in terms.items():
        exps = dict(m)
        monomial = tuple(sorted(key for key in exps.keys() | low.keys()
                                for _ in range(exps.get(key, 0) - low.get(key, 0))))
        sides[count < 0].extend([monomial] * abs(count))
    return tuple(sorted(tuple(sorted(side)) for side in sides))


def _seed_identities(bq: Biquandle, move: TraceMove,
                     seeds: Tuple[int, int, int]) -> List[Identity]:
    """The identities that one seeding of the strands (S, U, V) imposes,
    sorted; [] when the two sides agree for every bracket."""
    seed_map = {"Sin": seeds[0], "Uin": seeds[1], "Vin": seeds[2]}
    before = _tangle_trace_diagram(move.before, bq, seed_map, move.kind)
    if move.family == "through":
        x, y = before.nodes[0].pair
        if x != y:
            return []
    after = _tangle_trace_diagram(move.after, bq, seed_map, move.kind)
    symbols, delta = _raw_symbols(bq.n), raw_slot(bq.n, "delta")
    b_sums, a_sums = (_state_sum(td, bq.n, symbols, symbols[delta] ** td.free_circles)
                      for td in (before, after))
    out = []
    for pairing in b_sums.keys() | a_sums.keys():
        diff = dict(b_sums[pairing].terms) if pairing in b_sums else {}
        for m, c in (a_sums[pairing].terms.items() if pairing in a_sums else ()):
            diff[m] = diff.get(m, 0) - c
        diff = {m: c for m, c in diff.items() if c}
        if diff:
            out.append(_cancel_units(diff, delta))
    return sorted(out)


@lru_cache(maxsize=128)     # every move on five biquandles
def _compiled_move(under_table, over_table, move_id: str) -> Tuple[Identity, ...]:
    """The identities of the move on this biquandle over all seeds, without
    repeats."""
    bq = Biquandle(under_table, over_table)
    move = move_by_id(move_id)
    return tuple(dict.fromkeys(identity for seeds in itertools.product(range(bq.n), repeat=3)
                               for identity in _seed_identities(bq, move, seeds)))


@lru_cache(maxsize=16)      # every family on five biquandles
def _family_table(under_table, over_table, family: str) -> Tuple[Identity, ...]:
    """The identities of the family's eight moves on this biquandle, without
    repeats (see ``TraceMove.family``)."""
    return tuple(dict.fromkeys(
        identity for move in all_moves() if move.family == family
        for identity in _compiled_move(under_table, over_table, move.move_id)))


def _unit_exponents(identity: Identity, n: int) -> List[int]:
    """The exponent vector, over the base entries [*A, *B, delta, w] of a
    bracket on n colors, of the unit binomial that ``identity`` states on
    every bracket that passes condition (ii): lhs / rhs of a binomial, or
    P R / q^2 of a trinomial 0 = P + q delta + R in which P/q or R/q is
    A_p/B_p or its inverse at some pair p.  ValueError on any other
    identity, one that reads delta or a trinomial that matches no pair."""
    delta = raw_slot(n, "delta")

    def exponents(monomial):
        v = [0] * (delta + 2)
        for i in monomial:
            v[i] += 1
        return v

    lhs, rhs = identity
    if len(lhs) == len(rhs) == 1 and delta not in lhs[0] + rhs[0]:
        return [a - b for a, b in zip(exponents(*lhs), exponents(*rhs))]
    terms = lhs + rhs
    with_delta = [m for m in terms if delta in m]
    if not (lhs and rhs) and len(terms) == 3 and [m.count(delta) for m in with_delta] == [1]:
        q = exponents(with_delta[0])
        q[delta] = 0
        P, R = (exponents(m) for m in terms if delta not in m)
        if any(_is_pair_ratio([a - b for a, b in zip(u, q)], n) for u in (P, R)):
            return [a + b - 2 * c for a, b, c in zip(P, R, q)]
    raise ValueError(f"not a unit binomial under condition (ii): {identity_text(n, identity)}")


def _is_pair_ratio(v: List[int], n: int) -> bool:
    """Whether the exponent vector v is A_p/B_p or B_p/A_p for some pair p,
    the entries of a bracket on n colors at which condition (ii) gives
    delta = -(A_p/B_p + B_p/A_p)."""
    support = [i for i, e in enumerate(v) if e]
    return (len(support) == 2 and support[1] == support[0] + n * n < 2 * n * n
            and abs(v[support[0]]) == 1 and v[support[1]] == -v[support[0]])


@lru_cache(maxsize=16)      # every family on five biquandles
def _family_basis(under_table, over_table, family: str) -> Tuple[Identity, ...]:
    """The family table of :func:`_family_table` as the Hermite basis of
    its unit binomials (see :func:`_unit_exponents`), each row an identity
    of its positive exponents on the left and its negative ones on the
    right: on any bracket that passes condition (ii), the basis holds
    exactly when the table does."""
    n = len(under_table)
    rows = hermite_normal_form(_unit_exponents(identity, n)
                               for identity in _family_table(under_table, over_table, family))
    return tuple(tuple((tuple(i for i, e in enumerate(row) for _ in range(sign * e)),)
                       for sign in (1, -1)) for row in rows)


def trace_move_fixture_check(bq: Biquandle, beta: BiquandleBracket, move_id: str) -> bool:
    """True iff [before] == [after] boundary-resolved, for all color seeds.

    A pass-through move is checked only on seeds that color its trace
    monochromatically, read at the trace's own pair.  Each of the move's
    compiled identities is summed over the bracket's raw values.
    """
    return failing_identity(_compiled_move(bq.under_table, bq.over_table, move_id),
                            beta.raw, beta.ring) is None


def _family_holds(bq: Biquandle, beta: BiquandleBracket, family: str) -> bool:
    return failing_identity(_family_basis(bq.under_table, bq.over_table, family),
                            beta.raw, beta.ring) is None


def diagrammatic_adequacy(bq: Biquandle, beta: BiquandleBracket) -> Tuple[bool, bool]:
    """(over, under) verdicts, each over the eight moves of its kind."""
    return _family_holds(bq, beta, "over"), _family_holds(bq, beta, "under")


def diagrammatic_passthrough(bq: Biquandle, beta: BiquandleBracket) -> bool:
    """The verdict over the eight pass-through moves."""
    return _family_holds(bq, beta, "through")


# ---------------------------------------------------------------------------
# trace diagram files
# ---------------------------------------------------------------------------

# the edge fields of each trace line, the order of their groups as the roles
# (u_in, o_in, o_out, u_out), and the line's shape for error messages
_TRACE_LINES = {
    "traceA": (re.compile(r"([0-9]+)>([0-9]+) ([0-9]+)>([0-9]+)"), (0, 2, 1, 3),
               "traceA (+|-) <in1>><out1> <in2>><out2> <x> <y>"),
    "traceB": (re.compile(r"sink\(([0-9]+),([0-9]+)\) source\(([0-9]+),([0-9]+)\)"), (0, 1, 3, 2),
               "traceB (+|-) sink(<e1>,<e2>) source(<e3>,<e4>) <x> <y>"),
}


def _line_ints(lineno: int, fields: Sequence[str]) -> List[int]:
    try:
        return [parse_int(f) for f in fields]
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
    and (e3, e2) at - for traceB.  Every edge must be colored by one
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
    for lineno, ln in content_lines(text):
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
            if edge in colors:
                raise ValueError(f"line {lineno}: edge {edge} is colored more than once")
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
