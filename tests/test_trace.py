import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracebracket import fixture_text
from tracebracket.biquandle import trivial_biquandle
from tracebracket.bracket import (_crossings_plan, _triple_table, bracket_invariant,
                                  classify_adequacy, constant_bracket,
                                  crossing_coefficient_pair, failing_identity, identity_text,
                                  make_bracket, pair_delta, parse_bracket, raw_slot, state_sum)
from tracebracket.coloring import enumerate_colorings
from tracebracket.diagram import (OrientedDiagram, diagram, hopf_pos, join_ends,
                                  switch_crossing, trefoil_pos, trefoil_rii, unknot0,
                                  unknot_kink, writhe_counts)
from tracebracket.rings import ModElement, ModRing, hermite_normal_form
from tracebracket.search import search_brackets
from tracebracket.trace import (MultiComponentCrossingError, NotRIReducibleError,
                                TraceDiagram, all_moves,
                                diagrammatic_adequacy,
                                diagrammatic_passthrough, evaluate_by_parity,
                                evaluate_open, evaluate_recursive,
                                evaluate_recursive_parity, from_colored_diagram,
                                magnetic_parity, move_by_id, parse_trace_diagram,
                                parity_applicable, replace_with_trace, ri_reducible,
                                trace_move_fixture_check, _cancel_units, _compiled_move,
                                _family_basis, _family_table, _seed_identities,
                                _tangle_trace_diagram, _unit_exponents)


def fixture_diagrams():
    return [unknot0(), unknot_kink(1), unknot_kink(-1), hopf_pos(),
            trefoil_pos(), trefoil_rii()]


def random_code(rng, n_crossings):
    """A seeded random crossing code; planarity is not checked."""
    outs, ins = list(range(1, 2 * n_crossings + 1)), list(range(1, 2 * n_crossings + 1))
    rng.shuffle(outs)
    rng.shuffle(ins)
    return diagram([(rng.choice([1, -1]), ins[2 * i], ins[2 * i + 1], outs[2 * i],
                     outs[2 * i + 1]) for i in range(n_crossings)])


def components(adj):
    """Connected components of an undirected graph given as adjacency lists."""
    seen = set()
    for start in adj:
        if start not in seen:
            component, stack = [], [start]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    component.append(v)
                    stack.extend(adj[v])
            yield component


# the smoothings by crossing role and the pass-through pairings of each node
# kind, written out here so that the oracles share no table with the engine
ORACLE_SMOOTHINGS = {"A": (("u_in", "o_out"), ("o_in", "u_out")),
                     "B": (("u_in", "o_in"), ("u_out", "o_out"))}
ORACLE_PASS = {"x": (("u_in", "u_out"), ("o_in", "o_out")),
               "a": (("u_in", "o_out"), ("o_in", "u_out")),
               "b": (("u_in", "o_in"), ("u_out", "o_out"))}
ROLES = ("u_in", "o_in", "o_out", "u_out")
# the role each role is paired with by ORACLE_PASS
ORACLE_PARTNER = {kind: {r: s for pair in pairs for r, s in (pair, pair[::-1])}
                  for kind, pairs in ORACLE_PASS.items()}


def oracle_ends(td):
    """Each edge label -> the (node, role) slots it joins."""
    ends = {}
    for nid, node in td.nodes.items():
        for role in ROLES:
            ends.setdefault(getattr(node, role), []).append((nid, role))
    return ends


def brute_force_state_sum(d, coloring, beta):
    """All 2^c states, each state's circles counted by walking its pairings."""
    total = beta.ring.zero()
    for state in itertools.product("AB", repeat=len(d.crossings)):
        term = beta.ring.one()
        adj = {s: [] for s in d.semiarcs()}
        for c, choice in zip(d.crossings, state):
            x, y = crossing_coefficient_pair(c, coloring)
            coeff = beta.a(x, y) if choice == "A" else beta.b(x, y)
            term = term * (coeff if c.sign > 0 else coeff.inverse())
            for r, s in ORACLE_SMOOTHINGS[choice]:
                adj[getattr(c, r)].append(getattr(c, s))
                adj[getattr(c, s)].append(getattr(c, r))
        circles = len(list(components(adj))) + d.free_loops
        total = total + term * beta.delta ** circles
    pos, neg = writhe_counts(d)
    return beta.w ** (neg - pos) * total


def test_recursive_equals_state_sum(bq1, bq2, bq3, br_gen, br_z7, br_z5, br_z7_bq3):
    # both run the contraction engine; the oracle enumerates every state
    rng = random.Random(2718)
    codes = [random_code(rng, rng.randint(1, 8)) for _ in range(30)]
    cases = [(bq1, br_gen), (bq2, br_z7)] + [(bq3, b) for b in br_z5 + [br_z7_bq3]]
    for bq, beta in cases:
        colored = [(d, col) for d in fixture_diagrams() for col in enumerate_colorings(d, bq)]
        random_colored = [(d, col) for d in codes for col in enumerate_colorings(d, bq)[:2]]
        assert len(random_colored) >= 10
        for d, col in colored + random_colored:
            expected = brute_force_state_sum(d, col, beta)
            assert state_sum(d, col, beta) == expected
            assert evaluate_recursive(from_colored_diagram(d, bq, col), beta) == expected


def shuffled_closure(rng, braid_closure, strands, length):
    """A seeded braid closure and the same diagram with its crossings permuted."""
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    d = braid_closure(word, strands)
    rows = list(d.crossings)
    rng.shuffle(rows)
    return d, OrientedDiagram(tuple(rows), d.free_loops)


def test_state_sum_any_crossing_order(bq1, bq2, bq3, br_gen, br_z7, br_z5, braid_closure):
    # state_sum contracts in greedy order whatever order the crossings come in
    rng = random.Random(1515)
    for bq, beta in [(bq1, br_gen), (bq2, br_z7)] + [(bq3, b) for b in br_z5]:
        for strands in (3, 5):
            for length in (2, 5, 8):
                d, shuffled = shuffled_closure(rng, braid_closure, strands, length)
                for col in enumerate_colorings(d, bq)[:3]:
                    assert state_sum(shuffled, col, beta) == brute_force_state_sum(d, col, beta)
        for strands, length in ((3, 30), (5, 40)):
            d, shuffled = shuffled_closure(rng, braid_closure, strands, length)
            for col in enumerate_colorings(d, bq)[:2]:
                assert state_sum(shuffled, col, beta) == state_sum(d, col, beta)


def test_state_sum_plan_cache_serves_each_diagram_its_own_plan(bq1, bq2, br_gen, br_z7,
                                                               braid_closure):
    # two closures with the same crossing count, in alternation, and a
    # diagram followed by its switch, each against a run on an empty cache
    rng = random.Random(77)
    d1 = braid_closure([1, 2, -1, 2, 2, 1, -2, 1], 3)
    d2 = shuffled_closure(rng, braid_closure, 3, 8)[1]
    d3 = switch_crossing(d1, 2)
    for bq, beta in ((bq1, br_gen), (bq2, br_z7)):
        expected = {}
        for d in (d1, d2, d3):
            for col in enumerate_colorings(d, bq):
                _crossings_plan.cache_clear()
                expected[d, col] = state_sum(d, col, beta)
                assert expected[d, col] == brute_force_state_sum(d, col, beta)
        _crossings_plan.cache_clear()
        for d in (d1, d2, d1, d2, d1, d3, d1, d3):
            for col in enumerate_colorings(d, bq):
                assert state_sum(d, col, beta) == expected[d, col]


def test_state_sum_table_reads_each_crossings_coefficient_slots(bq1, bq2, bq3, a312,
                                                                braid_closure):
    # the plan table's A and B slots at the pair (0, 0), offset by the
    # colors of the frame's (a, c), are raw_slot at the coefficient pair,
    # at every crossing of every coloring; so coefficient_pair stays the one
    # statement of where a crossing reads its coefficients
    rng = random.Random(404)
    signs, loops = set(), set()
    for bq in (bq1, bq2, bq3, a312):
        n = bq.n
        for k, (strands, length) in enumerate(((2, 3), (3, 5), (3, 6), (4, 7))):
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
            d = OrientedDiagram(braid_closure(word, strands).crossings, free_loops=k % 3)
            _plan, slots, writhe = _crossings_plan(d.crossings, n)
            pos, neg = writhe_counts(d)
            assert writhe == neg - pos
            colorings = enumerate_colorings(d, bq)
            assert colorings
            for col in colorings:
                for c, (a_slot, b_slot, a, cc) in zip(d.crossings, slots):
                    pair = crossing_coefficient_pair(c, col)
                    offset = col[a] * n + col[cc]
                    assert a_slot + offset == raw_slot(n, "A", c.sign, pair)
                    assert b_slot + offset == raw_slot(n, "B", c.sign, pair)
            signs |= {c.sign for c in d.crossings}
            loops.add(d.free_loops)
    assert signs == {1, -1} and loops == {0, 1, 2}


def test_state_sum_plan_cache_keys_by_color_count(bq1, bq2, bq3, br_gen, br_z7, br_z5,
                                                  braid_closure):
    # the same crossings under brackets on 2, 3 and 1 colors, in
    # alternation: each is served the raw slots of its own color count.
    # The shipped Z5 brackets have delta = 0, so every closed state sum
    # over them is 0; the Laurent bracket's is not.
    d = braid_closure([1, -2, 1, 2, -1, -2], 3)
    _crossings_plan.cache_clear()
    for _ in range(2):
        for bq, beta in ((bq2, br_z7), (bq3, br_z5[0]), (bq1, br_gen)):
            colorings = enumerate_colorings(d, bq)
            assert colorings
            for col in colorings:
                assert state_sum(d, col, beta) == brute_force_state_sum(d, col, beta)


def expand_open(td, beta):
    """Boundary resolution of an open trace diagram by expanding its first
    crossing into both smoothings, each weighted by its raw coefficient, and
    each crossingless leaf resolved by walking its strands."""
    xs = td.crossings()
    if xs:
        out = {}
        node = td.nodes[xs[0]]
        for kind in "AB":
            coeff = beta.ring.wrap(beta.raw[raw_slot(beta.bq.n, kind, node.sign, node.pair)])
            child = replace_with_trace(td, xs[0], kind)
            for pairing, value in expand_open(child, beta).items():
                out[pairing] = out[pairing] + coeff * value if pairing in out else coeff * value
        return out
    adj = {}
    uses = {}
    for node in td.nodes.values():
        for role in ROLES:
            label = getattr(node, role)
            uses[label] = uses.get(label, 0) + 1
        for r, s in ORACLE_PASS[node.kind]:
            adj.setdefault(getattr(node, r), []).append(getattr(node, s))
            adj.setdefault(getattr(node, s), []).append(getattr(node, r))
    boundary = {label for label, n in uses.items() if n == 1}
    pairs, circles = [], td.free_circles
    for component in components(adj):
        ends = [label for label in component if label in boundary]
        if ends:
            pairs.append(frozenset(ends))
        else:
            circles += 1
    signs = [node.sign for node in td.nodes.values()]
    return {frozenset(pairs): beta.w ** (signs.count(-1) - signs.count(1))
            * beta.delta ** circles}


def test_evaluate_open_equals_smoothing_expansion(bq2, br_z7):
    zero = br_z7.ring.zero()
    for move in all_moves():
        for seeds in itertools.product(range(bq2.n), repeat=3):
            seed_map = dict(zip(("Sin", "Uin", "Vin"), seeds))
            for side in (move.before, move.after):
                td = _tangle_trace_diagram(side, bq2, seed_map, move.kind)
                expected = {p: v for p, v in expand_open(td, br_z7).items() if v != zero}
                assert evaluate_open(td, br_z7) == expected


def test_expansion_order_independence(bq2, br_z7, bq1, br_gen):
    # the plan's greedy order starts from the first of td.nodes and breaks ties
    # by position there, so shuffling td.nodes changes the placement order
    rng = random.Random(4242)
    for bq, beta, d in [(bq2, br_z7, hopf_pos()), (bq1, br_gen, trefoil_rii())]:
        col = enumerate_colorings(d, bq)[0]
        plain = from_colored_diagram(d, bq, col)
        for td in (plain, replace_with_trace(plain, 0, "B")):
            reference = evaluate_recursive(td, beta)
            for _ in range(6):
                order = list(td.nodes)
                rng.shuffle(order)
                shuffled = TraceDiagram({i: td.nodes[i] for i in order}, td.free_circles)
                assert evaluate_recursive(shuffled, beta) == reference


def test_smooth_coefficients(bq2, br_z7):
    col = enumerate_colorings(hopf_pos(), bq2)[0]
    td = from_colored_diagram(hopf_pos(), bq2, col)
    node = td.nodes[0]
    x, y = node.pair
    coeff_a = br_z7.ring.wrap(br_z7.raw[raw_slot(bq2.n, "A", node.sign, node.pair)])
    coeff_b = br_z7.ring.wrap(br_z7.raw[raw_slot(bq2.n, "B", node.sign, node.pair)])
    td_a = replace_with_trace(td, 0, "A")
    assert coeff_a == br_z7.a(x, y)
    assert coeff_b == br_z7.b(x, y)
    assert len(td_a.crossings()) == 1
    assert len(td_a.traces()) == 1


def test_negative_crossing_coefficient_inverted(bq1, br_gen):
    col = (0, 0)
    td = from_colored_diagram(unknot_kink(-1), bq1, col)
    node = td.nodes[0]
    coeff_a = br_gen.ring.wrap(br_gen.raw[raw_slot(bq1.n, "A", node.sign, node.pair)])
    coeff_b = br_gen.ring.wrap(br_gen.raw[raw_slot(bq1.n, "B", node.sign, node.pair)])
    assert coeff_a == br_gen.a(0, 0).inverse()
    assert coeff_b == br_gen.b(0, 0).inverse()


def test_crossingless_values(bq1, br_gen):
    td = from_colored_diagram(unknot0(), bq1, (0,))
    assert td.crossings() == []
    assert evaluate_recursive(td, br_gen) == br_gen.delta
    # two circles, one +A trace and one -B trace: w cancels, delta^2
    td = from_colored_diagram(hopf_pos(), bq1, (0,) * 4)
    td = replace_with_trace(td, 0, "A")
    td = replace_with_trace(td, 1, "B")
    # hand-tune signs: rebuild nodes with opposite trace signs
    nodes = dict(td.nodes)
    ids = sorted(nodes)
    nodes[ids[0]] = dataclasses.replace(nodes[ids[0]], sign=+1)
    nodes[ids[1]] = dataclasses.replace(nodes[ids[1]], sign=-1)
    td2 = TraceDiagram(nodes, td.free_circles)
    k = td2.free_circles + len(td2.curves)
    assert td2.crossings() == []
    assert evaluate_recursive(td2, br_gen) == br_gen.delta ** k


def test_worked_trace_example(bq1, bq2, br_gen, br_z7):
    # smoothing the first trefoil crossing disorientedly leaves two positive
    # crossings of odd magnetic parity on a kink-reducible diagram
    for bq, beta in ((bq1, br_gen), (bq2, br_z7)):
        col = enumerate_colorings(trefoil_pos(), bq)[0]
        td = replace_with_trace(from_colored_diagram(trefoil_pos(), bq, col), 0, "B")
        assert len(td.curves) == 1
        assert [magnetic_parity(td, c) for c in td.crossings()] == ["odd", "odd"]
        assert ri_reducible(td)
        phi = evaluate_by_parity(td, beta)
        assert phi == evaluate_recursive(td, beta)


def test_worked_trace_example_value(bq1, br_gen):
    # phi(c1) phi(c2) delta w^-3 with both parities odd
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    td = replace_with_trace(from_colored_diagram(trefoil_pos(), bq1, col), 0, "B")
    a, b, delta, w = (br_gen.a(0, 0), br_gen.b(0, 0), br_gen.delta, br_gen.w)
    phi = a + delta * b
    assert evaluate_by_parity(td, br_gen) == phi * phi * delta * w ** -3


def test_oriented_smoothed_trefoil_is_multicomponent(bq1, br_gen):
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    td = replace_with_trace(from_colored_diagram(trefoil_pos(), bq1, col), 0, "A")
    assert [magnetic_parity(td, c) for c in td.crossings()] == ["multi", "multi"]
    with pytest.raises(MultiComponentCrossingError):
        evaluate_by_parity(td, br_gen)


def test_partially_expanded_parities(bq1, br_gen):
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    td = from_colored_diagram(trefoil_pos(), bq1, col)
    td_a = replace_with_trace(td, 0, "A")
    td_aa = replace_with_trace(td_a, 1, "A")
    td_ab = replace_with_trace(td_a, 1, "B")
    (c_aa,) = td_aa.crossings()
    (c_ab,) = td_ab.crossings()
    assert magnetic_parity(td_aa, c_aa) == "even"
    assert magnetic_parity(td_ab, c_ab) == "odd"
    assert evaluate_by_parity(td_aa, br_gen) == evaluate_recursive(td_aa, br_gen)
    assert evaluate_by_parity(td_ab, br_gen) == evaluate_recursive(td_ab, br_gen)


def test_trefoil_is_not_kink_reducible(bq1):
    td = from_colored_diagram(trefoil_pos(), bq1, (0,) * 6)
    assert not ri_reducible(td)
    assert magnetic_parity(td, 0) == "even"       # knot, no traces: zero reversals


def test_kink_diagram_is_reducible(bq1):
    td = from_colored_diagram(unknot_kink(1), bq1, (0, 0))
    assert ri_reducible(td)
    assert parity_applicable(td)
    # a curl whose loop and outer arc each carry a curl: crossing 0 becomes a
    # kink only once crossing 1 is removed
    nested = diagram([(1, 3, 6, 1, 4), (1, 1, 2, 3, 2), (1, 4, 5, 6, 5)])
    assert ri_reducible(from_colored_diagram(nested, bq1, (0,) * 6))


def test_parity_stop_recursion_matches(bq1, bq2, bq3, br_gen, br_z7, br_z5, br_z7_bq3):
    # br_z5 has delta = 0, so its closed values are all 0; br_z7_bq3 has delta = 1
    cases = [(bq1, br_gen), (bq2, br_z7), (bq3, br_z5[0]), (bq3, br_z5[3]), (bq3, br_z7_bq3)]
    for bq, beta in cases:
        for d in fixture_diagrams():
            for col in enumerate_colorings(d, bq):
                td = from_colored_diagram(d, bq, col)
                assert (evaluate_recursive_parity(td, beta)
                        == evaluate_recursive(td, beta))


def traceless_trefoil_text():
    """The all-positive trefoil as a trace-diagram file, every edge colored 1."""
    return fixture_text("trefoil_pos.dgm") + "".join(f"color {e} 1\n" for e in range(1, 7))


def test_parity_refuses_what_kink_removal_leaves_knotted():
    # kink removal leaves all three crossings of the trefoil, so the parity
    # evaluator refuses it and the recursion expands it instead
    bq = trivial_biquandle(1)
    beta = parse_bracket(fixture_text("br_laurent.txt"), bq)
    td, _colors = parse_trace_diagram(traceless_trefoil_text(), bq)
    assert not ri_reducible(td)
    with pytest.raises(NotRIReducibleError, match="not kink-reducible"):
        evaluate_by_parity(td, beta)
    assert evaluate_recursive_parity(td, beta) == evaluate_recursive(td, beta)


def reversals_per_component(td):
    """Walk each component of the trace-deleted curve once, counting the
    sink/source visits, where the walk leaves a node on the side it arrived."""
    ends = oracle_ends(td)
    seen, counts = set(), []
    for start in ends:
        if start in seen:
            continue
        label, here, reversals = start, ends[start][0], 0
        while label not in seen:
            seen.add(label)
            nid, role = next(end for end in ends[label] if end != here)
            leave = ORACLE_PARTNER[td.nodes[nid].kind][role]
            reversals += role.endswith("in") == leave.endswith("in")
            here = (nid, leave)
            label = getattr(td.nodes[nid], leave)
        counts.append(reversals)
    return counts


def test_parity_total_reversals_even(bq1, bq2, br_gen):
    # the number of reversal vertices around any closed component is even,
    # so the parity between a crossing's passes is arc-independent; check by
    # walking every component of nested smoothings
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    td = replace_with_trace(from_colored_diagram(trefoil_pos(), bq1, col), 0, "B")
    for extra_kind in ("A", "B"):
        td2 = replace_with_trace(td, 1, extra_kind)
        counts = reversals_per_component(td2)
        assert len(counts) == len(td2.curves)
        assert sum(counts) == 2 * sum(1 for i in td2.traces() if td2.nodes[i].kind == "b")
        assert all(n % 2 == 0 for n in counts)
        for cid in td2.crossings():
            assert magnetic_parity(td2, cid) in ("odd", "even")


def test_hopf_multicomponent_with_b_trace(bq2, br_z7):
    # a B-trace inserted on one component (here: from a smoothed kink added
    # to that component) keeps both Hopf crossings multi-component, and a
    # multi-component crossing is never reported odd
    from tracebracket.diagram import diagram
    hopf_kinked = diagram([(1, 5, 4, 2, 3), (1, 3, 2, 4, 1), (1, 1, 6, 5, 6)])
    cols = enumerate_colorings(hopf_kinked, bq2)
    assert cols
    td = replace_with_trace(from_colored_diagram(hopf_kinked, bq2, cols[0]), 2, "B")
    for cid in td.crossings():
        assert magnetic_parity(td, cid) == "multi"
    # and smoothing a crossing between the components merges them: the
    # remaining crossing becomes single-component with a definite parity
    col = enumerate_colorings(hopf_pos(), bq2)[0]
    td = from_colored_diagram(hopf_pos(), bq2, col)
    assert magnetic_parity(replace_with_trace(td, 0, "A"), 1) == "even"
    assert magnetic_parity(replace_with_trace(td, 0, "B"), 1) == "odd"


def reference_parity(td, cid):
    """Magnetic parity by its own walk: out of the crossing's under-pass exit
    until the walk comes back to the crossing, counting the sink/source
    visits; 'multi' if it comes back at the under-pass."""
    ends = oracle_ends(td)
    count, here = 0, (cid, "u_out")
    for _ in range(4 * len(td.nodes) + 4):
        first, second = ends[getattr(td.nodes[here[0]], here[1])]
        nid, role = second if first == here else first
        if nid == cid:
            if role.startswith("o"):
                return "odd" if count % 2 else "even"
            return "multi"
        leave = ORACLE_PARTNER[td.nodes[nid].kind][role]
        count += role.endswith("in") == leave.endswith("in")
        here = (nid, leave)
    raise AssertionError("parity walk did not terminate")


def reference_kink_leftover(td):
    """Kink removal on the arcs between crossing slots: remove any crossing
    whose under and over slots are joined by an arc, and join its other two
    slots, until no kink is left.  Returns the crossings left."""
    mate = {}
    for nid, node in td.nodes.items():
        if node.kind == "x":
            for role in ROLES:
                join_ends(mate, (nid, role), getattr(node, role))
        else:
            for r, s in ORACLE_PASS[node.kind]:
                join_ends(mate, getattr(node, r), getattr(node, s))
    remaining = set(td.crossings())
    while True:
        kink = next(((cid, us, os_) for cid in sorted(remaining)
                     for us, os_ in itertools.product(("u_in", "u_out"), ("o_in", "o_out"))
                     if mate.get((cid, us)) == (cid, os_)), None)
        if kink is None:
            return remaining
        cid, us, os_ = kink
        join_ends(mate, (cid, "u_out" if us == "u_in" else "u_in"),
                  (cid, "o_out" if os_ == "o_in" else "o_in"))
        remaining.discard(cid)


def reference_ri_reducible(td):
    """Does the reference kink removal leave no crossing?"""
    return not reference_kink_leftover(td)


def reference_leaves(td, first_crossing=False):
    """Leaves of the parity-stop recursion, stopping when the reference kink
    removal leaves no crossing and otherwise smoothing both ways the
    lowest-numbered crossing it leaves, or with ``first_crossing`` the
    lowest-numbered crossing of all."""
    left = reference_kink_leftover(td)
    if not left:
        return 1
    cid = td.crossings()[0] if first_crossing else min(left)
    return sum(reference_leaves(replace_with_trace(td, cid, k), first_crossing) for k in "AB")


def test_parity_stop_is_applied(monkeypatch, bq2, bq3, br_z7, br_z5, braid_closure):
    # the values agree whether or not the recursion stops early, so count
    # the leaves, where the recursion reads a diagram's parities to weigh it
    import tracebracket.trace as trace_module
    leaves = []
    parities = trace_module._parities

    def counting(curves):
        leaves.append(parities(curves))
        return leaves[-1]

    td, _ = parse_trace_diagram(fixture_text("trace_phi.tdg"), bq2)
    expected = parities(td.curves)
    monkeypatch.setattr(trace_module, "_parities", counting)
    evaluate_recursive_parity(td, br_z7)
    assert leaves == [expected]

    # seeded closures that are not kink-reducible, so the root is expanded
    rng = random.Random(2029)
    stopped_early = fewer_than_first_crossing = False
    for bq, beta in ((bq2, br_z7), (bq3, br_z5[0])):
        checked = 0
        while checked < 12:
            strands = rng.randint(2, 3)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(8)]
            d = braid_closure(word, strands)
            td = from_colored_diagram(d, bq, rng.choice(enumerate_colorings(d, bq)))
            for cid in rng.sample(td.crossings(), rng.randint(1, 3)):
                td = replace_with_trace(td, cid, rng.choice("AB"))
            if reference_ri_reducible(td):
                continue
            leaves.clear()
            evaluate_recursive_parity(td, beta)
            assert len(leaves) == reference_leaves(td)
            # expanding what blocks the stop never makes more leaves than
            # expanding the first crossing
            first_crossing = reference_leaves(td, first_crossing=True)
            assert len(leaves) <= first_crossing
            stopped_early |= len(leaves) < 2 ** len(td.crossings())
            fewer_than_first_crossing |= len(leaves) < first_crossing
            checked += 1
    assert stopped_early and fewer_than_first_crossing


def test_patched_walks_equal_rebuilt_diagrams(monkeypatch, bq2, bq3, br_z7, br_z7_bq3,
                                              braid_closure):
    # the recursion walks each diagram it visits on its parent's kind list
    # and leave array with the expanded node patched; each walk must give
    # what the diagram that replace_with_trace builds along the same path
    # gives, and what the reference walks give
    import tracebracket.trace as trace_module
    walk, walks = trace_module._walk, []

    def recording(ids, kinds, links, leave):
        curves = walk(ids, kinds, links, leave)
        walks.append((kinds, curves))
        return curves

    rng = random.Random(3301)
    visited = 0
    for bq, beta in ((bq2, br_z7), (bq3, br_z7_bq3)):
        for _ in range(20):
            strands = rng.randint(2, 3)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(9)]
            d = braid_closure(word, strands)
            td = from_colored_diagram(d, bq, rng.choice(enumerate_colorings(d, bq)))
            for cid in rng.sample(td.crossings(), rng.randint(1, 3)):
                td = replace_with_trace(td, cid, rng.choice("AB"))
            td.curves       # the root's walk, before the recorder is in place
            walks.clear()
            monkeypatch.setattr(trace_module, "_walk", recording)
            assert evaluate_recursive_parity(td, beta) == evaluate_recursive(td, beta)
            monkeypatch.setattr(trace_module, "_walk", walk)
            for kinds, curves in walks:
                smoothed = {cid: kind for cid, kind in zip(td.nodes, kinds)
                            if kind != td.nodes[cid].kind}
                rebuilt = td
                for cid in sorted(smoothed):
                    rebuilt = replace_with_trace(rebuilt, cid, smoothed[cid].upper())
                assert curves == rebuilt.curves
                assert len(curves) == reference_circles(rebuilt)
                assert trace_module._kink_leftover(curves) == reference_kink_leftover(rebuilt)
                assert trace_module._parities(curves) == {
                    cid: reference_parity(rebuilt, cid) for cid in rebuilt.crossings()}
            visited += len(walks)
    assert visited >= 200


def reference_circles(td):
    """Trace-deleted circles by joining path ends."""
    mate = {}
    return td.free_circles + sum(join_ends(mate, getattr(node, r), getattr(node, s))
                                 for node in td.nodes.values()
                                 for r, s in ORACLE_PASS[node.kind])


def test_curve_walk_matches_reference_walks(bq1, bq2, bq3, a312, braid_closure):
    # seeded closures of 2- to 4-strand braids with random A/B traces
    rng = random.Random(1117)
    parities, verdicts, checked = [], set(), 0
    for bq in (bq1, bq2, bq3, a312):
        for _ in range(300):
            strands = rng.randint(2, 4)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(strands - 1, 12))]
            d = braid_closure(word, strands)
            td = from_colored_diagram(d, bq, rng.choice(enumerate_colorings(d, bq)))
            for cid in rng.sample(td.crossings(), rng.randint(0, len(td.crossings()))):
                td = replace_with_trace(td, cid, rng.choice("AB"))
            expected = [reference_parity(td, cid) for cid in td.crossings()]
            assert [magnetic_parity(td, cid) for cid in td.crossings()] == expected
            reducible = reference_ri_reducible(td)
            assert ri_reducible(td) == reducible
            assert parity_applicable(td) == reducible
            # the reference stop test (a parity at every crossing, and kink
            # reducibility) is kink reducibility alone
            reference_applicable = "multi" not in expected and reducible
            assert reference_applicable == reducible
            assert td.free_circles + len(td.curves) == reference_circles(td)
            parities += expected
            verdicts.add(reducible)
            checked += 1
    assert checked >= 1000
    assert set(parities) == {"multi", "odd", "even"}
    assert verdicts == {True, False}


def test_recursion_matches_state_sum_and_reference_kink_removal(bq1, bq2, bq3, br_gen, br_z7,
                                                                br_z5, br_z7_bq3, braid_closure):
    # seeded closures of 2- to 4-strand braids with random A/B traces: the
    # crossings that kink removal leaves are the reference's, and the
    # parity-stop recursion that expands them gives the full state sum
    # (on bq3 also with br_z7_bq3, as br_z5's delta = 0 makes every closed
    # value 0)
    rng = random.Random(4111)
    blocked = 0
    for bq, brackets in ((bq1, [br_gen]), (bq2, [br_z7]), (bq3, br_z5 + [br_z7_bq3])):
        for _ in range(300):
            strands = rng.randint(2, 4)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(strands - 1, 12))]
            d = braid_closure(word, strands)
            td = from_colored_diagram(d, bq, rng.choice(enumerate_colorings(d, bq)))
            for cid in rng.sample(td.crossings(), rng.randint(0, len(td.crossings()))):
                td = replace_with_trace(td, cid, rng.choice("AB"))
            assert td.kink_leftover == reference_kink_leftover(td)
            beta = rng.choice(brackets)
            assert evaluate_recursive_parity(td, beta) == evaluate_recursive(td, beta)
            blocked += bool(td.kink_leftover)
    assert blocked >= 300


def test_curves_keep_components_without_crossings(bq1, bq2):
    td = from_colored_diagram(hopf_pos(), bq1, (0,) * 4)
    td = replace_with_trace(replace_with_trace(td, 0, "A"), 1, "B")
    assert td.curves == [[]] * reference_circles(td)
    kink = from_colored_diagram(unknot_kink(1), bq1, (0, 0))
    assert kink.curves == [[(0, 0), (0, 0)]]
    # an open tangle's boundary edges have one end, so it has no closed curve
    move = all_moves()[0]
    tangle = _tangle_trace_diagram(move.before, bq2, {"Sin": 0, "Uin": 1, "Vin": 0}, move.kind)
    with pytest.raises(ValueError, match="open tangle"):
        tangle.curves


def test_tangle_seeds_that_miss_a_wire_raise(bq2):
    move = all_moves()[0]
    seed_map = {"Sin": 0, "Uin": 1, "Vin": 0}
    _tangle_trace_diagram(move.before, bq2, seed_map, move.kind)
    del seed_map["Vin"]
    with pytest.raises(ValueError, match="do not color every wire"):
        _tangle_trace_diagram(move.before, bq2, seed_map, move.kind)


def reference_move_check(bq, beta, move_id):
    """The move check without compilation: both sides colored from every
    seed and compared boundary-resolved by evaluate_open."""
    move = move_by_id(move_id)
    for seeds in itertools.product(range(bq.n), repeat=3):
        seed_map = {"Sin": seeds[0], "Uin": seeds[1], "Vin": seeds[2]}
        td_b = _tangle_trace_diagram(move.before, bq, seed_map, move.kind)
        if move.family == "through":
            x, y = td_b.nodes[0].pair
            if x != y:
                continue
        td_a = _tangle_trace_diagram(move.after, bq, seed_map, move.kind)
        if evaluate_open(td_b, beta) != evaluate_open(td_a, beta):
            return False
    return True


def assert_compiled_matches_reference(cases):
    """Every move on every (biquandle, bracket) case; returns the verdicts seen."""
    verdicts = set()
    for bq, beta in cases:
        for move in all_moves():
            verdict = trace_move_fixture_check(bq, beta, move.move_id)
            assert verdict == reference_move_check(bq, beta, move.move_id), move.move_id
            verdicts.add(verdict)
    return verdicts


def test_compiled_moves_match_reference_on_shipped(bq1, bq2, bq3, br_gen, br_z7, br_z5):
    cases = [(bq1, br_gen), (bq2, br_z7)] + [(bq3, beta) for beta in br_z5]
    assert assert_compiled_matches_reference(cases) == {True, False}


@pytest.mark.parametrize("spec, n", [("bq2", 5), ("bq3", 3), ("a312", 3)])
def test_compiled_moves_match_reference_on_searched(request, spec, n):
    bq = request.getfixturevalue(spec)
    cases = [(bq, beta) for beta, _cls in search_brackets(bq, n)]
    assert assert_compiled_matches_reference(cases) == {True, False}


# sha256 of the compiled identities of all 24 moves, their reprs joined by
# newlines in all_moves() order: a change to how the moves compile, or to
# the raw-vector slots their monomials name, shows here
COMPILED_DIGESTS = {
    "bq1": "0d51a22ac48c60566b1820b30fad8672ce0655f885daa4310cd77b1ec3d41e4d",
    "bq2": "e7f706d5c16b04b1e4d9ac87e629370c9a86378ca8188f58e92410f20dbdd6b6",
    "bq3": "8efa3294b8aff2cc1194758dadacf72d6ebb3c72d15513d91fb4d82c1380200a",
}


@pytest.mark.parametrize("name", sorted(COMPILED_DIGESTS))
def test_compiled_identities_are_pinned(request, name):
    bq = request.getfixturevalue(name)
    text = "\n".join(repr(_compiled_move(bq.under_table, bq.over_table, m.move_id))
                     for m in all_moves())
    assert hashlib.sha256(text.encode()).hexdigest() == COMPILED_DIGESTS[name]


def family_moves(family):
    return [m.move_id for m in all_moves() if m.family == family]


def assert_families_are_their_moves(cases):
    """The family verdicts equal the AND of the per-move checks, which
    test_compiled_moves_match_reference_* pin to reference_move_check;
    returns the verdicts seen."""
    verdicts = set()
    for bq, beta in cases:
        over, under, through = (all(trace_move_fixture_check(bq, beta, move_id)
                                    for move_id in family_moves(family))
                                for family in ("over", "under", "through"))
        assert diagrammatic_adequacy(bq, beta) == (over, under)
        assert diagrammatic_passthrough(bq, beta) == through
        verdicts.add((over, under, through))
    return verdicts


def test_family_verdicts_on_shipped(bq1, bq2, bq3, br_gen, br_z7, br_z5):
    cases = [(bq1, br_gen), (bq2, br_z7)] + [(bq3, beta) for beta in br_z5]
    assert len(assert_families_are_their_moves(cases)) > 1


# the biquandles and moduli whose searched brackets the trace benchmark checks
@pytest.mark.parametrize("spec, n", [("bq2", 5), ("bq3", 3), ("a312", 3), ("bq3", 4)])
def test_family_verdicts_on_searched(request, spec, n):
    bq = request.getfixturevalue(spec)
    cases = [(bq, beta) for beta, _cls in search_brackets(bq, n)]
    assert len(assert_families_are_their_moves(cases)) > 1


# each family's Hermite basis on the shipped biquandles, as identity_text
# renders it: the relations the over, under and pass-through verdicts check
GOLDEN_BASES = {
    "bq1": {"over": [], "under": [], "through": ["A[1,1]^2 B[1,1]^2 = w^4"]},
    "bq2": {
        "over": ["A[1,1] B[1,2] = A[2,2] B[2,1]", "A[1,2] B[2,2] = A[2,2] B[1,2]",
                 "A[2,1] B[2,2] = A[2,2] B[2,1]", "B[1,1] B[1,2] = B[2,1] B[2,2]"],
        "under": ["A[1,1] B[2,1] = A[2,2] B[1,2]", "A[1,2] B[2,2] = A[2,2] B[1,2]",
                  "A[2,1] B[2,2] = A[2,2] B[2,1]", "B[1,1] B[2,1] = B[1,2] B[2,2]"],
        "through": ["A[1,1] A[2,2] B[1,1] B[2,2] = w^4", "A[1,2] A[2,1] B[1,2] B[2,1] = w^4",
                    "A[2,1]^2 B[1,2]^2 = w^4", "A[2,2]^2 B[1,1]^2 = w^4"],
    },
    "bq3": {
        "over": ["A[1,1] B[3,3] = A[3,3] B[3,1]", "A[1,2] = A[3,2]", "A[1,3] = A[3,3]",
                 "A[2,1] B[3,3]^2 = A[3,3] B[2,3] B[3,1]", "A[2,2] B[3,2] = A[3,2] B[2,2]",
                 "A[2,3] B[3,3] = A[3,3] B[2,3]", "A[3,1] B[3,3] = A[3,3] B[3,1]",
                 "B[1,1] = B[3,1]", "B[1,2] = B[3,2]", "B[1,3] = B[3,3]",
                 "B[2,1] B[3,3] = B[2,3] B[3,1]"],
        "under": ["A[1,1] B[3,3] = A[3,3] B[1,3]", "A[1,2] B[3,3] = A[3,3] B[3,2]",
                  "A[1,3] B[3,3] = A[3,3] B[1,3]", "A[2,1] = A[2,3]",
                  "A[2,2] B[2,3] = A[2,3] B[2,2]", "A[3,1] = A[3,3]",
                  "A[3,2] B[3,3] = A[3,3] B[3,2]", "B[1,1] = B[1,3]", "B[1,2] = B[3,2]",
                  "B[2,1] = B[2,3]", "B[3,1] = B[3,3]"],
        "through": ["A[1,1] A[3,3] B[1,1] B[3,3] = w^4", "A[1,2] A[3,2] B[1,2] B[3,2] = w^4",
                    "A[1,3] A[3,1] B[1,3] B[3,1] = w^4", "A[2,1] A[2,3] B[2,1] B[2,3] = w^4",
                    "A[2,2]^2 B[2,2]^2 = w^4", "A[2,3]^2 B[2,1]^2 = w^4",
                    "A[3,1]^2 B[1,3]^2 = w^4", "A[3,2]^2 B[3,2]^2 = w^4",
                    "A[3,3]^2 B[1,1]^2 = w^4", "B[1,2]^2 = B[3,2]^2"],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BASES))
def test_family_bases_are_pinned(request, name):
    bq = request.getfixturevalue(name)
    for family, golden in GOLDEN_BASES[name].items():
        basis = _family_basis(bq.under_table, bq.over_table, family)
        assert [identity_text(bq.n, identity) for identity in basis] == golden, family


def random_unit_values(rng, ring, n):
    """[*A, *B, delta, w] of random unit tables on n colors that pass
    condition (ii), with any unit w: A[p] from a palette of one, two or all
    units, so that some tables pass each family, and B[p] = A[p] t_p with
    t_p a root of 1 + delta t + t^2, the roots that (ii) allows."""
    m = ring.modulus
    units = [u for u in range(1, m) if ring.is_unit(u)]
    palette = rng.sample(units, rng.choice((1, 2, len(units))))
    delta = pair_delta(ring, rng.choice(units), rng.choice(units)) % m
    roots = [t for t in units if (1 + delta * t + t * t) % m == 0]
    A = [rng.choice(palette) for _ in range(n * n)]
    B = [a * rng.choice(roots) % m for a in A]
    return [*A, *B, delta, rng.choice(units)]


@pytest.mark.parametrize("spec", ["bq2", "bq3", "a312"])
def test_basis_verdicts_equal_table_verdicts_on_random_units(request, spec):
    # searched brackets pass condition (iii), which hides any basis error
    # that (iii) makes up for; these tables need only pass (ii).  Z8 is
    # composite, and every unit squares to 1 there, so a basis that differs
    # from the table's lattice by torsion shows
    bq = request.getfixturevalue(spec)
    rng = random.Random(f"basis-{spec}")
    seen = {family: set() for family in ("over", "under", "through")}
    for m in (5, 7, 8):
        ring = ModRing(m)
        for _ in range(150):
            values = random_unit_values(rng, ring, bq.n)
            for family, verdicts in seen.items():
                table = _family_table(bq.under_table, bq.over_table, family)
                basis = _family_basis(bq.under_table, bq.over_table, family)
                verdict = failing_identity(table, values, ring) is None
                assert (failing_identity(basis, values, ring) is None) == verdict, (family, values)
                verdicts.add(verdict)
    assert all(verdicts == {True, False} for verdicts in seen.values())


def test_basis_compile_refuses_other_shapes(bq2, bq3, monkeypatch):
    import tracebracket.trace as trace_module
    # a trinomial of bq3's tables: on base entries A 0..8, B 9..17, delta 18,
    # 0 = A[1,1] A[1,3] + A[1,3] B[1,1] delta + B[1,1] B[1,3] is
    # A[1,1] B[1,3] = A[1,3] B[1,1] under condition (ii)
    trinomial = ((), ((0, 2), (2, 9, 18), (9, 11)))
    assert trinomial in _family_table(bq3.under_table, bq3.over_table, "over")
    assert (_unit_exponents(trinomial, 3)
            == [1, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    # on two colors the base entries are A 0..3, B 4..7, delta 8 and w 9
    # A[1,1] = B[1,1]
    assert _unit_exponents((((0,),), ((4,),)), 2) == [1, 0, 0, 0, -1, 0, 0, 0, 0, 0]
    # (ii) itself at (1,1), A^2 + A B delta + B^2 = 0, says nothing more
    assert not any(_unit_exponents(((), ((0, 0), (0, 4, 8), (4, 4))), 2))
    # q = A[1,2] B[1,2] with P/q = A[1,2]/B[1,2]: P R = q^2 says A[2,2] = B[1,2]
    assert (_unit_exponents(((), ((1, 1), (1, 5, 8), (3, 5))), 2)
            == [0, 0, 0, 1, 0, -1, 0, 0, 0, 0])
    bad = [
        ((), ((0,), (0, 8), (1,))),                 # P/q = 1, R/q = A[1,2]/A[1,1]
        ((), ((0, 1), (1, 5, 8), (2, 5))),          # P/q = A[1,1]/B[1,2], R/q = A[2,1]/A[1,2]
        ((), ((0, 0), (0, 4, 8, 8), (4, 4))),       # delta^2
        ((), ((0, 0), (0, 4), (4, 4))),             # no delta
        (((0, 0),), ((0, 4, 8), (4, 4))),           # terms on both sides
        (((0, 8),), ((4, 8),)),                     # a binomial that reads delta
        (((0,),), ((1,), (2,), (3,))),              # four terms
        ((), ((0, 0), (0, 4, 8), (4, 4), (9,))),
    ]
    for identity in bad:
        with pytest.raises(ValueError, match="not a unit binomial under condition"):
            _unit_exponents(identity, 2)
    # a table is compiled or refused whole, naming the identity at fault
    for table in ([(((0,),), ((4,),)), ((), ((0, 0), (0, 4, 8), (4, 4)))],
                  [(((0,),), ((4,),)), bad[0]]):
        monkeypatch.setattr(trace_module, "_family_table", lambda under, over, family: table)
        compile_basis = lambda: _family_basis.__wrapped__(bq2.under_table, bq2.over_table, "x")
        if table[1] in bad:
            with pytest.raises(ValueError, match=r"= A\[1,1\] \+ A\[1,1\] delta \+ A\[1,2\]$"):
                compile_basis()
        else:
            assert compile_basis() == ((((0,),), ((4,),)),)


def _quotient_index(sub, lattice):
    """The order of the torsion of lattice / sub, both Hermite bases and
    sub inside lattice: the index of sub in the part of lattice that sub
    spans over Q.  Each row of sub is written in lattice's basis, by its
    pivots, and the order is the gcd of those coordinates' maximal minors,
    the product of the pivots of their transpose's Hermite form."""
    coordinates = []
    for v in sub:
        x = []
        for row in lattice:
            col = next(j for j, e in enumerate(row) if e)
            q, r = divmod(v[col], row[col])
            assert r == 0
            x.append(q)
            v = [a - q * b for a, b in zip(v, row)]
        assert not any(v)
        coordinates.append(x)
    pivots = [next(e for e in row if e) for row in hermite_normal_form(zip(*coordinates))]
    return math.prod(pivots)


def test_quotient_index_worked_examples():
    assert _quotient_index([[2, 0]], [[1, 0]]) == 2
    assert _quotient_index([[1, 0]], [[1, 0], [0, 1]]) == 1
    assert _quotient_index([[2, 0], [0, 3]], [[1, 0], [0, 1]]) == 6
    assert _quotient_index([[2, 2]], [[1, 0], [0, 1]]) == 2
    assert _quotient_index([], [[1, 0]]) == 1


# per biquandle, the rank of condition (iii)'s binomials and, per family,
# (how many independent relations the family adds to them, the index of
# (iii)'s lattice in the part of (iii) plus the family that (iii) spans
# over Q); an index of 1 means a family relation that (iii) implies up to a
# power is implied by (iii) itself
BEYOND_III = {
    "bq1": (0, {"over": (0, 1), "under": (0, 1), "through": (1, 1)}),
    "bq2": (3, {"over": (2, 2), "under": (2, 2), "through": (2, 2)}),
    "bq3": (9, {"over": (3, 1), "under": (3, 1), "through": (4, 1)}),
    "a312": (14, {"over": (2, 3), "under": (1, 9), "through": (1, 9)}),
    "trivial3": (0, {"over": (6, 1), "under": (6, 1), "through": (9, 1)}),
}


@pytest.mark.parametrize("name", sorted(BEYOND_III))
def test_family_relations_beyond_condition_iii(request, name):
    bq = trivial_biquandle(3) if name == "trivial3" else request.getfixturevalue(name)
    rank, families = BEYOND_III[name]
    iii = hermite_normal_form(_unit_exponents(identity, bq.n)
                              for _tag, _triple, identity in _triple_table(bq)
                              if len(identity[0]) == len(identity[1]) == 1)
    assert len(iii) == rank
    for family, (added, index) in families.items():
        basis = [_unit_exponents(identity, bq.n)
                 for identity in _family_basis(bq.under_table, bq.over_table, family)]
        both = hermite_normal_form(iii + basis)
        assert (len(both) - rank, _quotient_index(iii, both)) == (added, index), family


def test_free_circles_are_powered_in_the_ring(bq1, monkeypatch):
    # delta^k over Z_7 for k free circles, with delta = 6: every raw value
    # wrapped stays small, where an unreduced int power would have some 26
    # million bits
    ring = ModRing(7)
    beta = constant_bracket(ring, ring.element(1), ring.element(3))
    assert beta.raw_delta == 6
    wrapped, wrap = [], ModRing.wrap
    monkeypatch.setattr(ModRing, "wrap", lambda self, v: wrapped.append(v) or wrap(self, v))
    k = 10 ** 7
    kink = diagram([(1, 1, 2, 1, 2)], k)
    td = from_colored_diagram(kink, bq1, (0, 0))
    want = ring.element(pow(6, k + 1, 7))          # the kink's own circle too
    assert evaluate_recursive(td, beta) == want
    assert evaluate_by_parity(td, beta) == want
    assert evaluate_recursive_parity(td, beta) == want
    assert evaluate_open(td, beta) == {frozenset(): want}
    assert evaluate_recursive(TraceDiagram({}, k), beta) == ring.element(pow(6, k, 7))
    # the closed state sum reads a coloring of every free loop, so fewer
    small = diagram([(1, 1, 2, 1, 2)], 10 ** 6)
    assert bracket_invariant(small, bq1, beta).multiset == {ring.element(pow(6, 10 ** 6 + 1, 7)): 1}
    assert len(wrapped) > 5 and max(map(abs, wrapped)) < 2 ** 64


def test_move_checks_build_no_ring_element(bq2, monkeypatch):
    # the family verdicts and single-move checks sum the raw ints of each
    # searched bq2/Z5 bracket and build no ring element for it
    cases = [beta for beta, _cls in search_brackets(bq2, 5)]
    made = []
    init = ModElement.__init__
    monkeypatch.setattr(ModElement, "__init__",
                        lambda self, ring, value: made.append(value) or init(self, ring, value))
    for beta in cases:
        diagrammatic_adequacy(bq2, beta)
        diagrammatic_passthrough(bq2, beta)
        for move in all_moves():
            trace_move_fixture_check(bq2, beta, move.move_id)
    assert len(cases) == 256 and made == []


def test_family_table_is_the_union_of_its_eight_moves(bq1, bq2, bq3, a312):
    for bq in (bq1, bq2, bq3, a312):
        for family in ("over", "under", "through"):
            moves = family_moves(family)
            assert len(moves) == 8
            union = {identity for move_id in moves
                     for identity in _compiled_move(bq.under_table, bq.over_table, move_id)}
            table = _family_table(bq.under_table, bq.over_table, family)
            assert len(table) == len(set(table))
            assert set(table) == union


def test_compiled_identities_are_cancelled(bq1, bq2, bq3, a312):
    # every compiled identity reads base slots only, its sides and monomials
    # are sorted, and no unit key divides all of its monomials
    for bq in (bq1, bq2, bq3, a312):
        n = bq.n
        delta = raw_slot(n, "delta")
        bases = ({raw_slot(n, k, 1, pair) for k in "AB"
                  for pair in itertools.product(range(n), repeat=2)}
                 | {delta, raw_slot(n, "w")})
        for move in all_moves():
            for lhs, rhs in _compiled_move(bq.under_table, bq.over_table, move.move_id):
                monomials = lhs + rhs
                assert lhs <= rhs and list(lhs) == sorted(lhs) and list(rhs) == sorted(rhs)
                assert all(list(m) == sorted(m) and set(m) <= bases for m in monomials)
                assert not set.intersection(*(set(m) for m in monomials)) - {delta}


def test_cancel_keeps_delta_and_clears_inverses():
    # on one color the keys are A 0, B 1, delta 2 and w 3:
    # A delta - B^-1 delta w = B^-1 (A B delta - delta w)
    assert (_cancel_units({((0, 1), (2, 1)): 1, ((1, -1), (2, 1), (3, 1)): -1}, 2)
            == (((0, 1, 2),), ((2, 3),)))
    # -w^-1 A + w^-1 delta A^2 = -(w^-1 A) (1 - delta A)
    assert (_cancel_units({((0, 1), (3, -1)): -1, ((0, 2), (2, 1), (3, -1)): 1}, 2)
            == (((),), ((0, 2),)))
    # delta divides both terms and stays; a count of 2 is two copies
    assert (_cancel_units({((0, 1), (2, 1)): 2, ((1, 1), (2, 1)): -1}, 2)
            == (((0, 2), (0, 2)), ((1, 2),)))


# (key, exponent) pairs over the one-color keys A 0, B 1, delta 2 and w 3
EXPONENTS = st.tuples(*(st.integers(0, 2),) * 4).map(
    lambda exps: tuple((key, e) for key, e in zip((0, 1, 2, 3), exps) if e))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(reduced=st.dictionaries(EXPONENTS, st.sampled_from((-2, -1, 1, 2)), min_size=1,
                               max_size=4),
       unit=st.tuples(*(st.integers(-2, 2),) * 3), sign=st.sampled_from((1, -1)))
def test_cancelled_identities_keep_delta(reduced, unit, sign):
    # a sum with no unit key common to all of its terms, times any unit
    # monomial and either sign, cancels to that sum: delta is kept in every
    # term, and the terms counting up and down land on opposite sides
    assume(not set.intersection(*({key for key, _ in m} for m in reduced)) - {2})
    scaled = {}
    for m, count in reduced.items():
        exps = dict(m)
        for key, e in zip((0, 1, 3), unit):
            exps[key] = exps.get(key, 0) + e
        scaled[tuple(sorted((key, e) for key, e in exps.items() if e))] = sign * count
    sides = ([], [])
    for m, count in reduced.items():
        sides[count < 0].extend([tuple(key for key, e in m for _ in range(e))] * abs(count))
    assert _cancel_units(scaled, 2) == tuple(sorted(tuple(sorted(side)) for side in sides))


def test_passthrough_tables_are_binomials(bq1, bq2, bq3, a312):
    # every pass-through identity says that two A entries times two B
    # entries equal w^4
    for bq, count in ((bq1, 1), (bq2, 6), (bq3, 15), (a312, 19)):
        n = bq.n
        a_slots = range(raw_slot(n, "A"), raw_slot(n, "A") + n * n)
        b_slots = range(raw_slot(n, "B"), raw_slot(n, "B") + n * n)
        table = _family_table(bq.under_table, bq.over_table, "through")
        assert len(table) == count
        for ((a1, a2, b1, b2),), rhs in table:
            assert rhs == ((raw_slot(n, "w"),) * 4,)
            assert {a1, a2} <= set(a_slots) and {b1, b2} <= set(b_slots)
    # on bq2, with (p, q) running over ((0,0), (1,1)) and ((0,1), (1,0)):
    # A_p A_q B_p B_q = A_p^2 B_q^2 = A_q^2 B_p^2 = w^4
    conditions = set()
    for p, q in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
        a = {pair: raw_slot(2, "A", 1, pair) for pair in (p, q)}
        b = {pair: raw_slot(2, "B", 1, pair) for pair in (p, q)}
        conditions |= {(a[p], a[q], b[p], b[q]), (a[p], a[p], b[q], b[q]),
                       (a[q], a[q], b[p], b[p])}
    table = _family_table(bq2.under_table, bq2.over_table, "through")
    assert {lhs for (lhs,), _ in table} == {tuple(sorted(c)) for c in conditions}


def test_passthrough_witness_reads_off_diagonal_entries(bq2):
    # a bq2/Z5 bracket whose diagonal entries satisfy A[x][x]^2 B[y][y]^2 = 1
    # and that the tangles reject: at the monochromatic seeds of its failing
    # move, the compiled identities read only the off-diagonal entries
    # (0, 1), (1, 0)
    ring = ModRing(5)
    beta = make_bracket(bq2, ring, [[ring.element(v) for v in row] for row in ((1, 1), (2, 1))],
                        [[ring.element(v) for v in row] for row in ((4, 4), (3, 4))])
    move = move_by_id("through_B_pos_over_F")
    assert not classify_adequacy(beta).passthrough
    assert not trace_move_fixture_check(bq2, beta, move.move_id)
    for seeds in ((0, 0, 0), (1, 1, 1)):
        identities = _seed_identities(bq2, move, seeds)
        assert len(identities) == 4
        read = {i for identity in identities for side in identity for monomial in side
                for i in monomial}
        assert {pair for k in "AB" for pair in itertools.product(range(2), repeat=2)
                if raw_slot(2, k, 1, pair) in read} == {(0, 1), (1, 0)}


def test_move_catalog_counts():
    moves = all_moves()
    assert len(moves) == 24
    families = [family_moves(family) for family in ("over", "under", "through")]
    assert list(map(len, families)) == [8, 8, 8]
    assert sorted(sum(families, [])) == sorted(m.move_id for m in moves)
    # the pass-through family is the moves whose strand S crosses an input
    # and an output edge of c0 on the before side (a slide's crosses two
    # outputs); c0's row is (sign, u_in, o_in, o_out, u_out)
    def crossed_ends(move):
        c0 = move.before[0][1:]
        return {c0.index(w) < 2 for row in move.before[1:] for w in row[1:] if w in c0}
    assert families[2] == [m.move_id for m in moves if crossed_ends(m) == {True, False}]
    for m in moves:
        assert move_by_id(m.move_id) is m
    with pytest.raises(KeyError, match="no_such_move"):
        move_by_id("no_such_move")


def s_crossings(side):
    """(sign, S over?, e_in, e_out) at each row where strand S crosses an edge."""
    out = []
    for sign, u_in, o_in, o_out, u_out in side[1:]:
        over = o_in in ("Sin", "s_mid")
        out.append((sign, over) + ((u_in, u_out) if over else (o_in, o_out)))
    return out


def test_slide_tangles_wiring():
    # S crosses c0's two output edges before the slide and its two input
    # edges after it, over both or under both; from the west it meets them in
    # the reverse order, and each of its crossings has the opposite sign
    moves = {move_id: move_by_id(move_id) for family in ("over", "under")
             for move_id in family_moves(family)}
    for move_id, east in moves.items():
        if not move_id.endswith("_E"):
            continue
        west = moves[move_id[:-1] + "W"]
        # c0's rows are (sign, u_in, o_in, o_out, u_out)
        assert {e_in for *_, e_in, _ in s_crossings(east.before)} == set(east.before[0][3:])
        assert {e_out for *_, e_out in s_crossings(east.after)} == set(east.after[0][1:3])
        for e_side, w_side in ((east.before, west.before), (east.after, west.after)):
            assert e_side[0] == w_side[0]
            e_rows, w_rows = s_crossings(e_side), s_crossings(w_side)
            assert {over for _, over, *_ in e_rows + w_rows} == {move_id.startswith("over")}
            assert [edge for _, _, *edge in w_rows] == [edge for _, _, *edge in e_rows][::-1]
            assert [sign for sign, *_ in w_rows] == [-sign for sign, *_ in e_rows]


def test_passthrough_tangles_wiring():
    # no bracket involved: c0 joined by the B smoothing, every other crossing
    # walked straight through
    for move in map(move_by_id, family_moves("through")):
        pairings, s_over = [], set()
        for side in (move.before, move.after):
            rows = [dict(zip(ROLES, row[1:])) for row in side]
            adj = {}
            for i, row in enumerate(rows):
                for r, s in ORACLE_SMOOTHINGS["B"] if i == 0 else ORACLE_PASS["x"]:
                    adj.setdefault(row[r], []).append(row[s])
                    adj.setdefault(row[s], []).append(row[r])
            arcs = list(components(adj))
            arc = {label: k for k, labels in enumerate(arcs) for label in labels}
            boundary = ("Sin", "Sout", "Uin", "Uout", "Vin", "Vout")
            pairings.append({frozenset(set(labels) & set(boundary)) for labels in arcs})
            sink, source = arc[rows[0]["u_in"]], arc[rows[0]["u_out"]]
            crossed = []
            for row in rows[1:]:
                over = arc[row["o_in"]] == arc["Sin"]
                s_over.add(over)
                crossed.append(arc[row["u_in" if over else "o_in"]])
            assert sink != source and sorted(crossed) == sorted((sink, source)), move.move_id
        assert pairings[0] == pairings[1], move.move_id
        assert all(len(pair) == 2 for pair in pairings[0])
        assert len(s_over) == 1, move.move_id


def test_diagrammatic_matches_algebraic_adequacy(bq3, br_z5, bq2, br_z7):
    expected = [(True, True), (True, False), (False, True), (False, False)]
    for beta, want in zip(br_z5, expected):
        assert diagrammatic_adequacy(bq3, beta) == want
    assert diagrammatic_adequacy(bq2, br_z7) == (False, False)


def test_constant_bracket_moves_all_pass(bq1, br_gen):
    for m in all_moves():
        if not m.move_id.startswith("through"):
            assert trace_move_fixture_check(bq1, br_gen, m.move_id)


def test_neither_bracket_fails_some_moves(bq3, br_z5):
    neither = br_z5[3]
    over_fail = [m.move_id for m in all_moves()
                 if m.move_id.startswith("over")
                 and not trace_move_fixture_check(bq3, neither, m.move_id)]
    under_fail = [m.move_id for m in all_moves()
                  if m.move_id.startswith("under")
                  and not trace_move_fixture_check(bq3, neither, m.move_id)]
    assert over_fail and under_fail


def test_diagrammatic_passthrough_matches_algebraic(bq1, bq3, br_gen, br_z5):
    ring5, ring7 = ModRing(5), ModRing(7)
    cases = [(bq1, br_gen), (bq1, constant_bracket(ring5, ring5.element(2), ring5.element(3))),
             (bq1, constant_bracket(ring5, ring5.element(1), ring5.element(2))),
             (bq1, constant_bracket(ring7, ring7.element(3), ring7.element(2)))]
    cases += [(bq3, beta) for beta in br_z5]
    for bq, beta in cases:
        assert diagrammatic_passthrough(bq, beta) == classify_adequacy(beta).passthrough


def test_passthrough_agrees_on_searched_brackets(bq2, bq3, a312):
    # the pass-through moves are filtered on their trace's own pair; on
    # bq2/Z5, Z7, Z10 and bq3/Z5 a test of the diagonal entries alone,
    # A[x][x]^2 B[y][y]^2 = 1, disagrees with them
    for bq, n in ((bq3, 3), (a312, 3), (bq2, 5), (bq2, 7), (bq2, 10), (bq3, 5)):
        emitted = list(search_brackets(bq, n))
        assert emitted
        for beta, cls in emitted:
            assert diagrammatic_passthrough(bq, beta) == cls.passthrough


def test_parse_trace_fixture(bq2, br_z7):
    td, colors = parse_trace_diagram(fixture_text("trace_phi.tdg"), bq2)
    assert len(td.crossings()) == 2
    assert [magnetic_parity(td, c) for c in td.crossings()] == ["odd", "odd"]
    assert evaluate_by_parity(td, br_z7) == evaluate_recursive(td, br_z7)
    assert evaluate_recursive_parity(td, br_z7) == evaluate_recursive(td, br_z7)


def test_parse_trace_rejects_bad_colors(bq2):
    text = fixture_text("trace_phi.tdg").replace("color 1 1", "color 1 2")
    with pytest.raises(ValueError):
        parse_trace_diagram(text, bq2)
    # the positive traceB's colors give the pair (e1, e4) = (1, 1)
    text = fixture_text("trace_phi.tdg").replace("source(2,5) 1 1", "source(2,5) 1 2")
    with pytest.raises(ValueError, match="trace pair"):
        parse_trace_diagram(text, bq2)


def test_parse_trace_rejects_loose_edge(bq2):
    # the second crossing's under-output renamed from 4 to 7
    text = (fixture_text("trace_phi.tdg").replace("+ 3 6 1 4", "+ 3 6 1 7")
            + "color 7 2\n")
    with pytest.raises(ValueError, match=r"edges with a loose end: \[4, 7\]"):
        parse_trace_diagram(text, bq2)


def test_recursive_on_trace_fixture_matches_direct_build(bq2, br_z7):
    td, _ = parse_trace_diagram(fixture_text("trace_phi.tdg"), bq2)
    col = enumerate_colorings(trefoil_pos(), bq2)[0]
    built = replace_with_trace(from_colored_diagram(trefoil_pos(), bq2, col), 0, "B")
    assert evaluate_recursive(td, br_z7) == evaluate_recursive(built, br_z7)
