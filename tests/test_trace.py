import dataclasses
import itertools
import random

import pytest

from tracebracket import fixture_text
from tracebracket.bracket import (bracket_invariant, classify_adequacy,
                                  constant_bracket, crossing_coefficient_pair,
                                  make_bracket, state_sum)
from tracebracket.coloring import enumerate_colorings
from tracebracket.diagram import (diagram, hopf_pos, trefoil_pos, trefoil_rii,
                                  unknot0, unknot_kink, writhe_counts)
from tracebracket.rings import ModRing
from tracebracket.search import search_brackets
from tracebracket.trace import (MultiComponentCrossingError,
                                NotRIReducibleError, TraceDiagram, all_moves,
                                circles_trace_deleted, diagrammatic_adequacy,
                                diagrammatic_passthrough, evaluate_by_parity,
                                evaluate_crossingless, evaluate_open,
                                evaluate_recursive, evaluate_recursive_parity,
                                from_colored_diagram, magnetic_parity,
                                move_by_id, parse_trace_diagram, parity_applicable,
                                replace_with_trace, ri_reducible,
                                smooth_crossing, trace_move_fixture_check,
                                _seed_identities, _tangle_trace_diagram)


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


def test_recursive_equals_state_sum(bq1, bq2, bq3, br_gen, br_z7, br_z5):
    # both run the contraction engine; the oracle enumerates every state
    rng = random.Random(2718)
    codes = [random_code(rng, rng.randint(1, 8)) for _ in range(30)]
    cases = [(bq1, br_gen), (bq2, br_z7)] + [(bq3, b) for b in br_z5]
    for bq, beta in cases:
        colored = [(d, col) for d in fixture_diagrams() for col in enumerate_colorings(d, bq)]
        random_colored = [(d, col) for d in codes for col in enumerate_colorings(d, bq)[:2]]
        assert len(random_colored) >= 10
        for d, col in colored + random_colored:
            expected = brute_force_state_sum(d, col, beta)
            assert state_sum(d, col, beta) == expected
            assert evaluate_recursive(from_colored_diagram(d, bq, col), beta) == expected


def expand_open(td, beta):
    """Boundary resolution of an open trace diagram by smooth_crossing
    expansion, each crossingless leaf resolved by walking its strands."""
    xs = td.crossings()
    if xs:
        out = {}
        for kind in "AB":
            coeff, child = smooth_crossing(td, xs[0], kind, beta)
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
    # the state sum places the nodes in the order of td.nodes
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
    x, y = td.nodes[0].pair
    coeff_a, td_a = smooth_crossing(td, 0, "A", br_z7)
    coeff_b, _ = smooth_crossing(td, 0, "B", br_z7)
    assert coeff_a == br_z7.a(x, y)
    assert coeff_b == br_z7.b(x, y)
    assert len(td_a.crossings()) == 1
    assert len(td_a.traces()) == 1


def test_negative_crossing_coefficient_inverted(bq1, br_gen):
    col = (0, 0)
    td = from_colored_diagram(unknot_kink(-1), bq1, col)
    coeff_a, _ = smooth_crossing(td, 0, "A", br_gen)
    assert coeff_a == br_gen.a(0, 0).inverse()


def test_crossingless_values(bq1, br_gen):
    td = from_colored_diagram(unknot0(), bq1, (0,))
    assert evaluate_crossingless(td, br_gen) == br_gen.delta
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
    k = circles_trace_deleted(td2)
    assert evaluate_crossingless(td2, br_gen) == br_gen.delta ** k


def test_worked_trace_example(bq1, bq2, br_gen, br_z7):
    # smoothing the first trefoil crossing disorientedly leaves two positive
    # crossings of odd magnetic parity on a kink-reducible diagram
    for bq, beta in ((bq1, br_gen), (bq2, br_z7)):
        col = enumerate_colorings(trefoil_pos(), bq)[0]
        td = replace_with_trace(from_colored_diagram(trefoil_pos(), bq, col), 0, "B")
        assert circles_trace_deleted(td) == 1
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


def test_parity_stop_recursion_matches(bq1, bq2, bq3, br_gen, br_z7, br_z5):
    cases = [(bq1, br_gen), (bq2, br_z7), (bq3, br_z5[0]), (bq3, br_z5[3])]
    for bq, beta in cases:
        for d in fixture_diagrams():
            for col in enumerate_colorings(d, bq):
                td = from_colored_diagram(d, bq, col)
                assert (evaluate_recursive_parity(td, beta)
                        == evaluate_recursive(td, beta))


def reversals_per_component(td):
    """Walk each component of the trace-deleted curve once, counting the
    sink/source visits, where the walk leaves a node on the side it arrived."""
    ends = {}
    for nid, node in td.nodes.items():
        for role in ROLES:
            ends.setdefault(getattr(node, role), []).append((nid, role))
    partner = {kind: {r: s for pair in pairs for r, s in (pair, pair[::-1])}
               for kind, pairs in ORACLE_PASS.items()}
    seen, counts = set(), []
    for start in ends:
        if start in seen:
            continue
        label, here, reversals = start, ends[start][0], 0
        while label not in seen:
            seen.add(label)
            nid, role = next(end for end in ends[label] if end != here)
            leave = partner[td.nodes[nid].kind][role]
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
        assert len(counts) == circles_trace_deleted(td2)
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
        if move.monochromatic_only:
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


def test_passthrough_witness_reads_off_diagonal_entries(bq2):
    # a bq2/Z5 bracket that the algebraic pass-through test accepts and the
    # tangles reject: at the monochromatic seeds of its failing move, the
    # compiled identities read only the off-diagonal entries (0, 1), (1, 0)
    ring = ModRing(5)
    beta = make_bracket(bq2, ring, [[ring.element(v) for v in row] for row in ((1, 1), (2, 1))],
                        [[ring.element(v) for v in row] for row in ((4, 4), (3, 4))])
    move = move_by_id("through_B_pos_over_F")
    assert classify_adequacy(beta).passthrough
    assert not trace_move_fixture_check(bq2, beta, move.move_id)
    for seeds in ((0, 0, 0), (1, 1, 1)):
        identities = _seed_identities(bq2, move, seeds)
        assert len(identities) == 4
        # raw-vector indices below 16 are the A, A^-1, B, B^-1 tables
        assert {i % 4 for identity in identities for _count, *idx in identity
                for i in idx if i < 16} == {1, 2}


def test_move_catalog_counts():
    moves = all_moves()
    assert len(moves) == 24
    assert sum(1 for m in moves if m.move_id.startswith("over")) == 8
    assert sum(1 for m in moves if m.move_id.startswith("under")) == 8
    assert sum(1 for m in moves if m.move_id.startswith("through")) == 8


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


def test_passthrough_agrees_on_searched_brackets(bq3, a312):
    # the pass-through moves are filtered on their trace's own pair
    for bq in (bq3, a312):
        emitted = list(search_brackets(bq, 3))
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
