import itertools
import random
from math import prod

import pytest

from tracebracket.diagram import (SMOOTHINGS, OrientedDiagram,
                                  count_state_loops, diagram, greedy_order, hopf_pos,
                                  oriented_smoothing, parse_diagram, plan_contraction,
                                  run_plan, serialize_diagram, state_pairings, switch_crossing,
                                  trefoil_pos, trefoil_rii, unknot0, unknot_kink,
                                  validate_diagram, writhe_counts)


def all_fixtures():
    return [unknot0(), unknot_kink(1), unknot_kink(-1), hopf_pos(),
            trefoil_pos(), trefoil_rii()]


def test_fixtures_validate():
    for d in all_fixtures():
        assert validate_diagram(d).ok


def test_duplicate_input_slot_rejected():
    bad = diagram([(1, 1, 1, 2, 3), (1, 4, 2, 3, 1)])
    report = validate_diagram(bad)
    assert not report.ok


def test_writhe_counts():
    assert writhe_counts(trefoil_pos()) == (3, 0)
    assert writhe_counts(hopf_pos()) == (2, 0)
    assert writhe_counts(trefoil_rii()) == (4, 1)
    mixed = diagram([(1, 1, 4, 2, 3), (-1, 3, 2, 4, 1)])
    assert writhe_counts(mixed) == (1, 1)


def test_hopf_state_loops():
    d = hopf_pos()
    assert count_state_loops(d, "AA") == 2
    assert count_state_loops(d, "AB") == 1
    assert count_state_loops(d, "BA") == 1
    assert count_state_loops(d, "BB") == 2


def test_trefoil_state_loops():
    d = trefoil_pos()
    by_weight = {}
    for state in itertools.product("AB", repeat=3):
        k = count_state_loops(d, state)
        by_weight.setdefault(state.count("B"), set()).add(k)
    # all-A: 2 circles; one B: 1; two Bs: 2; all-B: 3
    assert by_weight == {0: {2}, 1: {1}, 2: {2}, 3: {3}}


def walk_loops_oracle(d: OrientedDiagram, state) -> int:
    """Independent circle counter: walk the pairings edge by edge."""
    pairs = []
    for c, choice in zip(d.crossings, state):
        pairs.extend(state_pairings(c, choice))
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    loops = 0
    for start in sorted(adj):
        if start in seen:
            continue
        loops += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
    return loops + d.free_loops


def random_valid_diagram(rng, n_crossings):
    m = 2 * n_crossings
    outs = list(range(1, m + 1))
    ins = list(range(1, m + 1))
    rng.shuffle(outs)
    rng.shuffle(ins)
    rows = []
    for i in range(n_crossings):
        sign = rng.choice([1, -1])
        rows.append((sign, ins[2 * i], ins[2 * i + 1], outs[2 * i], outs[2 * i + 1]))
    return diagram(rows)


def test_loop_count_matches_walk_oracle_on_fixtures():
    for d in all_fixtures():
        for state in itertools.product("AB", repeat=len(d.crossings)):
            assert count_state_loops(d, state) == walk_loops_oracle(d, state)


def test_loop_count_matches_walk_oracle_randomized():
    rng = random.Random(20240803)
    for _ in range(60):
        d = random_valid_diagram(rng, rng.randint(1, 8))
        assert validate_diagram(d).ok
        state = [rng.choice("AB") for _ in d.crossings]
        assert count_state_loops(d, state) == walk_loops_oracle(d, state)


def test_loop_count_bounds_randomized():
    rng = random.Random(7)
    for _ in range(30):
        d = random_valid_diagram(rng, rng.randint(1, 6))
        state = [rng.choice("AB") for _ in d.crossings]
        assert 1 <= count_state_loops(d, state) <= d.n_semiarcs + d.free_loops


def test_single_toggle_changes_loops_by_one():
    # holds on diagrams that come from actual planar pictures
    for d in (unknot_kink(1), unknot_kink(-1), hopf_pos(), trefoil_pos(),
              trefoil_rii()):
        for state in itertools.product("AB", repeat=len(d.crossings)):
            k = count_state_loops(d, state)
            for i in range(len(state)):
                flipped = list(state)
                flipped[i] = "B" if state[i] == "A" else "A"
                assert abs(count_state_loops(d, flipped) - k) == 1


def test_switch_crossing_involution():
    for d in (hopf_pos(), trefoil_pos()):
        for i in range(len(d.crossings)):
            once = switch_crossing(d, i)
            assert validate_diagram(once).ok
            assert switch_crossing(once, i) == d


def test_switch_all_trefoil_gives_left_trefoil():
    d = trefoil_pos()
    for i in range(3):
        d = switch_crossing(d, i)
    assert writhe_counts(d) == (0, 3)
    assert validate_diagram(d).ok


def test_oriented_smoothing_hopf():
    d = oriented_smoothing(hopf_pos(), 0)
    assert validate_diagram(d).ok
    assert len(d.crossings) == 1
    assert d.free_loops == 0


def test_oriented_smoothing_trefoil():
    d = oriented_smoothing(trefoil_pos(), 0)
    assert validate_diagram(d).ok
    assert len(d.crossings) == 2
    # the two-crossing diagram of a two-component link (both positive)
    assert writhe_counts(d) == (2, 0)


def test_oriented_smoothing_kink_makes_free_loops():
    for sign in (1, -1):
        d = oriented_smoothing(unknot_kink(sign), 0)
        assert len(d.crossings) == 0
        assert d.free_loops == 2


def test_smoothing_preserves_validity_randomized():
    rng = random.Random(99)
    for _ in range(40):
        d = random_valid_diagram(rng, rng.randint(2, 7))
        i = rng.randrange(len(d.crossings))
        assert validate_diagram(oriented_smoothing(d, i)).ok
        assert validate_diagram(switch_crossing(d, i)).ok


def test_parse_serialize_round_trip():
    for d in all_fixtures():
        text = serialize_diagram(d)
        assert parse_diagram(text) == d


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_diagram("+ 1 2 3\n")
    with pytest.raises(ValueError):
        parse_diagram("* 1 2 3 4\n")
    with pytest.raises(ValueError, match="^line 2: expected 'loops k'$"):
        parse_diagram("# c\nloops x\n")
    with pytest.raises(ValueError, match="^line 3: 'loops' is given more than once$"):
        parse_diagram("loops 1\n+ 1 2 1 2\nloops 2\n")


def crossings_plan(d):
    return plan_contraction([[state_pairings(c, k) for k in SMOOTHINGS] for c in d.crossings])


def test_greedy_order_places_the_most_shared_node_next():
    # node 0 first; then 3 shares two labels with it, 1 and 2 one each
    labels = [{1, 2, 3, 4}, {4, 5, 6, 7}, {1, 8, 9, 10}, {2, 3, 11, 12}]
    assert greedy_order(labels) == [0, 3, 1, 2]
    # ties go to the lowest index, also when nothing is shared
    assert greedy_order([{1}, {2}, {3}]) == [0, 1, 2]
    assert greedy_order([]) == []


def test_plan_widths_and_final_pairings():
    plan = crossings_plan(hopf_pos())
    assert plan.order == (0, 1)
    assert len(plan.steps) == len(plan.widths) == 2
    # the first crossing leaves one pairing per smoothing; closing the diagram leaves one
    assert plan.widths == (2, 1)
    assert plan.pairings == (frozenset(),)
    for moves, width in zip(plan.steps, plan.widths):
        assert {dst for _, _, dst, _ in moves} == set(range(width))
    # hopf_pos: AA and BB leave two circles, AB and BA one
    loops = {(c0, c1): l0 + l1 for src0, c0, dst0, l0 in plan.steps[0]
             for src1, c1, dst1, l1 in plan.steps[1] if src1 == dst0}
    assert loops == {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    # an open node keeps its ends
    assert run_plan(plan_contraction([[((1, 2),)]]), [[5]], 1, 10) == {
        frozenset({(1, 2), (2, 1)}): 5}
    assert run_plan(plan_contraction([]), [], 1, 10) == {frozenset(): 1}


def test_run_plan_raises_delta_once_per_loop_count():
    # each delta^k is made once per call, however many transitions close k
    # circles, and the sums are those of the state-by-state expansion
    powers = []

    class Delta(int):
        def __pow__(self, k):
            powers.append(k)
            return int(self) ** k

    rng = random.Random(34)
    saved = 0
    for n_crossings in (3, 5, 7, 9):
        for _ in range(4):
            d = random_valid_diagram(rng, n_crossings)
            plan = crossings_plan(d)
            coefficients = [[rng.randint(-9, 9) for _ in SMOOTHINGS] for _ in d.crossings]
            closing = [loops for moves in plan.steps for *_, loops in moves if loops]
            for _ in range(2):      # nothing carries over from one call to the next
                powers.clear()
                total = run_plan(plan, coefficients, 1, Delta(3))[frozenset()]
                assert sorted(powers) == sorted(set(closing))
            saved += len(closing) - len(powers)
            assert total == sum(prod(coefficients[i][k] for i, k in enumerate(state))
                                * 3 ** count_state_loops(d, ["AB"[k] for k in state])
                                for state in itertools.product(range(2), repeat=n_crossings))
    assert saved > 0


def test_greedy_peak_frontier_on_shuffled_closures(braid_closure):
    # The peak width is the most distinct pairings any step keeps, so it bounds
    # a state sum's work per step.  Placed as given, a shuffled 30-crossing
    # closure costs orders of magnitude more than in braid order; in greedy
    # order its peak stays within a small factor of the braid-order plan's.
    # Over 40 seeds per shape the median peaks are equal and the largest
    # ratio is ~7.
    rng = random.Random(15)
    for strands, length in ((3, 30), (3, 40), (5, 40)):
        for _ in range(4):
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
            d = braid_closure(word, strands)
            rows = list(d.crossings)
            rng.shuffle(rows)
            braid_peak = max(crossings_plan(d).widths)
            assert max(crossings_plan(OrientedDiagram(tuple(rows))).widths) <= 8 * braid_peak
