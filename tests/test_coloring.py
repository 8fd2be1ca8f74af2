import itertools
import random

import pytest

from tracebracket import coloring
from tracebracket.biquandle import (Biquandle, alexander_biquandle, trivial_biquandle,
                                  verify_biquandle)
from tracebracket.bracket import coefficient_pair
from tracebracket.coloring import (_affine_form, _diagram_schedule, _extend_free_loops, _frames,
                                   _search_seeds, counting_invariant, crossing_outputs,
                                   enumerate_colorings, monochromatic_riii_check, positive_frame,
                                   propagation_schedule, run_steps, total_semiarcs,
                                   validate_coloring)
from tracebracket.diagram import (diagram, hopf_pos, trefoil_pos, trefoil_rii,
                                  unknot0, unknot_kink)


def brute_force_colorings(d, bq):
    out = []
    m = total_semiarcs(d)
    for colors in itertools.product(range(bq.n), repeat=m):
        if validate_coloring(d, bq, colors):
            out.append(colors)
    return out


def test_trefoil_count_is_nine(a312):
    assert counting_invariant(trefoil_pos(), a312) == 9


def rank_mod_p(rows, ncols, p):
    """Rank of a matrix over GF(p) by dense row reduction."""
    rank = 0
    mat = [row[:] for row in rows]
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def alexander_rows(d, p, t, s):
    """The coloring equations over alexander(p, t, s) as matrix rows:
    o_out = s*o_in and u_out = t*u_in + (s-t)*o_out at a positive crossing,
    inputs and outputs exchanged at a negative one."""
    m = d.n_semiarcs
    rows = []
    for c in d.crossings:
        u_in, o_in, o_out, u_out = ((c.u_in, c.o_in, c.o_out, c.u_out) if c.sign > 0
                                    else (c.u_out, c.o_out, c.o_in, c.u_in))
        r1 = [0] * m
        r1[o_in - 1] += s
        r1[o_out - 1] -= 1
        r2 = [0] * m
        r2[u_in - 1] += t
        r2[o_out - 1] += s - t
        r2[u_out - 1] -= 1
        rows.append([v % p for v in r1])
        rows.append([v % p for v in r2])
    return rows


def random_code(rng, crossings, free_loops=0):
    """A seeded random crossing code: valid, usually not planar."""
    m = 2 * crossings
    ins, outs = list(range(1, m + 1)), list(range(1, m + 1))
    rng.shuffle(ins)
    rng.shuffle(outs)
    return diagram([(rng.choice((1, -1)), ins[2 * i], ins[2 * i + 1],
                     outs[2 * i], outs[2 * i + 1]) for i in range(crossings)],
                   free_loops)


def test_trefoil_kernel_dimension_oracle(a312):
    # independent oracle: row-reduce the coloring equations over Z3 and
    # compare 3^nullity with the enumerated count
    nullity = 6 - rank_mod_p(alexander_rows(trefoil_pos(), 3, 1, 2), 6, 3)
    assert 3 ** nullity == 9
    assert counting_invariant(trefoil_pos(), alexander_biquandle(3, 1, 2)) == 3 ** nullity


def test_hopf_has_four_colorings(bq2):
    assert counting_invariant(hopf_pos(), bq2) == 4


def test_unknot_colorings(bq2, bq3, a312):
    for bq in (bq2, bq3, a312):
        assert counting_invariant(unknot0(), bq) == bq.n


def test_trivial_biquandle_all_zero():
    bq = trivial_biquandle(1)
    for d in (hopf_pos(), trefoil_pos()):
        cols = enumerate_colorings(d, bq)
        assert cols == [tuple([0] * d.n_semiarcs)]


def test_invalid_coloring_rejected(a312):
    assert not validate_coloring(trefoil_pos(), a312, (1,) * 6)


def test_enumeration_matches_brute_force(bq2, bq3, a312):
    cases = [(unknot0(), bq3), (unknot_kink(1), bq2), (unknot_kink(-1), bq3),
             (hopf_pos(), bq2), (hopf_pos(), bq3), (trefoil_pos(), a312),
             (trefoil_pos(), bq3), (hopf_pos(), a312)]
    for d, bq in cases:
        fast = enumerate_colorings(d, bq)
        slow = brute_force_colorings(d, bq)
        assert fast == sorted(slow)
        assert len(set(fast)) == len(fast)


def test_every_enumerated_coloring_validates(bq2, bq3, a312):
    for d in (hopf_pos(), trefoil_pos(), trefoil_rii()):
        for bq in (bq2, bq3, a312):
            for col in enumerate_colorings(d, bq):
                assert validate_coloring(d, bq, col)


def test_counting_invariant_reidemeister_stability(bq1, bq2, bq3, a312):
    for bq in (bq1, bq2, bq3, a312):
        base = counting_invariant(unknot0(), bq)
        assert counting_invariant(unknot_kink(1), bq) == base
        assert counting_invariant(unknot_kink(-1), bq) == base
        assert (counting_invariant(trefoil_pos(), bq)
                == counting_invariant(trefoil_rii(), bq))


def literal_outputs(bq, sign, u_in, o_in):
    """Every (u_out, o_out) satisfying the README's crossing equations,
    written out at each sign and found by brute force."""
    return [(u_out, o_out) for u_out, o_out in itertools.product(range(bq.n), repeat=2)
            if (o_out == bq.over(o_in, u_in) and u_out == bq.under(u_in, o_out)
                if sign > 0 else
                o_in == bq.over(o_out, u_out) and u_in == bq.under(u_out, o_in))]


def test_crossing_rules_match_literal_equations(bq1, bq2, bq3, a312):
    for bq in (bq1, bq2, bq3, a312, alexander_biquandle(5, 2, 3)):
        for sign in (1, -1):
            for u_in, o_in in itertools.product(range(bq.n), repeat=2):
                solutions = literal_outputs(bq, sign, u_in, o_in)
                assert len(solutions) == 1
                assert crossing_outputs(bq, sign, u_in, o_in) == solutions[0]
                u_out, o_out = solutions[0]
                literal_pair = (u_in, o_out) if sign > 0 else (u_out, o_in)
                assert coefficient_pair(sign, u_in, o_in, o_out, u_out) == literal_pair


def test_propagation_matches_literal_equations(bq2, bq3, a312):
    # on one crossing over its role names, each of the three known pairs
    # (inputs, outputs, coefficient pair) forces the other two colors
    roles = ("u_in", "o_in", "o_out", "u_out")
    for bq in (bq2, bq3, a312):
        for sign in (1, -1):
            frames = [positive_frame(sign, *roles)]
            pair_roles = ("u_in", "o_out") if sign > 0 else ("u_out", "o_in")
            for u_in, o_in in itertools.product(range(bq.n), repeat=2):
                (u_out, o_out), = literal_outputs(bq, sign, u_in, o_in)
                full = dict(zip(roles, (u_in, o_in, o_out, u_out)))
                for known in (("u_in", "o_in"), ("u_out", "o_out"), pair_roles):
                    (seed, steps), = propagation_schedule(frames, roles, known)
                    assert seed is None
                    colors = {r: full[r] for r in known}
                    assert run_steps(steps, bq, colors)
                    assert colors == full
                bad = dict(full, u_out=(u_out + 1) % bq.n)
                (_, steps), = propagation_schedule(frames, roles, roles)
                assert not run_steps(steps, bq, bad)


def test_riii_check_fixture_biquandles(bq1, bq2, bq3):
    for bq in (bq1, bq2, bq3):
        report = monochromatic_riii_check(bq)
        assert report.ok, report.failures[:3]


def test_riii_check_reports_failures():
    # x -> 1 - x in both operations: bijective columns but not a biquandle;
    # from color 1 the first strand keeps color 1 where it should reach 0
    flip = [[0, 1], [1, 0]]
    bq = Biquandle(flip, flip)
    assert not verify_biquandle(bq).ok
    report = monochromatic_riii_check(bq)
    assert report.ok is False
    assert len(report.failures) == 8
    first = report.failures[0]
    assert (first.color, first.pattern, first.strand) == (1, (-1, -1, -1), "A")
    assert (first.expected, first.got) == ((1, 0, 0), (1, 1, 1))


def test_riii_check_trivial():
    for n in (1, 3, 4):
        assert monochromatic_riii_check(trivial_biquandle(n)).ok


def test_riii_color_values(bq2, bq3):
    # the middle color is the common diagonal value
    assert bq2.under(0, 0) == bq2.over(0, 0) == 1
    assert bq3.under(0, 0) == 2 and bq3.under(2, 2) == 0


def test_affine_form_detection(bq1, bq2, bq3):
    assert _affine_form(alexander_biquandle(5, 2, 3)) == ((2, 1, 0), (3, 0, 0))
    assert _affine_form(bq2) == ((1, 0, 1), (1, 0, 1))
    assert _affine_form(bq1) is None                          # n = 1
    assert _affine_form(bq3) is None                          # not affine
    assert _affine_form(alexander_biquandle(4, 1, 3)) is None  # composite n


def seed_search(d, bq):
    """The seed search over the diagram's schedule trying every color at
    every seed, whatever the table: no elimination narrows it."""
    every = range(bq.n)
    return _extend_free_loops(d, bq, _search_seeds(d, bq, _diagram_schedule(d),
                                                   lambda _depth, _colors: every))


def test_linear_path_equals_dfs_on_random_codes(bq2):
    rng = random.Random(20171)
    bqs = [alexander_biquandle(2, 1, 1), alexander_biquandle(3, 1, 2),
           alexander_biquandle(5, 2, 3), alexander_biquandle(7, 3, 2), bq2]
    counts = []
    for _ in range(40):
        d = random_code(rng, rng.randint(1, 5), rng.choice((0, 0, 1)))
        for bq in bqs:
            assert _affine_form(bq) is not None
            cols = enumerate_colorings(d, bq)
            assert cols == seed_search(d, bq)
            assert all(validate_coloring(d, bq, col) for col in cols)
            counts.append((len(cols), d.free_loops))
    assert any(n == 0 for n, _ in counts)                  # inconsistent systems
    assert any(n > 0 and loops for n, loops in counts)     # free-loop extension
    assert any(n > 1 and not loops for n, loops in counts)  # free variables


def test_affine_table_with_zero_coefficient_takes_dfs(monkeypatch):
    # under(x, y) = y + 1 is affine over Z_3 but has a = 0: its columns are
    # not bijections, so the search tries every color at every seed and
    # raises where it needs an inverse, as it always has
    n = 3
    bq = Biquandle([[(y + 1) % n for y in range(n)] for _x in range(n)],
                   [[x] * n for x in range(n)])
    assert _affine_form(bq) is None
    search = coloring._search_seeds

    def unnarrowed_search(d, bq, levels, choices):
        colors = [0] * d.n_semiarcs
        assert all(choices(depth, colors) == range(n) for depth in range(len(levels)))
        return search(d, bq, levels, choices)

    monkeypatch.setattr(coloring, "_search_seeds", unnarrowed_search)
    assert enumerate_colorings(hopf_pos(), bq) == [(0, 2, 0, 2), (1, 0, 1, 0), (2, 1, 2, 1)]
    assert enumerate_colorings(hopf_pos(), bq) == brute_force_colorings(hopf_pos(), bq)
    assert enumerate_colorings(unknot_kink(1), bq) == []
    with pytest.raises(ValueError, match="not a bijection"):
        enumerate_colorings(trefoil_rii(), bq)


def test_random_codes_match_brute_force_and_seed_search(bq1, bq2, bq3):
    # a seeded oracle over random codes with 0-6 crossings and 0-2 free
    # loops: brute force where n^semiarcs is small, and on affine tables the
    # seed search that no elimination narrows; every coloring validates
    rng = random.Random(2017)
    bqs = [alexander_biquandle(5, 2, 3), alexander_biquandle(7, 3, 2),
           alexander_biquandle(4, 1, 3), alexander_biquandle(3, 1, 2),
           trivial_biquandle(1), trivial_biquandle(3), bq1, bq2, bq3]
    seen = set()
    for _ in range(30):
        d = random_code(rng, rng.randint(0, 6), rng.choice((0, 0, 1, 2)))
        for bq in bqs:
            cols = enumerate_colorings(d, bq)
            assert all(validate_coloring(d, bq, col) for col in cols)
            if bq.n ** total_semiarcs(d) <= 5000:
                assert cols == brute_force_colorings(d, bq)
                seen.add("brute")
            if _affine_form(bq) is not None:
                assert cols == seed_search(d, bq)
                if not cols:
                    seen.add("inconsistent")
                elif d.free_loops:
                    seen.add("free loops")
                elif len(cols) > bq.n:
                    seen.add("free variables")
    assert seen == {"brute", "inconsistent", "free loops", "free variables"}


def test_schedule_fires_each_frame_once_and_assigns_each_semiarc_once():
    # rule priority: forward (a, b), then backward (c, d), then mixed (a, c)
    rules = ((0, 1, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3))
    rng = random.Random(9)
    for _ in range(40):
        d = random_code(rng, rng.randint(0, 9))
        frames = _frames(d)
        levels = _diagram_schedule(d)
        steps = [step for _, level_steps in levels for step in level_steps]
        assert sorted(step[0] for step in steps) == list(range(len(d.crossings)))
        seeds = [seed for seed, _ in levels]
        assert seeds == sorted(seeds) and None not in seeds
        assigned = [out for step in steps for out, assign in zip(step[4:6], step[6:8]) if assign]
        assert sorted(seeds + assigned) == list(range(d.n_semiarcs))
        known = set()
        for seed, level_steps in levels:
            assert seed not in known
            known.add(seed)
            for f, rule, *labels, assign_z, assign_w in level_steps:
                frame = frames[f]
                assert rule == next(r for r, (i, j, _, _) in enumerate(rules)
                                    if frame[i] in known and frame[j] in known)
                assert labels == [frame[i] for i in rules[rule]]
                z, w = labels[2:]
                assert assign_z == (z not in known)
                known.add(z)
                assert assign_w == (w not in known)
                known.add(w)


def test_linear_path_kernel_size_14_crossings():
    # far beyond the search: 14-crossing codes over Z11 took minutes there
    p, t, s = 11, 2, 3
    bq = alexander_biquandle(p, t, s)
    rng = random.Random(14)
    for _ in range(5):
        d = random_code(rng, 14)
        m = d.n_semiarcs
        cols = enumerate_colorings(d, bq)
        assert len(cols) == p ** (m - rank_mod_p(alexander_rows(d, p, t, s), m, p))
        assert cols == sorted(set(cols))
        assert all(validate_coloring(d, bq, col) for col in cols)
