import itertools
import random

import pytest

from tracebracket import bracket as brmod
from tracebracket import fixture_text
from tracebracket.biquandle import trivial_biquandle
from tracebracket.bracket import (bracket_invariant, classify_adequacy,
                                  constant_bracket, crossing_coefficient_pair,
                                  generic_laurent_bracket, homflypt_coefficients, make_bracket,
                                  parse_bracket, raw_slot, serialize_bracket,
                                  state_sum, verify_bracket)
from tracebracket.coloring import enumerate_colorings
from tracebracket.diagram import (diagram, hopf_pos, parse_diagram, trefoil_pos, trefoil_rii,
                                  unknot0, unknot_kink, validate_diagram, writhe_counts)
from tracebracket.rings import LaurentRing, ModRing
from tracebracket.search import search_brackets
from tracebracket.trace import skein_identity_check


def test_z7_bracket_delta_w(br_z7):
    assert br_z7.delta.value == 1
    assert br_z7.w.value == 3


def test_generic_bracket_delta_w(br_gen):
    assert str(br_gen.delta) == "-A*B^-1 - A^-1*B"
    assert str(br_gen.w) == "-A^2*B^-1"


def test_generic_laurent_bracket_is_the_shipped_laurent_bracket(bq1, br_gen):
    # the exported symbolic bracket passes the bracket conditions and is
    # br_laurent.txt on bq1: the same entries, delta, w and invariants
    gen = generic_laurent_bracket()
    assert verify_bracket(gen.bq, gen.ring, gen.A, gen.B).ok
    assert gen.bq == bq1
    assert (gen.A, gen.B, gen.delta, gen.w) == (br_gen.A, br_gen.B, br_gen.delta, br_gen.w)
    names = ["unknot0", "unknot_kink_pos", "unknot_kink_neg", "hopf_pos", "trefoil_pos",
             "trefoil_rii"]
    for d in (parse_diagram(fixture_text(f"{name}.dgm")) for name in names):
        assert bracket_invariant(d, gen.bq, gen) == bracket_invariant(d, bq1, br_gen)


def test_z5_brackets_verify(br_z5):
    assert len(br_z5) == 4
    for beta in br_z5:
        assert beta.delta.value == 0
        assert beta.w.value in range(5)


def test_raw_vector_layout(br_gen, br_z7, br_z5):
    # raw is [A, B, delta, w, A^-1, B^-1, w^-1], each table flat at x*n + y,
    # so it begins with the base entries [*A, *B, delta, w] that compiled
    # identities read, and raw_slot names every slot once
    for beta in [br_gen, br_z7, *br_z5]:
        n, ring = beta.bq.n, beta.ring
        pairs = list(itertools.product(range(n), repeat=2))
        expected = ([beta.a(*p) for p in pairs] + [beta.b(*p) for p in pairs]
                    + [beta.delta, beta.w]
                    + [beta.a(*p).inverse() for p in pairs] + [beta.b(*p).inverse() for p in pairs]
                    + [beta.w.inverse()])
        assert [ring.wrap(v) for v in beta.raw] == expected
        A, B = beta.raw_tables
        assert beta.raw[:2 * n * n + 2] == [*A, *B, beta.raw_delta, beta.raw_w]
        named = {raw_slot(n, "delta"): beta.delta, raw_slot(n, "w", 1): beta.w,
                 raw_slot(n, "w", -1): beta.w.inverse()}
        for pair, sign in itertools.product(pairs, (1, -1)):
            named[raw_slot(n, "A", sign, pair)] = beta.a(*pair) ** sign
            named[raw_slot(n, "B", sign, pair)] = beta.b(*pair) ** sign
        assert sorted(named) == list(range(len(beta.raw)))
        assert all(ring.wrap(beta.raw[slot]) == value for slot, value in named.items())


def test_bad_bracket_reports_violation(bq2):
    ring = ModRing(7)
    A = [[ring.element(1), ring.element(1)], [ring.element(1), ring.element(1)]]
    B = [[ring.element(2), ring.element(3)], [ring.element(3), ring.element(2)]]
    check = verify_bracket(bq2, ring, A, B)
    assert not check.ok
    assert any(v.condition == "delta" for v in check.violations)


def test_non_unit_rejected(bq2):
    ring = ModRing(6)
    A = [[ring.element(2)] * 2] * 2
    B = [[ring.element(1)] * 2] * 2
    check = verify_bracket(bq2, ring, A, B)
    assert not check.ok
    assert all(v.condition == "unit" for v in check.violations)


def test_hopf_per_coloring_values(bq2, br_z7):
    values = sorted(state_sum(hopf_pos(), col, br_z7).value
                    for col in enumerate_colorings(hopf_pos(), bq2))
    assert values == [1, 1, 3, 3]


def test_hopf_invariant_multiset(bq2, br_z7):
    inv = bracket_invariant(hopf_pos(), bq2, br_z7)
    assert inv.multiset_str() == "{1:2, 3:2}"
    assert inv.polynomial_str() == "2u + 2u^3"
    assert inv.total_multiplicity() == 4


def test_unknot_invariant_is_delta_copies(bq2, br_z7, bq3, br_z5):
    inv = bracket_invariant(unknot0(), bq2, br_z7)
    assert dict(inv.multiset) == {br_z7.delta: 2}
    inv = bracket_invariant(unknot0(), bq3, br_z5[0])
    assert dict(inv.multiset) == {br_z5[0].delta: 3}


def test_trefoil_symbolic_value(bq1, br_gen):
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    value = state_sum(trefoil_pos(), col, br_gen)
    assert str(value) == "-A^-1*B - A^-3*B^3 - A^-5*B^5 + A^-9*B^9"


def kauffman_with_writhe(d):
    """Independent oracle: Kauffman-style state sum with its own Laurent
    arithmetic and its own loop walker, A/B generic, times w^(n-p)."""
    def mul(p, q):
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    def add(p, q):
        out = dict(p)
        for k, c in q.items():
            out[k] = out.get(k, 0) + c
            if not out[k]:
                del out[k]
        return out

    def loops(d, state):
        adj = {}
        for c, choice in zip(d.crossings, state):
            pairs = ([(c.u_in, c.o_out), (c.o_in, c.u_out)] if choice == "A"
                     else [(c.u_in, c.o_in), (c.u_out, c.o_out)])
            for a, b in pairs:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        seen, n = set(), 0
        for s in adj:
            if s in seen:
                continue
            n += 1
            stack = [s]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(adj[v])
        return n + d.free_loops

    A = {(1, 0): 1}
    B = {(0, 1): 1}
    A_inv = {(-1, 0): 1}
    B_inv = {(0, -1): 1}
    delta = {(-1, 1): -1, (1, -1): -1}
    total = {}
    for state in itertools.product("AB", repeat=len(d.crossings)):
        term = {(0, 0): 1}
        for c, choice in zip(d.crossings, state):
            if c.sign > 0:
                term = mul(term, A if choice == "A" else B)
            else:
                term = mul(term, A_inv if choice == "A" else B_inv)
        for _ in range(loops(d, state)):
            term = mul(term, delta)
        total = add(total, term)
    p, n = writhe_counts(d)
    w_inv = {(-2, 1): -1}   # (-A^2 B^-1)^-1
    w = {(2, -1): -1}
    for _ in range(abs(n - p)):
        total = mul(total, w_inv if n - p < 0 else w)
    return total


def random_knot_closures(rng, braid_closure):
    """Seeded closures of random 2- and 3-braid words of 5 to 13 crossings
    whose permutation moves every strand: on at most 3 strands, exactly the
    words whose closure is a knot.  That takes an odd length on 2 strands
    and, for a 3-cycle, an even one on 3."""
    out = []
    for strands, length in ((2, 5), (2, 9), (2, 13), (3, 8), (3, 10), (3, 12)):
        while True:
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
            perm = list(range(strands))
            for g in word:
                k = abs(g) - 1
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
            if all(p != k for k, p in enumerate(perm)):
                out.append(braid_closure(word, strands))
                break
    return out


def test_generic_bracket_equals_kauffman_oracle(bq1, br_gen, braid_closure):
    for d in [unknot0(), unknot_kink(1), unknot_kink(-1), hopf_pos(), trefoil_pos(),
              trefoil_rii()] + random_knot_closures(random.Random(33), braid_closure):
        col = enumerate_colorings(d, bq1)[0]
        assert state_sum(d, col, br_gen).terms == kauffman_with_writhe(d)


def test_generic_bracket_reidemeister_stability(bq1, br_gen):
    vals = {str(bracket_invariant(d, bq1, br_gen).multiset_str())
            for d in (unknot0(), unknot_kink(1), unknot_kink(-1))}
    assert len(vals) == 1
    assert (bracket_invariant(trefoil_pos(), bq1, br_gen).multiset_str()
            == bracket_invariant(trefoil_rii(), bq1, br_gen).multiset_str())


def test_rii_stability_all_fixture_pairs(bq2, br_z7, bq3, br_z5):
    pairs = [(bq2, br_z7)] + [(bq3, beta) for beta in br_z5]
    for bq, beta in pairs:
        assert (bracket_invariant(trefoil_pos(), bq, beta).multiset_str()
                == bracket_invariant(trefoil_rii(), bq, beta).multiset_str())


def test_kink_stability_z5_family(bq3, br_z5):
    for beta in br_z5:
        base = bracket_invariant(unknot0(), bq3, beta).multiset_str()
        assert bracket_invariant(unknot_kink(1), bq3, beta).multiset_str() == base
        assert bracket_invariant(unknot_kink(-1), bq3, beta).multiset_str() == base


def _with_kink(d, s, sign, under_first):
    """``d`` with a kink of the given sign on semiarc ``s``.  The strand
    meets the kink crossing first on its under-pass (the loop joins u_out to
    o_in) or first on its over-pass (the loop joins o_out to u_in)."""
    loop, tail = d.n_semiarcs + 1, d.n_semiarcs + 2
    rows = [(c.sign, tail if c.u_in == s else c.u_in, tail if c.o_in == s else c.o_in,
             c.o_out, c.u_out) for c in d.crossings]
    rows.append((sign, s, loop, tail, loop) if under_first
                else (sign, loop, s, loop, tail))
    return diagram(rows)


def test_coefficient_pair_reidemeister_class(bq1, bq2, bq3, a312, br_gen, br_z7, br_z5,
                                              braid_closure):
    # One knot drawn seven ways: the trefoil, the trefoil with a kink of each
    # sign in each loop shape, the closure of sigma_1^3, and that closure
    # with sigma_1 sigma_1^-1 or sigma_1^-1 sigma_1 inserted.  A single kink
    # crossing makes both diagonal pairs coincide, so the closures with the
    # inserted pair are what tell the coefficient pair apart from (u_in,
    # o_out) at both signs.
    trefoil = trefoil_pos()
    drawings = [trefoil]
    drawings += [_with_kink(trefoil, 1, sign, under_first)
                 for sign in (1, -1) for under_first in (True, False)]
    drawings += [braid_closure(w) for w in ((1, 1, 1), (1, -1, 1, 1, 1), (-1, 1, 1, 1, 1))]
    assert all(validate_diagram(d).ok for d in drawings)
    cases = ([("bq1/laurent", bq1, br_gen), ("bq2/z7", bq2, br_z7)]
             + [(f"bq3/z5_{i}", bq3, b) for i, b in enumerate(br_z5, start=1)])
    searched = list(search_brackets(a312, 5))
    assert len(searched) == 256
    cases += [(f"alexander(3,1,2)/z5 #{i}", a312, b)
              for i, (b, _) in enumerate(searched) if i % 4 == 0]
    failures = []
    for name, bq, beta in cases:
        values = [bracket_invariant(d, bq, beta).multiset_str() for d in drawings]
        if len(set(values)) != 1:
            failures.append(name)
    assert not failures, failures


def test_adequacy_table(br_z5):
    labels = [classify_adequacy(beta).label() for beta in br_z5]
    assert labels == ["adequate", "over", "under", "neither"]


def test_constant_brackets_are_adequate(br_gen):
    cls = classify_adequacy(br_gen)
    assert cls.adequate
    assert not cls.passthrough          # A^2 B^2 != 1 symbolically
    ring = ModRing(5)
    c = constant_bracket(ring, ring.element(2), ring.element(3))
    cls = classify_adequacy(c)
    assert cls.adequate and cls.passthrough     # (2*3)^2 = 36 = 1 mod 5


def test_passthrough_evaluator_reads_any_identity(br_gen):
    # the one evaluator sums any monomials over [A, B, delta, w], not only
    # the binomials the tangles give: on bq1, condition (ii) as A^2 + AB delta
    # + B^2 = 0 holds symbolically, and A^2 B^2 = w^4 does not.  It reads the
    # same on the raw vector, which begins with those entries
    ring, A, B = br_gen.ring, *br_gen.raw_tables
    base = [*A, *B, br_gen.raw_delta, br_gen.raw_w]
    delta_relation = (((0, 0), (0, 1, 2), (1, 1)), ())
    binomial = (((0, 0, 1, 1),), ((3, 3, 3, 3),))
    swapped = delta_relation[::-1]
    for table, witness in (([delta_relation, swapped], None),
                           ([delta_relation, binomial], binomial),
                           ([binomial, delta_relation], binomial)):
        assert brmod.failing_identity(table, base, ring) == witness
        assert brmod.failing_identity(table, br_gen.raw, ring) == witness
    assert brmod.passthrough_witness(br_gen.bq, ring, A, B) == brmod.failing_identity(
        brmod.passthrough_identities(br_gen.bq), base, ring)
    assert brmod.identity_text(1, delta_relation) == \
        "A[1,1]^2 + A[1,1] B[1,1] delta + B[1,1]^2 = 0"
    assert brmod.identity_text(1, binomial) == "A[1,1]^2 B[1,1]^2 = w^4"


def test_adequacy_invariant_under_automorphism(bq3, br_z5):
    # relabel the biquandle through each of its automorphisms
    autos = []
    for perm in itertools.permutations(range(3)):
        if all(perm[bq3.under(x, y)] == bq3.under(perm[x], perm[y])
               and perm[bq3.over(x, y)] == bq3.over(perm[x], perm[y])
               for x in range(3) for y in range(3)):
            autos.append(perm)
    assert autos
    for beta in br_z5:
        base = classify_adequacy(beta)
        for perm in autos:
            inv = {perm[i]: i for i in range(3)}
            A = [[beta.A[inv[x]][inv[y]] for y in range(3)] for x in range(3)]
            B = [[beta.B[inv[x]][inv[y]] for y in range(3)] for x in range(3)]
            relabeled = make_bracket(bq3, beta.ring, A, B)
            cls = classify_adequacy(relabeled)
            assert (cls.over_adequate, cls.under_adequate, cls.passthrough) == \
                   (base.over_adequate, base.under_adequate, base.passthrough)


def test_homflypt_coefficients_generic(br_gen):
    c_switch, c_smooth = homflypt_coefficients(br_gen, 0)
    L = br_gen.ring
    assert c_switch == L.monomial(-4, 4)
    assert c_smooth == L.monomial(-3, 3) + L.monomial(-1, 1, -1)


def test_homflypt_coefficients_z7(br_z7):
    c_switch, c_smooth = homflypt_coefficients(br_z7, 0)
    assert c_switch.value == 2           # 1^-4 * 2^4 = 16 = 2 mod 7
    assert c_smooth.value == 6           # 2^3 - 2 = 6


def test_homflypt_coefficients_kauffman_specialization():
    # B := A^-1 gives coefficients (A^-8, A^-6 - A^-2)
    ring = LaurentRing()
    beta = constant_bracket(ring, ring.monomial(1, 0), ring.monomial(-1, 0))
    c_switch, c_smooth = homflypt_coefficients(beta, 0)
    assert c_switch == ring.monomial(-8, 0)
    assert c_smooth == ring.monomial(-6, 0) + ring.monomial(-2, 0, -1)


def test_skein_identity_trefoil(bq1, br_gen):
    col = enumerate_colorings(trefoil_pos(), bq1)[0]
    for i in range(3):
        assert skein_identity_check(trefoil_pos(), bq1, br_gen, col, i)


def test_skein_identity_kink(bq1, br_gen, br_z7):
    col = (0, 0)
    assert skein_identity_check(unknot_kink(1), bq1, br_gen, col, 0)
    assert skein_identity_check(unknot_kink(-1), bq1, br_gen, col, 0)


def test_skein_identity_all_mod_constants():
    ring = ModRing(7)
    bq = trivial_biquandle(1)
    for a in ring.units():
        for b in ring.units():
            beta = constant_bracket(ring, a, b)
            col = enumerate_colorings(trefoil_pos(), bq)[0]
            assert skein_identity_check(trefoil_pos(), bq, beta, col, 0)


def test_skein_precondition_rejected(bq2, br_z7):
    # cols[1] = (1, 2, 2, 1) reads the pair (1, 2) at crossing 0, which is
    # not diagonal
    cols = enumerate_colorings(hopf_pos(), bq2)
    with pytest.raises(ValueError):
        skein_identity_check(hopf_pos(), bq2, br_z7, cols[1], 0)


def test_skein_identity_at_every_diagonal_pair_crossing(bq1, bq2, bq3, br_gen, br_z7,
                                                        br_z5, braid_closure):
    # The check needs only a diagonal coefficient pair (x, x) at the crossing.
    # Every crossing the fixed-point rule accepted (equal inputs x with
    # under(x, x) == x) reads a diagonal pair, so it is checked too.
    rng = random.Random(2017)
    drawings = [unknot_kink(1), unknot_kink(-1), hopf_pos(), trefoil_pos(), trefoil_rii()]
    drawings += [braid_closure([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(3, 7))],
                               strands=3)
                 for _ in range(10)]
    cases = [(bq1, br_gen), (bq2, br_z7)] + [(bq3, beta) for beta in br_z5]
    cases += [(bq2, beta) for i, (beta, _) in enumerate(search_brackets(bq2, 5))
              if i % 16 == 0]
    checked = fixed_point = 0
    failures = []
    for bq, beta in cases:
        for d in drawings:
            for col in enumerate_colorings(d, bq):
                for i, c in enumerate(d.crossings):
                    x, y = crossing_coefficient_pair(c, col)
                    u = col[c.u_in - 1]
                    if u == col[c.o_in - 1] and bq.under(u, u) == u:
                        fixed_point += 1
                        assert x == y, (d, col, i)
                    if x != y:
                        continue
                    checked += 1
                    if not skein_identity_check(d, bq, beta, col, i):
                        failures.append((beta, d, col, i))
    assert not failures, failures[:3]
    assert checked > fixed_point > 0


def test_delta_w_recomputation_consistency(br_z7, br_z5):
    for beta in [br_z7] + br_z5:
        deltas = {(-(beta.A[x][y].inverse() * beta.B[x][y])
                   - beta.A[x][y] * beta.B[x][y].inverse())
                  for x in range(beta.bq.n) for y in range(beta.bq.n)}
        assert deltas == {beta.delta}
        ws = {-(beta.A[x][x] * beta.A[x][x] * beta.B[x][x].inverse())
              for x in range(beta.bq.n)}
        assert ws == {beta.w}


def test_parse_errors_name_file_lines(bq2):
    with pytest.raises(ValueError, match="^line 4: expected 4 entries, found 3$"):
        parse_bracket("# c\nring mod 5\n# x\n1 1 4\n1 1 4 4\n", bq2)
    with pytest.raises(ValueError, match="^line 2: bad modulus 'x'"):
        parse_bracket("# c\nring mod x\n", bq2)
    with pytest.raises(ValueError, match="^line 4: invalid literal for int.*'a'$"):
        parse_bracket("ring mod 7\n1 1 1 1\n\n1 1 a 1\n", bq2)
    with pytest.raises(ValueError, match="^line 3: cannot parse Laurent factor 'A\\^'"):
        parse_bracket("ring laurent\n1 1 1 1\n1 A^ 1 1\n", bq2)


def test_serialize_round_trip(bq2, br_z7, bq1, br_gen):
    text = serialize_bracket(br_z7)
    again = parse_bracket(text, bq2)
    assert again.A == br_z7.A and again.B == br_z7.B
    text = serialize_bracket(br_gen)
    again = parse_bracket(text, bq1)
    assert again.A == br_gen.A and again.B == br_gen.B


def test_invariant_total_multiplicity_is_coloring_count(bq3, br_z5):
    inv = bracket_invariant(trefoil_pos(), bq3, br_z5[0])
    assert inv.total_multiplicity() == len(enumerate_colorings(trefoil_pos(), bq3))


def test_switched_trefoil_evaluates_to_delta(bq1, br_gen):
    # switching one crossing unknots the trefoil; the writhe-corrected state
    # sum of the resulting diagram is the unknot value delta
    from tracebracket.diagram import switch_crossing
    d = switch_crossing(trefoil_pos(), 0)
    col = enumerate_colorings(d, bq1)[0]
    assert state_sum(d, col, br_gen) == br_gen.delta


def test_invariant_calls_module_state_sum_once_per_coloring(monkeypatch, bq2, bq3, br_z7,
                                                            br_z5, braid_closure):
    # the benchmark counts bracket.state_sums and bracket.states by wrapping
    # the module-level state_sum, so the invariant must go through it
    import tracebracket.bracket as brmod
    calls = []

    def counted(d, coloring, beta):
        calls.append((d, coloring))
        return state_sum(d, coloring, beta)

    monkeypatch.setattr(brmod, "state_sum", counted)
    for bq, beta in ((bq2, br_z7), (bq3, br_z5[0])):
        for d in (hopf_pos(), trefoil_rii(), unknot0(), braid_closure([1, -2, 1, 2, -1], 3)):
            calls.clear()
            inv = bracket_invariant(d, bq, beta)
            assert calls == [(d, col) for col in enumerate_colorings(d, bq)]
            assert inv.total_multiplicity() == len(calls)
