"""Biquandle colorings of oriented diagrams and the counting invariant.

Crossing conventions
--------------------
The convention is stated once, in :func:`positive_frame`.  The coloring
rules, the propagation schedule and the bracket's coefficient pair all
read a crossing of either sign through its frame.

Which labels a crossing's rule can fill depends only on which labels are
known, not on their colors.  So each diagram gets one
:func:`propagation_schedule`: a list of levels, each a seed (the lowest
uncolored semiarc) and the steps that seed forces, every crossing firing
in exactly one step.  Enumeration is one depth-first search over the
seed colors, :func:`_search_seeds`: each level tries the colors that
:func:`_solve_seeds` allows it, given the colors of the seeds before it,
runs its steps and prunes at the first failed check.  When both
operations are affine over a prime field, under(x, y) = a x + b y + c and
over(x, y) = d x + e y + f mod a prime n with a and d nonzero (every
alexander(p, t, s) with p prime, and the two-element fixture bq2), every
color is affine in the k seed colors, so the checks form a linear system
in k unknowns over GF(n).  Elimination then narrows each pivot seed to
the one color its row gives.  Every other table (n = 1, composite n,
non-affine tables, and affine tables with a or d zero) tries every color
at every seed.

These rules are pinned by the worked invariants they must reproduce: nine
colorings of the trefoil under the linear biquandle on Z_3 with t=1, s=2,
four colorings of the Hopf link under the two-element biquandle, and
stability of the counting invariant across kink and poke fixture pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from .biquandle import Biquandle
from .diagram import Crossing, OrientedDiagram, require_valid

Coloring = Tuple[int, ...]  # colors[s - 1] is the color of semiarc s


def total_semiarcs(d: OrientedDiagram) -> int:
    """Crossing semiarcs plus one semiarc per crossing-free circle."""
    return d.n_semiarcs + d.free_loops


Frame = Tuple[Hashable, Hashable, Hashable, Hashable]


def positive_frame(sign: int, u_in: Hashable, o_in: Hashable, o_out: Hashable,
                   u_out: Hashable) -> Frame:
    """The crossing's roles as a positive crossing (a, b, c, d).

    This is the one statement of the crossing convention.  A positive
    crossing is its own frame, (u_in, o_in, o_out, u_out); a negative
    crossing is a positive one with inputs and outputs exchanged,
    (u_out, o_out, o_in, u_in).  At both signs a coloring satisfies

        c = over(b, a)        d = under(a, c)

    and the bracket coefficients are read at the pair (a, c).  The
    arguments may be colors or semiarc labels: the frame only permutes them.
    """
    if sign > 0:
        return u_in, o_in, o_out, u_out
    return u_out, o_out, o_in, u_in


def _forward(bq: Biquandle, a: int, b: int) -> Tuple[int, int]:
    """(c, d) of a frame from (a, b)."""
    c = bq.over(b, a)
    return c, bq.under(a, c)


def _backward(bq: Biquandle, c: int, d: int) -> Tuple[int, int]:
    """(a, b) of a frame from (c, d)."""
    a = bq.beta_inv(c, d)
    return a, bq.alpha_inv(a, c)


def crossing_outputs(bq: Biquandle, sign: int, u_in: int, o_in: int) -> Tuple[int, int]:
    """(u_out, o_out) colors for a crossing of either sign, from its inputs:
    the inputs are the frame's (a, b) at a positive crossing and its (d, c)
    at a negative one."""
    if sign > 0:
        o_out, u_out = _forward(bq, u_in, o_in)
        return u_out, o_out
    return _backward(bq, o_in, u_in)


def crossing_ok(bq: Biquandle, c: Crossing, colors: Sequence[int]) -> bool:
    a, b, fc, fd = positive_frame(c.sign, colors[c.u_in - 1], colors[c.o_in - 1],
                                  colors[c.o_out - 1], colors[c.u_out - 1])
    # (c, d) == _forward(bq, a, b), inlined: state_sum checks every coloring it is given
    return fc == bq.over(b, a) and fd == bq.under(a, fc)


def validate_coloring(d: OrientedDiagram, bq: Biquandle, coloring: Sequence[int]) -> bool:
    """True iff the coloring satisfies both conditions at every crossing.

    The coloring covers crossing semiarcs 1..2c followed by one entry per
    free loop; free-loop colors are unconstrained.
    """
    if len(coloring) != total_semiarcs(d):
        raise ValueError(
            f"coloring has {len(coloring)} entries for {total_semiarcs(d)} semiarcs")
    for v in coloring:
        if not 0 <= v < bq.n:
            raise ValueError(f"color {v} out of range 0..{bq.n - 1}")
    return all(crossing_ok(bq, c, coloring) for c in d.crossings)


def _frames(d: OrientedDiagram) -> List[Frame]:
    """Each crossing's positive frame over 0-based semiarc indices."""
    return [positive_frame(c.sign, c.u_in - 1, c.o_in - 1, c.o_out - 1, c.u_out - 1)
            for c in d.crossings]


# A schedule step fires one frame once: (frame index, rule, in1, in2, out1,
# out2, assign1, assign2).  The rule computes the frame's two outputs from
# its two inputs; each output is assigned when it is still unknown and
# checked against its color otherwise.  In (a, b, c, d) terms the rules are
# forward (a, b) -> (c, d), backward (c, d) -> (a, b) and mixed
# (a, c) -> (b, d), tried in that order.
Step = Tuple[int, int, Hashable, Hashable, Hashable, Hashable, bool, bool]
# A level: the seed it colors (None for the labels given up front) and the
# steps that coloring forces.
Level = Tuple[Optional[Hashable], Tuple[Step, ...]]

_FORWARD, _BACKWARD, _MIXED = 0, 1, 2


def _forced_steps(frames: Sequence[Frame], pending: List[int], known: set) -> Tuple[Step, ...]:
    """Fire every frame in ``pending`` that the known labels let fire, in
    passes over the frames until a pass assigns nothing.  Updates ``known``
    and ``pending``."""
    steps: List[Step] = []
    changed = True
    while changed:
        changed = False
        waiting = []
        for f in pending:
            a, b, c, d = frames[f]
            if a in known and b in known:
                step = [f, _FORWARD, a, b, c, d]
            elif c in known and d in known:
                step = [f, _BACKWARD, c, d, a, b]
            elif a in known and c in known:
                step = [f, _MIXED, a, c, b, d]
            else:
                waiting.append(f)
                continue
            for out in step[4:]:
                fresh = out not in known
                known.add(out)
                changed |= fresh
                step.append(fresh)
            steps.append(tuple(step))
        pending[:] = waiting
    return tuple(steps)


def propagation_schedule(frames: Sequence[Frame], labels: Sequence[Hashable],
                         given: Iterable[Hashable] = ()) -> List[Level]:
    """The order in which coloring the frames' labels forces colors.

    Which labels a frame's rule can fill depends only on which labels are
    known, not on their colors, so one schedule serves every assignment of
    colors.  When ``given`` is non-empty the first level, with seed None,
    holds the steps that the given labels force.  Each further level seeds
    the first label of ``labels`` still uncolored and holds the steps that
    seed forces.  Every frame fires in exactly one step, so each of its two
    equations is checked once, and every label that is neither given nor a
    seed is assigned by exactly one step.
    """
    known = set(given)
    pending = list(range(len(frames)))
    levels: List[Level] = []
    if known:
        levels.append((None, _forced_steps(frames, pending, known)))
    for seed in labels:
        if seed not in known:
            known.add(seed)
            levels.append((seed, _forced_steps(frames, pending, known)))
    return levels


def run_steps(steps: Sequence[Step], bq: Biquandle, colors,
              differences: Optional[List[int]] = None) -> bool:
    """Run schedule steps on ``colors`` (a list or a dict over the labels);
    False at the first failed check.  Given a ``differences`` list, every
    check appends (color - computed color) to it instead and the run goes
    on.  An inverse that a non-bijective column lacks raises ValueError."""
    over, under = bq.over_table, bq.under_table
    for _f, rule, x, y, z, w, assign_z, assign_w in steps:
        a, b = colors[x], colors[y]
        if rule == _FORWARD:        # (a, b) -> (c, d)
            u = over[b][a]
            v = under[a][u]
        elif rule == _BACKWARD:     # (c, d) -> (a, b)
            u = bq.beta_inv(a, b)
            v = bq.alpha_inv(u, a)
        else:                       # (a, c) -> (b, d)
            u = bq.alpha_inv(a, b)
            v = under[a][b]
        if assign_z:
            colors[z] = u
        elif differences is not None:
            differences.append(colors[z] - u)
        elif colors[z] != u:
            return False
        if assign_w:
            colors[w] = v
        elif differences is not None:
            differences.append(colors[w] - v)
        elif colors[w] != v:
            return False
    return True


def _diagram_schedule(d: OrientedDiagram) -> List[Level]:
    """The diagram's schedule over its 0-based crossing semiarcs."""
    return propagation_schedule(_frames(d), range(d.n_semiarcs))


# The colors a level of the seed search tries, from its depth and the
# colors of the seeds before it.
Choices = Callable[[int, Sequence[int]], Sequence[int]]


def enumerate_colorings(d: OrientedDiagram, bq: Biquandle) -> List[Coloring]:
    """All valid colorings, in lexicographic order of the color tuple: the
    search of :func:`_search_seeds` over the diagram's
    :func:`propagation_schedule`, trying the colors :func:`_solve_seeds`
    allows each seed."""
    require_valid(d)
    levels = _diagram_schedule(d)
    return _extend_free_loops(d, bq, _search_seeds(d, bq, levels, _solve_seeds(d, bq, levels)))


def _search_seeds(d: OrientedDiagram, bq: Biquandle, levels: Sequence[Level],
                  choices: Choices) -> List[Coloring]:
    """Depth-first search over the seed colors, each level trying the colors
    ``choices`` gives it, running its steps and pruning at the first failed
    check; the colorings of the crossing semiarcs, unsorted.  Works over
    any biquandle.

    Every frame fires in exactly one step, so a coloring that passes every
    level satisfies both equations at every crossing.  A level only
    overwrites labels that no earlier level colors, so the search
    backtracks without restoring anything.
    """
    if not levels:
        return [()]
    colors = [0] * d.n_semiarcs
    results: List[Coloring] = []
    last = len(levels) - 1
    untried = [list(choices(0, colors))] + [[]] * last   # colors left at each level
    depth = 0
    while depth >= 0:
        if not untried[depth]:
            depth -= 1
            continue
        seed, steps = levels[depth]
        colors[seed] = untried[depth].pop()
        if not run_steps(steps, bq, colors):
            continue
        if depth < last:
            depth += 1
            untried[depth] = list(choices(depth, colors))
            continue
        results.append(tuple(colors))
    return results


def _extend_free_loops(d: OrientedDiagram, bq: Biquandle,
                       results: List[Coloring]) -> List[Coloring]:
    """Sort the crossing-semiarc colorings and extend each over the
    free loops, whose colors are unconstrained."""
    results.sort()
    loops = itertools.product(range(bq.n), repeat=d.free_loops)
    return [base + tail for base, tail in itertools.product(results, loops)]


Affine = Tuple[int, int, int]


def _affine_coefficients(table: Sequence[Sequence[int]], n: int) -> Optional[Affine]:
    """(a, b, c) with table[x][y] == a*x + b*y + c (mod n) for every x, y,
    or None if the table is not of that form."""
    c = table[0][0]
    a = (table[1][0] - c) % n
    b = (table[0][1] - c) % n
    if all(table[x][y] == (a * x + b * y + c) % n for x in range(n) for y in range(n)):
        return a, b, c
    return None


@lru_cache(maxsize=64)
def _affine_form(bq: Biquandle) -> Optional[Tuple[Affine, Affine]]:
    """The coefficients of under and over when bq is affine over the prime
    field Z_n with bijective column maps (a nonzero x coefficient in both),
    else None.  Memoized: a biquandle never changes and hashes by its
    tables."""
    n = bq.n
    if n < 2 or any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        return None
    under = _affine_coefficients(bq.under_table, n)
    over = _affine_coefficients(bq.over_table, n)
    if under is None or over is None or under[0] == 0 or over[0] == 0:
        return None
    return under, over


def _solve_seeds(d: OrientedDiagram, bq: Biquandle, levels: Sequence[Level]) -> Choices:
    """The colors each seed may take, given the colors of the seeds before it.

    Over an affine biquandle on GF(p) (see :func:`_affine_form`) every color
    the steps compute, and so every check's difference, is an affine
    function of the k seed colors.  Each is read off the steps' run at the
    zero seed vector and at the k unit vectors.  The checks' differences
    must vanish: a linear system in k unknowns, solved by elimination with
    each pivot at its row's last nonzero column, so that a pivot row reads
    only earlier seeds.  A pivot seed gets the one color its row gives, a
    free seed all of GF(p), and an inconsistent system no color at all.
    Over every other biquandle each seed may take every color.
    """
    every = range(bq.n)
    if _affine_form(bq) is None:
        return lambda _depth, _colors: every
    p = bq.n
    seeds = [seed for seed, _ in levels]
    steps = [step for _, level_steps in levels for step in level_steps]
    k = len(seeds)
    trial = [0] * d.n_semiarcs

    samples: List[List[int]] = []
    for point in range(-1, k):              # the zero vector, then each unit vector
        for j, seed in enumerate(seeds):
            trial[seed] = int(j == point)
        samples.append([])
        run_steps(steps, bq, trial, samples[-1])
    origin, units = samples[0], samples[1:]
    # each row: sum(coef * seed) + const == 0
    rows = [[(unit[r] - const) % p for unit in units] + [const % p]
            for r, const in enumerate(origin)]

    # Gauss-Jordan: each pivot row stays free of every other pivot column
    pivots: List[Tuple[int, List[int]]] = []
    for row in rows:
        for col, other in pivots:
            factor = row[col]
            if factor:
                row = [(g - factor * h) % p for g, h in zip(row, other)]
        col = next((j for j in reversed(range(k)) if row[j]), None)
        if col is None:
            if row[k]:
                return lambda _depth, _colors: ()   # 0 == nonzero constant
            continue
        inv = pow(row[col], -1, p)
        row = [g * inv % p for g in row]
        for _, other in pivots:
            factor = other[col]
            if factor:
                other[:] = [(g - factor * h) % p for g, h in zip(other, row)]
        pivots.append((col, row))

    # seed j = -(const + sum(coef * earlier seed)); no entry for a free seed
    solved: List[Optional[Tuple[List[Tuple[int, int]], int]]] = [None] * k
    for j, row in pivots:
        solved[j] = ([(seeds[f], row[f]) for f in range(j) if row[f]], row[k])

    def choices(depth: int, colors: Sequence[int]) -> Sequence[int]:
        if solved[depth] is None:
            return every
        terms, const = solved[depth]
        return (-(const + sum(coef * colors[seed] for seed, coef in terms)) % p,)

    return choices


def counting_invariant(d: OrientedDiagram, bq: Biquandle) -> int:
    """The number of colorings of the diagram."""
    return len(enumerate_colorings(d, bq))


@dataclass(frozen=True)
class RiiiFailure:
    color: int               # the monochromatic input color (0-indexed)
    pattern: Tuple[int, ...]  # the three crossing signs
    strand: str              # which strand's colors went wrong
    expected: Tuple[int, ...]
    got: Tuple[int, ...]


@dataclass(frozen=True)
class RiiiReport:
    ok: bool
    failures: Tuple[RiiiFailure, ...] = ()


def monochromatic_riii_check(bq: Biquandle) -> RiiiReport:
    """Check the monochromatic three-strand tangle for all 8 sign patterns.

    With all three strands entering colored x, set y = under(x, x) and
    z = under(y, y).  Each strand should cross twice, carrying colors
    (x, y, z) along its journey, independent of how the three crossing
    signs are chosen.  Failures are collected with full witnesses.
    """
    failures: List[RiiiFailure] = []
    for x in bq.elements():
        y = bq.under(x, x)
        z = bq.under(y, y)
        for bits in range(8):
            # +1: the strand from the lower position passes under (positive
            # crossing); -1: the switched crossing (roles swapped, negative).
            pattern = tuple(1 if bits & (1 << i) else -1 for i in range(3))
            strands = {"A": [x], "B": [x], "C": [x]}
            pos = {0: "A", 1: "B", 2: "C"}
            for k, lower in enumerate((0, 1, 0)):
                upper = lower + 1
                s_lo, s_hi = pos[lower], pos[upper]
                lo_col, hi_col = strands[s_lo][-1], strands[s_hi][-1]
                if pattern[k] > 0:
                    u_out, o_out = crossing_outputs(bq, +1, lo_col, hi_col)
                    lo_out, hi_out = u_out, o_out
                else:
                    u_out, o_out = crossing_outputs(bq, -1, hi_col, lo_col)
                    lo_out, hi_out = o_out, u_out
                strands[s_lo].append(lo_out)
                strands[s_hi].append(hi_out)
                pos[lower], pos[upper] = s_hi, s_lo
            for name in "ABC":
                expected = (x, y, z)
                got = tuple(strands[name])
                if got != expected:
                    failures.append(RiiiFailure(x, pattern, name, expected, got))
    return RiiiReport(ok=not failures, failures=tuple(failures))
