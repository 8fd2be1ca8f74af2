"""Biquandle colorings of oriented diagrams and the counting invariant.

Crossing conventions
--------------------
The convention is stated once, in :func:`positive_frame`.  The coloring
rules, propagation, the linear system and the bracket's coefficient pair
all read a crossing of either sign through its frame.

Enumeration takes one of two paths.  When both operations are affine over
a prime field, under(x, y) = a x + b y + c and over(x, y) = d x + e y + f
mod a prime n with a and d nonzero (every alexander(p, t, s) with p prime,
and the two-element fixture bq2), each crossing's two equations are linear
and the colorings are the solutions of a sparse linear system over GF(n),
found by elimination.  Every other table (n = 1, composite n, non-affine
tables, and affine tables with a or d zero) goes through a depth-first
search with constraint propagation.  Both paths return the same list.

These rules are pinned by the worked invariants they must reproduce: nine
colorings of the trefoil under the linear biquandle on Z_3 with t=1, s=2,
four colorings of the Hopf link under the two-element biquandle, and
stability of the counting invariant across kink and poke fixture pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .biquandle import Biquandle
from .diagram import Crossing, OrientedDiagram, validate_diagram

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
    # (c, d) == _forward(bq, a, b), inlined: validate_coloring runs per solution
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


def _propagate(frames: Sequence[Frame], bq: Biquandle, colors) -> bool:
    """Fill in forced colors; False on contradiction.

    ``colors`` maps every label the frames use (a list index or a dict key)
    to its color, or None while it is unknown.
    """
    changed = True
    while changed:
        changed = False
        for fa, fb, fc, fd in frames:
            a, b, c, d = colors[fa], colors[fb], colors[fc], colors[fd]
            if a is not None and b is not None:
                derived = zip((fc, fd), _forward(bq, a, b))
            elif c is not None and d is not None:
                derived = zip((fa, fb), _backward(bq, c, d))
            elif a is not None and c is not None:
                derived = ((fb, bq.alpha_inv(a, c)), (fd, bq.under(a, c)))
            else:
                continue
            for label, value in derived:
                cur = colors[label]
                if cur is None:
                    colors[label] = value
                    changed = True
                elif cur != value:
                    return False
    return True


def enumerate_colorings(d: OrientedDiagram, bq: Biquandle) -> List[Coloring]:
    """All valid colorings, in lexicographic order of the color tuple.

    Over a biquandle that is affine over a prime field (see
    :func:`_affine_form`) the colorings are the solutions of a linear
    system, found by sparse elimination over GF(n).  Every other biquandle,
    including n = 1 and composite n, goes through the depth-first search of
    :func:`_dfs_colorings`.  Both give the same list.
    """
    form = _affine_form(bq)
    if form is None:
        return _dfs_colorings(d, bq)
    _require_valid(d)
    return _extend_free_loops(d, bq, _linear_colorings(d, bq, form))


def _require_valid(d: OrientedDiagram) -> None:
    report = validate_diagram(d)
    if not report.ok:
        raise ValueError("invalid diagram: " + "; ".join(report.problems))


def _dfs_colorings(d: OrientedDiagram, bq: Biquandle) -> List[Coloring]:
    """Depth-first search with constraint propagation: repeatedly propagate
    forced colors through crossings, then branch on the lowest-numbered
    uncolored semiarc.  Works over any biquandle."""
    _require_valid(d)

    m = d.n_semiarcs
    frames = _frames(d)
    results: List[Coloring] = []

    def search(colors: List[Optional[int]]) -> None:
        if not _propagate(frames, bq, colors):
            return
        try:
            s = next(i for i in range(m) if colors[i] is None)
        except StopIteration:
            final = tuple(colors)  # type: ignore[arg-type]
            if validate_coloring(d, bq, final + (0,) * d.free_loops):
                results.append(final)
            return
        for v in range(bq.n):
            branch = list(colors)
            branch[s] = v
            search(branch)

    search([None] * m)
    return _extend_free_loops(d, bq, results)


def _extend_free_loops(d: OrientedDiagram, bq: Biquandle,
                       results: List[Coloring]) -> List[Coloring]:
    """Sort the crossing-semiarc colorings and extend each over the
    free loops, whose colors are unconstrained."""
    results.sort()
    if not d.free_loops:
        return results

    extended: List[Coloring] = []
    for base in results:
        stack: List[Tuple[int, ...]] = [base]
        for _ in range(d.free_loops):
            stack = [t + (v,) for t in stack for v in range(bq.n)]
        extended.extend(stack)
    extended.sort()
    return extended


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


def _affine_form(bq: Biquandle) -> Optional[Tuple[Affine, Affine]]:
    """The coefficients of under and over when bq is affine over the prime
    field Z_n with bijective column maps (a nonzero x coefficient in both),
    else None."""
    n = bq.n
    if n < 2 or any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        return None
    under = _affine_coefficients(bq.under_table, n)
    over = _affine_coefficients(bq.over_table, n)
    if under is None or over is None or under[0] == 0 or over[0] == 0:
        return None
    return under, over


_CONST = -1  # the key of a row's constant term


def _linear_colorings(d: OrientedDiagram, bq: Biquandle,
                      form: Tuple[Affine, Affine]) -> List[Coloring]:
    """Colorings of the crossing semiarcs as the solutions of the crossing
    equations over GF(p), unsorted.

    Each crossing gives the two equations of its :func:`positive_frame`.
    With under and over affine and their column maps bijective these are
    exactly the conditions :func:`crossing_ok` checks.  Each row {semiarc index: coefficient, plus
    _CONST} states sum(coef * color) + const == 0.  Gauss-Jordan elimination
    keeps every pivot row free of the other pivots, so after it the free
    semiarcs range over all of GF(p) and each pivot is read off its row.
    """
    p = bq.n
    (ua, ub, uc), (oa, ob, oc) = form   # under and over: a x + b y + c
    pivots: Dict[int, Dict[int, int]] = {}

    for a, b, c, dd in _frames(d):
        # -out + coef1 * in1 + coef2 * in2 + const == 0; the solved-for
        # semiarc goes first, so it is the preferred pivot
        for out, terms, const in ((c, ((b, oa), (a, ob)), oc),
                                  (dd, ((a, ua), (c, ub)), uc)):
            row: Dict[int, int] = {out: p - 1}
            for s, coef in terms:
                row[s] = (row.get(s, 0) + coef) % p
            row[_CONST] = const
            for v in [v for v in row if v in pivots]:
                factor = row.pop(v)
                for w, coef in pivots[v].items():
                    if w != v:
                        row[w] = (row.get(w, 0) - factor * coef) % p
            row = {w: coef for w, coef in row.items() if coef}
            v = next((w for w in row if w != _CONST), None)
            if v is None:
                if row:
                    return []      # 0 == nonzero constant: no colorings
                continue
            inv = pow(row[v], -1, p)
            row = {w: coef * inv % p for w, coef in row.items()}
            for other in pivots.values():
                factor = other.pop(v, 0)
                if factor:
                    for w, coef in row.items():
                        if w != v:
                            other[w] = (other.get(w, 0) - factor * coef) % p
                            if not other[w]:
                                del other[w]
            pivots[v] = row

    m = d.n_semiarcs
    free = [s for s in range(m) if s not in pivots]
    solved = [(v, row.get(_CONST, 0), [(w, coef) for w, coef in row.items()
                                       if w != v and w != _CONST])
              for v, row in pivots.items()]
    results: List[Coloring] = []
    colors = [0] * m
    loops = (0,) * d.free_loops
    for values in itertools.product(range(p), repeat=len(free)):
        for s, value in zip(free, values):
            colors[s] = value
        for v, const, terms in solved:
            colors[v] = -(const + sum(coef * colors[w] for w, coef in terms)) % p
        final = tuple(colors)
        if validate_coloring(d, bq, final + loops):
            results.append(final)
    return results


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
