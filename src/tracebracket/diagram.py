"""Oriented link diagrams as signed crossing codes.

A diagram is a list of signed crossings, each recording the four incident
semiarcs by role: under-input, over-input, over-output, under-output.
Semiarcs are numbered 1..m; in a closed diagram every semiarc is born at
exactly one output slot and dies at exactly one input slot.  Crossing-free
circle components are tracked by an explicit ``free_loops`` counter.

Planarity is never checked: all operations here are purely combinatorial.

The state-sum engine (``join_ends``, ``contract``) also lives here: the
bracket state sum, the trace-diagram evaluators and the loop counts all run
on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Crossing:
    sign: int  # +1 or -1
    u_in: int
    o_in: int
    o_out: int
    u_out: int


@dataclass(frozen=True)
class OrientedDiagram:
    crossings: Tuple[Crossing, ...]
    free_loops: int = 0

    @property
    def n_semiarcs(self) -> int:
        return 2 * len(self.crossings)

    def semiarcs(self) -> range:
        return range(1, self.n_semiarcs + 1)


@dataclass(frozen=True)
class DiagramReport:
    ok: bool
    problems: Tuple[str, ...] = ()


def diagram(crossing_rows: Iterable[Tuple[int, int, int, int, int]],
            free_loops: int = 0) -> OrientedDiagram:
    """Build a diagram from (sign, u_in, o_in, o_out, u_out) rows."""
    return OrientedDiagram(tuple(Crossing(*row) for row in crossing_rows), free_loops)


def validate_diagram(d: OrientedDiagram) -> DiagramReport:
    m = d.n_semiarcs
    problems: List[str] = []
    ins: Dict[int, int] = {}
    outs: Dict[int, int] = {}
    for idx, c in enumerate(d.crossings):
        if c.sign not in (+1, -1):
            problems.append(f"crossing {idx}: sign must be +1 or -1")
        for s in (c.u_in, c.o_in, c.o_out, c.u_out):
            if not 1 <= s <= m:
                problems.append(f"crossing {idx}: semiarc {s} out of range 1..{m}")
        for s in (c.u_in, c.o_in):
            ins[s] = ins.get(s, 0) + 1
        for s in (c.u_out, c.o_out):
            outs[s] = outs.get(s, 0) + 1
    for s in d.semiarcs():
        if ins.get(s, 0) != 1:
            problems.append(f"semiarc {s} used {ins.get(s, 0)} times as an input")
        if outs.get(s, 0) != 1:
            problems.append(f"semiarc {s} used {outs.get(s, 0)} times as an output")
    if d.free_loops < 0:
        problems.append("free_loops must be nonnegative")
    return DiagramReport(ok=not problems, problems=tuple(problems))


def writhe_counts(d: OrientedDiagram) -> Tuple[int, int]:
    """Return (positive crossing count, negative crossing count)."""
    p = sum(1 for c in d.crossings if c.sign > 0)
    return p, len(d.crossings) - p


# The pairings of the two smoothings, by crossing role: A joins u_in with
# o_out and o_in with u_out (orientation-coherent), B joins u_in with o_in
# and u_out with o_out.  The same pairings apply at both crossing signs.
SMOOTHINGS = {"A": (("u_in", "o_out"), ("o_in", "u_out")),
              "B": (("u_in", "o_in"), ("u_out", "o_out"))}


def state_pairings(c: Crossing, choice: str) -> Tuple[Tuple[int, int], ...]:
    if choice not in SMOOTHINGS:
        raise ValueError(f"smoothing choice must be 'A' or 'B', got {choice!r}")
    return tuple((getattr(c, a), getattr(c, b)) for a, b in SMOOTHINGS[choice])


# ---------------------------------------------------------------------------
# the state-sum engine
#
# A partial state is a set of paths.  ``mate`` maps each open end of a path
# to the path's other end.  Every label is joined twice in a closed diagram:
# its first join opens it as a path end and its second closes it off, so
# when every node is placed all paths have closed into circles and ``mate``
# is empty.  Labels joined once (the boundary of an open tangle) stay open.
# ---------------------------------------------------------------------------

def join_ends(mate: Dict[Hashable, Hashable], x: Hashable, y: Hashable) -> int:
    """Join the path ends ``x`` and ``y``; return 1 if that closes a circle."""
    if x == y or mate.get(x) == y:
        mate.pop(x, None)
        mate.pop(y, None)
        return 1
    ex, ey = mate.pop(x, x), mate.pop(y, y)
    mate[ex], mate[ey] = ey, ex
    return 0


def contract(nodes: Iterable[Sequence[Tuple[object, Sequence[Tuple[Hashable, Hashable]]]]],
             one, delta) -> Dict[FrozenSet[Tuple[Hashable, Hashable]], object]:
    """Sum over every choice at every node, one node at a time.

    Each node lists its choices as (coefficient, joins).  The running sum
    maps each pairing of open ends, ``frozenset(mate.items())``, to the
    summed value of the partial states that leave it, and a closed circle
    multiplies by ``delta`` as soon as it closes.  States that leave the same
    pairing merge, so the cost follows the number of distinct pairings, not
    the number of states.
    """
    states = {frozenset(): one}
    for choices in nodes:
        merged = {}
        for pairing, value in states.items():
            for coeff, joins in choices:
                mate = dict(pairing)
                loops = sum(join_ends(mate, x, y) for x, y in joins)
                term = value * coeff * delta ** loops if loops else value * coeff
                after = frozenset(mate.items())
                merged[after] = merged[after] + term if after in merged else term
        states = merged
    return states


def count_state_loops(d: OrientedDiagram, state: Sequence[str]) -> int:
    """Number of circles after smoothing every crossing per ``state``."""
    if len(state) != len(d.crossings):
        raise ValueError("state length must equal the crossing count")
    mate: Dict[Hashable, Hashable] = {}
    return d.free_loops + sum(join_ends(mate, a, b)
                              for c, choice in zip(d.crossings, state)
                              for a, b in state_pairings(c, choice))


def switch_crossing(d: OrientedDiagram, index: int) -> OrientedDiagram:
    """Swap over/under roles (and the sign) at one crossing."""
    c = d.crossings[index]
    switched = Crossing(-c.sign, u_in=c.o_in, o_in=c.u_in,
                        o_out=c.u_out, u_out=c.o_out)
    rows = list(d.crossings)
    rows[index] = switched
    return OrientedDiagram(tuple(rows), d.free_loops)


def oriented_smoothing(d: OrientedDiagram, index: int) -> OrientedDiagram:
    """Remove a crossing with the orientation-coherent (A) smoothing.

    The semiarc entering u_in continues into the semiarc leaving o_out, and
    the semiarc entering o_in continues into u_out's.  Merged semiarcs are
    renumbered canonically, preserving the relative order of survivors; a
    merge that closes a crossing-free circle increments ``free_loops``.
    """
    target = d.crossings[index]
    succ = {target.u_in: target.o_out, target.o_in: target.u_out}
    rename: Dict[int, int] = {}
    closed = 0
    for s in d.semiarcs():
        r, seen = s, set()
        while r in succ and r not in seen:
            seen.add(r)
            r = succ[r]
        if r not in succ:
            rename[s] = r
        elif s == min(seen):
            closed += 1
    compact = {old: i + 1 for i, old in enumerate(sorted(set(rename.values())))}
    rows = []
    for i, c in enumerate(d.crossings):
        if i != index:
            rows.append(Crossing(c.sign,
                                 u_in=compact[rename[c.u_in]],
                                 o_in=compact[rename[c.o_in]],
                                 o_out=compact[rename[c.o_out]],
                                 u_out=compact[rename[c.u_out]]))
    return OrientedDiagram(tuple(rows), d.free_loops + closed)


def parse_diagram(text: str) -> OrientedDiagram:
    """Parse the crossing-per-line format.

    Each crossing line is ``+ u_in o_in o_out u_out`` or ``- ...``; an
    optional ``loops k`` line declares crossing-free circles.  ``#`` starts
    a comment.
    """
    rows = []
    free_loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "loops":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'loops k'")
            free_loops = int(parts[1])
            continue
        if parts[0] not in ("+", "-") or len(parts) != 5:
            raise ValueError(f"line {lineno}: expected '(+|-) u_in o_in o_out u_out'")
        sign = 1 if parts[0] == "+" else -1
        try:
            u_in, o_in, o_out, u_out = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer semiarc id") from None
        rows.append((sign, u_in, o_in, o_out, u_out))
    return diagram(rows, free_loops)


def serialize_diagram(d: OrientedDiagram) -> str:
    lines = []
    if d.free_loops:
        lines.append(f"loops {d.free_loops}")
    for c in d.crossings:
        sgn = "+" if c.sign > 0 else "-"
        lines.append(f"{sgn} {c.u_in} {c.o_in} {c.o_out} {c.u_out}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical fixtures
# ---------------------------------------------------------------------------

def unknot0() -> OrientedDiagram:
    """A crossingless circle."""
    return OrientedDiagram((), free_loops=1)


def unknot_kink(sign: int) -> OrientedDiagram:
    """The unknot with a single kink of the given sign."""
    return diagram([(sign, 1, 2, 1, 2)])


def hopf_pos() -> OrientedDiagram:
    """Two-crossing positive diagram with state loop counts AA->2, AB->1, BB->2."""
    return diagram([(1, 1, 4, 2, 3), (1, 3, 2, 4, 1)])


def trefoil_pos() -> OrientedDiagram:
    """The standard 3-crossing all-positive trefoil diagram."""
    return diagram([(1, 1, 4, 5, 2), (1, 5, 2, 3, 6), (1, 3, 6, 1, 4)])


def trefoil_rii() -> OrientedDiagram:
    """The trefoil with an extra two-crossing poke (one +, one -) added."""
    return diagram([
        (1, 8, 4, 5, 2),   # the three trefoil crossings, rerouted
        (1, 5, 10, 3, 6),
        (1, 3, 6, 1, 4),
        (1, 1, 2, 9, 7),   # poke: semiarc-1 strand passes under semiarc-2 strand
        (-1, 7, 9, 10, 8),
    ])
