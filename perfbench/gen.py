"""Seeded input generators: braid closures, their Reidemeister-equivalent
variants, trace-diagram files and bracket files.

A braid word is a tuple of nonzero ints: ``k`` is the generator sigma_k
(strands k and k+1 cross, the strand from position k passing over), ``-k``
its inverse.  Every generated diagram is checked with the program's
``validate_diagram`` and a parse/serialise round trip before it is used.
"""
from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from tracebracket import bracket as brmod
from tracebracket import diagram as dgmod
from tracebracket import trace as trmod

Word = Tuple[int, ...]


def braid_closure(word: Sequence[int], strands: int) -> dgmod.OrientedDiagram:
    """The closure of a braid word as a crossing code.

    All strands run upwards.  At sigma_k the strand entering at position k
    passes over the one entering at k+1 (a positive crossing); at sigma_k^-1
    it passes under.  Semiarcs are numbered in order of first appearance.
    """
    used = {abs(g) for g in word}
    if not word or used != set(range(1, strands)):
        raise ValueError(f"word must use each of sigma_1..sigma_{strands - 1}")
    cur = list(range(strands))           # semiarc currently at each position
    fresh = strands
    rows = []
    for g in word:
        k = abs(g) - 1
        left, right = cur[k], cur[k + 1]
        top_left, top_right = fresh, fresh + 1
        fresh += 2
        if g > 0:   # over strand: left -> right; under strand: right -> left
            rows.append((1, right, left, top_right, top_left))
        else:       # under strand: left -> right; over strand: right -> left
            rows.append((-1, left, right, top_left, top_right))
        cur[k], cur[k + 1] = top_left, top_right
    closing = {cur[p]: p for p in range(strands)}
    order: Dict[int, int] = {}

    def name(s: int) -> int:
        s = closing.get(s, s)
        if s not in order:
            order[s] = len(order) + 1
        return order[s]

    code = [(sign, name(a), name(b), name(c), name(d)) for sign, a, b, c, d in rows]
    d = dgmod.diagram(code)
    check_diagram(d)
    return d


def check_diagram(d: dgmod.OrientedDiagram) -> None:
    report = dgmod.validate_diagram(d)
    if not report.ok:
        raise AssertionError("generated diagram is invalid: " + "; ".join(report.problems))
    if dgmod.parse_diagram(dgmod.serialize_diagram(d)) != d:
        raise AssertionError("diagram does not survive a parse round trip")


def _letters(rng: random.Random, strands: int, length: int) -> Word:
    return tuple(rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length))


def _uses_all(word: Word, strands: int) -> bool:
    return {abs(g) for g in word} == set(range(1, strands))


def random_word(rng: random.Random, strands: int, length: int) -> Word:
    """A word of the given length that uses every generator at least once."""
    if length < strands - 1:
        raise ValueError("word too short to use every generator")
    while True:
        word = _letters(rng, strands, length)
        if _uses_all(word, strands):
            return word


def balanced_word(rng: random.Random, strands: int, length: int) -> Word:
    """A word in which each generator, and each sign, appears as evenly as
    the length allows, in seeded order."""
    if length < strands - 1:
        raise ValueError("word too short to use every generator")
    gens = [1 + i % (strands - 1) for i in range(length)]
    signs = [1 if i % 2 else -1 for i in range(length)]
    rng.shuffle(gens)
    rng.shuffle(signs)
    return tuple(g * s for g, s in zip(gens, signs))


def closes_to_knot(word: Sequence[int], strands: int) -> bool:
    """True iff the closure has one component: the word's permutation is
    a single cycle (so the length has the parity of strands - 1)."""
    perm = list(range(strands))
    for g in word:
        k = abs(g) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    length, x = 1, perm[0]
    while x != 0:
        length, x = length + 1, perm[x]
    return length == strands


# ---------------------------------------------------------------------------
# Reidemeister-equivalent variants of a braid closure
# ---------------------------------------------------------------------------

def conjugate(word: Word, rng: random.Random) -> Word:
    """Cyclic rotation: conjugation by a prefix, the same closure."""
    k = rng.randrange(1, len(word))
    return word[k:] + word[:k]


def rii_insert(word: Word, strands: int, rng: random.Random) -> Word:
    """Insert sigma sigma^-1 (an RII move in the closure)."""
    g = rng.randint(1, strands - 1) * rng.choice((1, -1))
    k = rng.randrange(0, len(word) + 1)
    return word[:k] + (g, -g) + word[k:]


def riii_sites(word: Word) -> List[int]:
    """Positions where sigma_i sigma_j sigma_i with |i - j| = 1 and equal signs starts."""
    out = []
    for k in range(len(word) - 2):
        a, b, c = word[k:k + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            out.append(k)
    return out


def riii_move(word: Word, rng: random.Random) -> Word:
    """Rewrite one sigma_i sigma_j sigma_i as sigma_j sigma_i sigma_j (RIII)."""
    k = rng.choice(riii_sites(word))
    a, b, _ = word[k:k + 3]
    return word[:k] + (b, a, b) + word[k + 3:]


def stabilise(word: Word, strands: int, sign: int) -> Tuple[Word, int]:
    """Markov stabilisation: append sigma_n^(+-1) on one more strand."""
    return word + (sign * strands,), strands + 1


def with_riii_site(rng: random.Random, strands: int, length: int) -> Word:
    """A random word (3+ strands) that contains an RIII site."""
    while True:
        i = rng.randint(1, strands - 2)
        sign = rng.choice((1, -1))
        rest = _letters(rng, strands, length - 3)
        k = rng.randrange(0, len(rest) + 1)
        word = rest[:k] + (sign * i, sign * (i + 1), sign * i) + rest[k:]
        if _uses_all(word, strands):
            return word


def equivalence_class(word: Word, strands: int, rng: random.Random
                      ) -> List[Tuple[str, Word, int]]:
    """The base word and its variants, as (variant kind, word, strands)."""
    members = [("base", word, strands),
               ("conj", conjugate(word, rng), strands),
               ("rii", rii_insert(word, strands, rng), strands)]
    if riii_sites(word):
        members.append(("riii", riii_move(word, rng), strands))
    members.append(("stab+",) + stabilise(word, strands, 1))
    members.append(("stab-",) + stabilise(word, strands, -1))
    return members


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def trace_file_text(d: dgmod.OrientedDiagram, bq, coloring: Sequence[int],
                    traces: Dict[int, str]) -> str:
    """A ``.tdg`` file: ``d`` coloured by ``coloring``, with the crossings in
    ``traces`` (index -> "A" or "B") replaced by traces of that kind.

    Each trace records the colour pair the program itself assigns to the
    crossing it replaces, so the file follows the program's convention.
    """
    pairs = trmod.from_colored_diagram(d, bq, coloring).nodes
    lines = []
    for i, c in enumerate(d.crossings):
        sgn = "+" if c.sign > 0 else "-"
        kind = traces.get(i)
        x, y = (v + 1 for v in pairs[i].pair)
        if kind is None:
            lines.append(f"{sgn} {c.u_in} {c.o_in} {c.o_out} {c.u_out}")
        elif kind == "A":
            lines.append(f"traceA {sgn} {c.u_in}>{c.o_out} {c.o_in}>{c.u_out} {x} {y}")
        else:
            lines.append(f"traceB {sgn} sink({c.u_in},{c.o_in}) "
                         f"source({c.u_out},{c.o_out}) {x} {y}")
    for s in d.semiarcs():
        lines.append(f"color {s} {coloring[s - 1] + 1}")
    text = "\n".join(lines) + "\n"
    trmod.parse_trace_diagram(text, bq)      # raises if the file is malformed
    return text


def bracket_file_text(beta) -> str:
    text = brmod.serialize_bracket(beta)
    back = brmod.parse_bracket(text, beta.bq)
    if (back.A, back.B) != (beta.A, beta.B):
        raise AssertionError("bracket does not survive a parse round trip")
    return text
