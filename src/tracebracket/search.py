"""Constraint-pruned exhaustive search for brackets over Z_n.

The search runs on plain ints: one flat vector T = A + B + [delta, 1], the
tables flattened as A[x*n + y].  It enumerates candidate coefficient tables
pair by pair.  For a fixed delta, the B entry over a chosen unit A is
restricted to the unit roots of B^2 + delta*A*B + A^2 = 0 (equivalent to
the delta condition for that pair).  Slots are placed greedily, each next
the one that completes the most triples.  The pruning reads the triple
equations as ``bracket.compiled_triples`` gives them: read off the one
table of triple identities per biquandle that ``check_tables`` also
evaluates, with identities and repeats dropped and the common unit
factors of the binomials cancelled (every value the walk places is a
unit).  Each compiled equation is checked as soon as the last slot it
reads is filled, so a cancelled binomial prunes before its whole triple
is placed.

Scaling (A, B) -> (l*A, l*B) by a unit l keeps delta, the homogeneous
triple equations and the homogeneous over/under chains, and sends w to l*w,
so brackets come in orbits of phi(n) members with distinct A at every slot.
The search fixes A = 1 at the first slot it places.  Each table it finds,
one per orbit, is verified on the full compiled set, after its units, delta
and w (``bracket.conditions_hold``, which never reads the pruning
schedule); a failure raises, naming the violation ``check_tables`` finds.
Both sides of every over/under chain equation and of every pass-through
identity scale alike (w counting as one degree), so each verdict and
witness is constant on an orbit: its representative is classified once,
by ``bracket.classify_adequacy``, and each member gets w scaled and the
orbit's class.

Members are int tables: each is a ``BiquandleBracket`` built from its
scaled flat lists with delta and w, and no ring element is made for it
(its element views are built only if read).  The tests check every
emitted member against :func:`verify_bracket` and
:func:`classify_adequacy`, and a brute-force enumerator over all unit
tables doubles as the correctness oracle.
"""
from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from .biquandle import Biquandle
from .bracket import (AdequacyClass, BiquandleBracket, check_tables, classify_adequacy,
                      compiled_triples, conditions_hold, equations_hold, pair_delta, pair_w,
                      triple_slots, verify_bracket)
from .rings import ModRing

# The values of ``search_brackets``'s classification filter: a class label
# (``AdequacyClass.label``), or "any".
CLASSIFICATIONS = ("adequate", "over", "under", "neither", "any")


def _delta_candidates(ring: ModRing, units: List[int]):
    """Every value -A^(-1)B - AB^(-1) mod n attained by a unit pair, with
    the unit (A, B) pairs realizing it."""
    by_delta = {}
    for a in units:
        for b in units:
            by_delta.setdefault(pair_delta(ring, a, b) % ring.modulus, []).append((a, b))
    return by_delta


def _slot_order(n: int, triples) -> List[int]:
    """Flat slots in greedy order: next the slot that completes the most
    triples, ties to a diagonal slot (condition (i) prunes there), then to
    the lowest index."""
    needs = [set(slots[:6]) for _witness, slots in triples]
    order: List[int] = []
    left = set(range(n * n))
    while left:
        completes = Counter(next(iter(need)) for need in needs if len(need) == 1)
        best = max(left, key=lambda i: (completes[i], i % (n + 1) == 0, -i))
        order.append(best)
        left.discard(best)
        for need in needs:
            need.discard(best)
        needs = [need for need in needs if need]
    return order


def _ready_at(triples, slots: List[int]) -> List[list]:
    """For each slot position k, the compiled triple equations (see
    ``compiled_triples``) that become checkable once slot k is filled:
    each sits at the highest rank of the slots it reads."""
    cells = len(slots)
    rank = {s: k for k, s in enumerate(slots)}
    ready: List[list] = [[] for _ in slots]
    for equation in triples:
        ready[max(rank[i % cells] for i in equation if i < 2 * cells)].append(equation)
    return ready


def _orbit_representatives(ring: ModRing, n: int, slots: List[int], ready_at,
                           delta: int, pair_choices) -> Iterator[list]:
    """Depth-first over the slots in order, one (A, B) unit pair per slot,
    with A = 1 at the first slot.  Yields T = A + B + [delta, 1], flat, at
    each full assignment whose checked equations all hold; the list is
    reused, so read it before the next one."""
    cells = n * n
    T = [0] * (2 * cells) + [delta, 1]
    modulus = ring.modulus
    last = len(slots) - 1
    # (k, a, b, w): put (a, b) at slots[k], where w is the value condition
    # (i) fixed at an earlier diagonal slot, or None.  Pairs are pushed in
    # reverse so they pop in order, and a pair pops only after all pairs
    # pushed above it, so slots[:k] still hold the pairs on its path.
    stack = [(0, a, b, None) for a, b in reversed(pair_choices) if a == 1]
    while stack:
        k, a, b, w = stack.pop()
        i = slots[k]
        if i % (n + 1) == 0:                # diagonal pair: condition (i)
            wx = pair_w(ring, a, b)
            if w is not None and not ring.same(wx, w):
                continue
            w = wx
        T[i], T[cells + i] = a, b
        if not equations_hold(T, modulus, ready_at[k]):
            continue
        if k == last:
            yield T
        else:
            stack.extend((k + 1, a, b, w) for a, b in reversed(pair_choices))


def _unsound(bq: Biquandle, ring: ModRing, A, B) -> RuntimeError:
    bad = check_tables(bq, ring, A, B)[0]
    n = bq.n
    A_rows, B_rows = ([t[x * n:(x + 1) * n] for x in range(n)] for t in (A, B))
    return RuntimeError(f"search pruning let through A={A_rows} B={B_rows} "
                        f"over Z{ring.modulus}: "
                        + (bad[0].describe() if bad else "compiled conditions fail"))


def search_brackets(bq: Biquandle, modulus: int,
                    classification: Optional[str] = None,
                    limit: Optional[int] = None
                    ) -> Iterator[Tuple[BiquandleBracket, AdequacyClass]]:
    """Yield every bracket over Z_modulus for the biquandle, classified.

    Emission order is lexicographic in (delta, flattened A table, flattened
    B table).  Each member is built from its int tables (see
    ``BiquandleBracket``).  ``classification`` filters on the adequacy
    label, one of :data:`CLASSIFICATIONS` ("any" or None keeps every
    class); ``limit`` caps the number of results.  A modulus below 2 or an
    unknown classification raises ValueError, whatever the limit.
    """
    ring = ModRing(modulus)
    if classification not in (None, *CLASSIFICATIONS):
        raise ValueError(f"unknown classification {classification!r}: "
                         f"expected one of {', '.join(CLASSIFICATIONS)}")
    if limit is not None and limit <= 0:
        return
    n = bq.n
    cells = n * n
    units = [u.value for u in ring.units()]
    triples = triple_slots(bq)
    equations = compiled_triples(bq)
    slots = _slot_order(n, triples)
    ready_at = _ready_at(equations, slots)
    by_delta = _delta_candidates(ring, units)
    emitted = 0

    for delta in sorted(by_delta):
        batch = []
        for T in _orbit_representatives(ring, n, slots, ready_at, delta,
                                        sorted(by_delta[delta])):
            A, B = T[:cells], T[cells:2 * cells]
            verdict = conditions_hold(ring, A, B, equations)
            if verdict is None:             # unreachable while the pruning is sound
                raise _unsound(bq, ring, A, B)
            w = verdict[1]
            cls = classify_adequacy(BiquandleBracket(bq, ring, A, B, delta, w))
            if classification not in (None, "any") and cls.label() != classification:
                continue
            batch.extend(([lam * a % modulus for a in A], [lam * b % modulus for b in B],
                          lam * w % modulus, cls) for lam in units)
        batch.sort(key=itemgetter(0, 1))
        for A_l, B_l, w, cls in batch:
            yield BiquandleBracket(bq, ring, A_l, B_l, delta, w), cls
            emitted += 1
            if limit is not None and emitted >= limit:
                return


def brute_force_brackets(bq: Biquandle, modulus: int,
                         cap: int = 10_000_000) -> List[BiquandleBracket]:
    """Filter every unit table pair through verify_bracket.  Oracle only."""
    ring = ModRing(modulus)
    n = bq.n
    units = list(ring.units())
    total = len(units) ** (2 * n * n)
    if total > cap:
        raise ValueError(f"brute force space {total} exceeds cap {cap}")
    out = []
    cells = n * n
    for a_flat in itertools.product(units, repeat=cells):
        A = [list(a_flat[i * n:(i + 1) * n]) for i in range(n)]
        for b_flat in itertools.product(units, repeat=cells):
            B = [list(b_flat[i * n:(i + 1) * n]) for i in range(n)]
            check = verify_bracket(bq, ring, A, B)
            if check.ok:
                out.append(check.bracket)
    return out


def bracket_key(beta: BiquandleBracket) -> tuple:
    """Hashable identity of a mod-ring bracket, for set comparisons: its
    int tables as rows."""
    n = beta.bq.n
    return tuple(tuple(tuple(flat[x:x + n]) for x in range(0, n * n, n))
                 for flat in beta.raw_tables)
