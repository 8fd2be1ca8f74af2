"""Constraint-pruned exhaustive search for brackets over Z_n.

The search enumerates candidate coefficient tables pair by pair.  For a
fixed delta, the B entry over a chosen unit A is restricted to the unit
roots of B^2 + delta*A*B + A^2 = 0 (equivalent to the delta condition for
that pair), diagonal pairs are placed first so the w condition prunes
early, and the five triple equations are checked as soon as all of a
triple's slots are filled.  A brute-force enumerator over all unit tables
doubles as the correctness oracle in tests.
"""
from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from .biquandle import Biquandle
from .bracket import (AdequacyClass, BiquandleBracket, classify_adequacy,
                      triple_colors, verify_bracket, _triple_equations)
from .rings import ModRing


def _delta_candidates(ring: ModRing):
    """Every value -A^(-1)B - AB^(-1) attained by a unit pair, with the
    unit (A, B) pairs realizing it."""
    by_delta = {}
    units = list(ring.units())
    for a in units:
        for b in units:
            d = -(a.inverse() * b) - (a * b.inverse())
            by_delta.setdefault(d, []).append((a, b))
    return by_delta


def _slot_order(n: int) -> List[Tuple[int, int]]:
    diag = [(x, x) for x in range(n)]
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    return diag + off


def search_brackets(bq: Biquandle, modulus: int,
                    classification: Optional[str] = None,
                    limit: Optional[int] = None
                    ) -> Iterator[Tuple[BiquandleBracket, AdequacyClass]]:
    """Yield every bracket over Z_modulus for the biquandle, classified.

    Emission order is lexicographic in (delta, flattened A table, flattened
    B table).  ``classification`` filters on the adequacy label
    (adequate/over/under/neither); ``limit`` caps the number of results.
    """
    if limit is not None and limit <= 0:
        return
    ring = ModRing(modulus)
    n = bq.n
    slots = _slot_order(n)
    by_delta = _delta_candidates(ring)
    emitted = 0

    # triples whose five equations become checkable once slot k is filled
    def triple_slots(x: int, y: int, z: int) -> frozenset:
        xy, zy, yx, zx, xz, yz = triple_colors(bq, x, y, z)
        return frozenset([(x, y), (y, z), (xy, zy), (x, z), (yx, zx), (xz, yz)])

    slot_rank = {s: i for i, s in enumerate(slots)}
    ready_at: dict = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        need = triple_slots(x, y, z)
        k = max(slot_rank[s] for s in need)
        ready_at.setdefault(k, []).append((x, y, z))

    for delta in sorted(by_delta, key=lambda d: d.value):
        pair_choices = sorted(by_delta[delta],
                              key=lambda ab: (ab[0].value, ab[1].value))
        A = [[None] * n for _ in range(n)]
        B = [[None] * n for _ in range(n)]

        def consistent_triples(k: int) -> bool:
            for x, y, z in ready_at.get(k, ()):
                for _tag, lhs, rhs in _triple_equations(A, B, bq, delta, x, y, z):
                    if lhs != rhs:
                        return False
            return True

        def place(k: int, w) -> Iterator[Tuple[list, list]]:
            if k == len(slots):
                yield ([row[:] for row in A], [row[:] for row in B])
                return
            x, y = slots[k]
            for a, b in pair_choices:
                if x == y:
                    wx = -(a * a * b.inverse())
                    if w is not None and wx != w:
                        continue
                    new_w = wx
                else:
                    new_w = w
                A[x][y], B[x][y] = a, b
                if consistent_triples(k):
                    yield from place(k + 1, new_w)
                A[x][y] = B[x][y] = None

        batch = []
        for A_t, B_t in place(0, None):
            check = verify_bracket(bq, ring, A_t, B_t)
            if not check.ok:          # pruning is sound; this is a safety net
                continue
            batch.append(check.bracket)
        batch.sort(key=lambda beta: (tuple(e.value for row in beta.A for e in row),
                                     tuple(e.value for row in beta.B for e in row)))
        for bracket in batch:
            cls = classify_adequacy(bracket)
            if classification and classification != "any" and cls.label() != classification:
                continue
            yield bracket, cls
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
    """Hashable identity of a mod-ring bracket, for set comparisons."""
    return (tuple(tuple(e.value for e in row) for row in beta.A),
            tuple(tuple(e.value for e in row) for row in beta.B))
