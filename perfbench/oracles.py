"""Reference answers that do not depend on the crossing-coefficient
convention: coloring counts by linear algebra and by the braid action, and
the search emission order.

The coloring rule used here is the one documented in ``coloring.py``: at a
positive crossing o_out = over(o_in, u_in) and u_out = under(u_in, o_out);
a negative crossing satisfies the same two equations with inputs and
outputs exchanged.  None of it reads bracket coefficients.
"""
from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple


def alexander_kernel_count(d, p: int, t: int, s: int) -> int:
    """Colorings of ``d`` over alexander(p, t, s), p prime: p^(2c - rank).

    For the linear biquandle under(x, y) = t x + (s - t) y, over(x, y) = s x
    every crossing gives two linear equations in the semiarc colours, so the
    colourings are the kernel of a 2c x 2c matrix over GF(p).
    """
    m = d.n_semiarcs
    rows: List[List[int]] = []
    for c in d.crossings:
        if c.sign > 0:   # o_out = s o_in ; u_out = t u_in + (s - t) o_out
            out_o, in_o, out_u, in_u = c.o_out, c.o_in, c.u_out, c.u_in
        else:            # o_in = s o_out ; u_in = t u_out + (s - t) o_in
            out_o, in_o, out_u, in_u = c.o_in, c.o_out, c.u_in, c.u_out
        r1 = [0] * m
        r1[out_o - 1] += 1
        r1[in_o - 1] -= s
        r2 = [0] * m
        r2[out_u - 1] += 1
        r2[in_u - 1] -= t
        r2[out_o - 1] -= s - t
        rows.append([v % p for v in r1])
        rows.append([v % p for v in r2])
    rank = _rank_mod_p(rows, m, p)
    return p ** (m - rank) * p ** d.free_loops


def _rank_mod_p(rows: List[List[int]], ncols: int, p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def braid_coloring_count(bq, word: Sequence[int], strands: int) -> int:
    """Colorings of a braid closure: bottom colourings the braid maps to
    themselves.  Negative crossings are solved by search over the colours,
    so nothing but the two operation tables is used."""
    X = range(bq.n)
    U, O = bq.under, bq.over
    neg = {}
    for ui, oi in product(X, X):
        sols = [(uo, oo) for uo, oo in product(X, X)
                if O(oo, uo) == oi and U(uo, oi) == ui]
        if len(sols) != 1:
            raise ValueError("biquandle is not invertible at a crossing")
        neg[ui, oi] = sols[0]
    count = 0
    for bottom in product(X, repeat=strands):
        cur = list(bottom)
        for g in word:
            k = abs(g) - 1
            if g > 0:   # over strand from the left, under strand from the right
                y, x = cur[k], cur[k + 1]
                o_out = O(y, x)
                cur[k], cur[k + 1] = U(x, o_out), o_out
            else:       # under strand from the left, over strand from the right
                u_out, o_out = neg[cur[k], cur[k + 1]]
                cur[k], cur[k + 1] = o_out, u_out
        count += tuple(cur) == bottom
    return count


def bracket_delta(a: int, b: int, n: int) -> int:
    """delta = -A^-1 B - A B^-1 over Z_n for one (A, B) entry pair."""
    return (-(pow(a, -1, n) * b) - a * pow(b, -1, n)) % n


def emission_key(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], n: int
                 ) -> Tuple[int, tuple, tuple]:
    """The documented search order: (delta, flattened A, flattened B)."""
    return (bracket_delta(A[0][0], B[0][0], n),
            tuple(v for row in A for v in row), tuple(v for row in B for v in row))
