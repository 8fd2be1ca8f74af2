"""Finite biquandles given by a pair of operation tables.

A biquandle on {0, .., n-1} has two binary operations, written here as
``under(x, y)`` (x passing under y) and ``over(x, y)`` (x passing over y).
The required axioms are

  (i)   under(x, x) == over(x, x) for every x,
  (ii)  the maps y -> over(y, x), y -> under(y, x) and the pair map
        S(x, y) = (over(y, x), under(x, y)) are all bijections,
  (iii) three exchange laws relating mixed compositions of the operations.

Elements are 0-indexed internally; every file format and all printed output
use 1-indexed entries so tables can be compared against printed operation
matrices directly.

A ``Biquandle`` is never changed after construction, so each input is paid
for once per process: ``parse_biquandle`` is memoized by its text and
``verify_biquandle`` by the biquandle, which compares and hashes by its
tables.  An error is never cached, so a malformed text raises on every call.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import List, Optional, Sequence, Tuple

Table = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str           # "diagonal", "alpha", "beta", "pairmap", "exchange1".."exchange3"
    witness: Tuple[int, ...]
    lhs: object = None
    rhs: object = None

    def describe(self) -> str:
        w = ",".join(str(v + 1) for v in self.witness)
        if self.lhs is None:
            return f"{self.axiom} fails at ({w})"
        return f"{self.axiom} fails at ({w}): {self.lhs} != {self.rhs}"


@dataclass(frozen=True)
class BiquandleReport:
    ok: bool
    violations: Tuple[AxiomViolation, ...] = ()


class Biquandle:
    """A verified-or-not pair of operation tables over {0..n-1}."""

    def __init__(self, under: Sequence[Sequence[int]], over: Sequence[Sequence[int]]):
        self.n = len(under)
        self.under_table: Table = tuple(tuple(row) for row in under)
        self.over_table: Table = tuple(tuple(row) for row in over)
        _check_shape(self.under_table, self.n, "under")
        _check_shape(self.over_table, self.n, "over")
        # inverse lookup tables for the column maps
        #   beta_inv[y][a]  = the x with under(x, y) == a
        #   alpha_inv[x][b] = the y with over(y, x) == b
        self._beta_inv = _column_inverse(self.under_table)
        self._alpha_inv = _column_inverse(self.over_table)

    def under(self, x: int, y: int) -> int:
        return self.under_table[x][y]

    def over(self, x: int, y: int) -> int:
        return self.over_table[x][y]

    def beta_inv(self, y: int, a: int) -> int:
        """The unique x with under(x, y) == a."""
        x = self._beta_inv[y][a]
        if x < 0:
            raise ValueError("under-operation column is not a bijection")
        return x

    def alpha_inv(self, x: int, b: int) -> int:
        """The unique y with over(y, x) == b."""
        y = self._alpha_inv[x][b]
        if y < 0:
            raise ValueError("over-operation column is not a bijection")
        return y

    def elements(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Biquandle)
                and other.under_table == self.under_table
                and other.over_table == self.over_table)

    def __hash__(self) -> int:
        return hash((self.under_table, self.over_table))

    def __repr__(self) -> str:
        return f"Biquandle(n={self.n})"


def _check_shape(table: Table, n: int, name: str) -> None:
    if len(table) != n:
        raise ValueError(f"{name} table is not square")
    for row in table:
        if len(row) != n:
            raise ValueError(f"{name} table has a ragged row")
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"{name} table entry {v} out of range")


def _column_inverse(table: Table) -> List[List[int]]:
    """For each column y, invert the map x -> table[x][y]; -1 marks collisions."""
    n = len(table)
    inv = [[-1] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            a = table[x][y]
            inv[y][a] = x if inv[y][a] == -1 else -2
    return inv


@lru_cache(maxsize=64)
def verify_biquandle(bq: Biquandle) -> BiquandleReport:
    """Check axioms (i)-(iii) by enumeration, reporting every violation."""
    n = bq.n
    bad: List[AxiomViolation] = []
    U, O = bq.under, bq.over

    for x in range(n):
        if U(x, x) != O(x, x):
            bad.append(AxiomViolation("diagonal", (x,), U(x, x) + 1, O(x, x) + 1))

    for x in range(n):
        alpha = sorted(O(y, x) for y in range(n))
        if alpha != list(range(n)):
            bad.append(AxiomViolation("alpha", (x,)))
        beta = sorted(U(y, x) for y in range(n))
        if beta != list(range(n)):
            bad.append(AxiomViolation("beta", (x,)))

    pairs = {(O(y, x), U(x, y)) for x in range(n) for y in range(n)}
    if len(pairs) != n * n:
        bad.append(AxiomViolation("pairmap", ()))

    for x in range(n):
        for y in range(n):
            for z in range(n):
                l1 = U(U(x, y), U(z, y))
                r1 = U(U(x, z), O(y, z))
                if l1 != r1:
                    bad.append(AxiomViolation("exchange1", (x, y, z), l1 + 1, r1 + 1))
                l2 = O(U(x, y), U(z, y))
                r2 = U(O(x, z), O(y, z))
                if l2 != r2:
                    bad.append(AxiomViolation("exchange2", (x, y, z), l2 + 1, r2 + 1))
                l3 = O(O(x, y), O(z, y))
                r3 = O(O(x, z), U(y, z))
                if l3 != r3:
                    bad.append(AxiomViolation("exchange3", (x, y, z), l3 + 1, r3 + 1))

    return BiquandleReport(ok=not bad, violations=tuple(bad))


# A Biquandle is never changed after construction, so the inline
# constructors hand every caller the same instance for the same arguments.
@lru_cache(maxsize=64)
def alexander_biquandle(n: int, t: int, s: int) -> Biquandle:
    """Linear biquandle on Z_n with under(x, y) = t*x + (s-t)*y, over(x, y) = s*x."""
    if gcd(t % n, n) != 1:
        raise ValueError(f"t={t} is not a unit mod {n}")
    if gcd(s % n, n) != 1:
        raise ValueError(f"s={s} is not a unit mod {n}")
    under = [[(t * x + (s - t) * y) % n for y in range(n)] for x in range(n)]
    over = [[(s * x) % n for _y in range(n)] for x in range(n)]
    return Biquandle(under, over)


@lru_cache(maxsize=64)
def trivial_biquandle(n: int) -> Biquandle:
    """under(x, y) = over(x, y) = x."""
    rows = [[x] * n for x in range(n)]
    return Biquandle(rows, rows)


def content_lines(text: str) -> List[Tuple[int, str]]:
    """The (file line number, text) of each line that holds more than a
    ``#`` comment, stripped of the comment."""
    return [(i, ln) for i, raw in enumerate(text.splitlines(), start=1)
            if (ln := raw.split("#", 1)[0].strip())]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """The integer ``text`` spells: an optional sign and ASCII digits only.
    ``int`` alone would also take underscores, surrounding whitespace and
    non-ASCII digits; the error reads as ``int``'s."""
    # on an ASCII string isdigit() holds only for 0-9: the common unsigned
    # case skips the regex
    if not ((text.isascii() and text.isdigit()) or _INTEGER.fullmatch(text)):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


@lru_cache(maxsize=64)
def parse_biquandle(text: str) -> Biquandle:
    """Parse the block-matrix file format.

    Line 1 holds n; the next n lines each hold 2n whitespace-separated
    1-indexed entries forming the block matrix [under | over].  ``#``
    starts a comment, anywhere on a line.
    """
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty biquandle file")
    (first, size), rows = lines[0], lines[1:]
    try:
        n = parse_int(size)
    except ValueError:
        raise ValueError(f"line {first}: expected the size n, got {size!r}") from None
    _check_size(n, f"line {first}")
    if len(rows) != n:
        raise ValueError(f"expected {n} matrix rows, found {len(rows)}")
    under, over = [], []
    for i, ln in rows:
        entries = ln.split()
        if len(entries) != 2 * n:
            raise ValueError(f"line {i}: expected {2 * n} entries, found {len(entries)}")
        try:
            row = [parse_int(e) for e in entries]
        except ValueError:
            raise ValueError(f"line {i}: non-integer entry") from None
        for e in row:
            if not 1 <= e <= n:
                raise ValueError(f"line {i}: entry {e} out of range 1..{n}")
        under.append([e - 1 for e in row[:n]])
        over.append([e - 1 for e in row[n:]])
    return Biquandle(under, over)


def serialize_biquandle(bq: Biquandle) -> str:
    lines = [str(bq.n)]
    for x in range(bq.n):
        row = [bq.under_table[x][y] + 1 for y in range(bq.n)]
        row += [bq.over_table[x][y] + 1 for y in range(bq.n)]
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def biquandle_from_spec(spec: str) -> Optional[Biquandle]:
    """Interpret inline constructor syntax: ``alexander(n,t,s)`` or ``trivial(n)``.

    Returns None if the string does not look like constructor syntax (so the
    caller can fall back to treating it as a file path).
    """
    s = spec.strip().lower()
    for name, form, build, arity in (("alexander", "alexander(n,t,s)", alexander_biquandle, 3),
                                     ("trivial", "trivial(n)", trivial_biquandle, 1)):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                args = [parse_int(a.strip()) for a in s[len(name) + 1:-1].split(",")]
            except ValueError:
                args = []
            if len(args) != arity:
                raise ValueError(f"{spec}: expected {form} with integer arguments")
            _check_size(args[0], spec)
            return build(*args)
    return None


def _check_size(n: int, spec: str) -> None:
    if n < 1:
        raise ValueError(f"{spec}: the size n must be at least 1, got {n}")
