"""Exact coefficient arithmetic for bracket computations.

Two rings are supported: the integers mod n (n >= 2), and integer Laurent
polynomials in two variables (conventionally ``A`` and ``B``).  Elements are
immutable and hashable, so they can be shared freely and used as multiset
keys.  All arithmetic is exact; Laurent polynomials are kept as a sparse
dict with no zero coefficients, compared and hashed as that dict.

Each ring also gives a raw view of its values for the bracket conditions
(``raw``, ``wrap``, ``same``, ``inv``, ``is_unit``): plain ints for Z_n,
which skip building an element per operation, and the elements themselves
for Laurent polynomials, the one ring whose raw values are not ints.  A
Laurent operation pays for its terms and no more.  A product with a
one-term operand (every bracket coefficient, w and their inverses are
+-A^i B^j) shifts the other operand's exponents, and a power of a one-term
element is closed form; neither can cancel a term.  Only sums, differences,
the general product and the public constructor drop cancelled terms.

:func:`hermite_normal_form` reduces integer row vectors to the Hermite
basis of the lattice they span over Z.
"""
from __future__ import annotations

import re
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from .biquandle import parse_int


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings."""


class NotAUnitError(ValueError):
    """Raised when inverting an element that is not a unit."""


class ModRing:
    """The ring of integers modulo ``n``."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModRing) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("mod", self.modulus))

    def __repr__(self) -> str:
        return f"ModRing({self.modulus})"

    def element(self, value: int) -> "ModElement":
        return ModElement(self, value % self.modulus)

    def zero(self) -> "ModElement":
        return self.element(0)

    def one(self) -> "ModElement":
        return self.element(1)

    def elements(self) -> Iterable["ModElement"]:
        return (self.element(v) for v in range(self.modulus))

    def units(self) -> Iterable["ModElement"]:
        return (self.element(v) for v in range(1, self.modulus) if self.is_unit(v))

    def parse(self, text: str) -> "ModElement":
        return self.element(parse_int(text))

    # raw values are ints, reduced only when compared or wrapped
    def raw(self, e: "ModElement") -> int:
        return e.value

    def wrap(self, v: int) -> "ModElement":
        return ModElement(self, v)

    def same(self, lhs: int, rhs: int) -> bool:
        return (lhs - rhs) % self.modulus == 0

    def inv(self, v: int) -> int:
        return pow(v, -1, self.modulus)

    def is_unit(self, v: int) -> bool:
        return gcd(v, self.modulus) == 1


class ModElement:
    """A residue in ``ModRing``.  Stored reduced to [0, n)."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: ModRing, value: int):
        self.ring = ring
        self.value = value % ring.modulus

    def _check(self, other: "ModElement") -> None:
        if not isinstance(other, ModElement) or other.ring != self.ring:
            raise RingMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "ModElement") -> "ModElement":
        self._check(other)
        return ModElement(self.ring, self.value + other.value)

    def __sub__(self, other: "ModElement") -> "ModElement":
        self._check(other)
        return ModElement(self.ring, self.value - other.value)

    def __mul__(self, other: "ModElement") -> "ModElement":
        self._check(other)
        return ModElement(self.ring, self.value * other.value)

    def __neg__(self) -> "ModElement":
        return ModElement(self.ring, -self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inverse(self) -> "ModElement":
        try:
            inv = pow(self.value, -1, self.ring.modulus)
        except ValueError:
            raise NotAUnitError(
                f"{self.value} is not a unit mod {self.ring.modulus}") from None
        return ModElement(self.ring, inv)

    def __pow__(self, k: int) -> "ModElement":
        if k < 0:
            return self.inverse() ** (-k)
        return ModElement(self.ring, pow(self.value, k, self.ring.modulus))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModElement) and other.ring == self.ring
                and other.value == self.value)

    def __hash__(self) -> int:
        return hash((self.ring, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Mod({self.value}, {self.ring.modulus})"


Monomial = Tuple[int, int]  # exponent pair (i, j) for A^i * B^j


class LaurentRing:
    """Integer Laurent polynomials in the two variables ``A`` and ``B``;
    every instance is the same ring."""

    var_a = "A"
    var_b = "B"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentRing)

    def __hash__(self) -> int:
        return hash("laurent")

    def __repr__(self) -> str:
        return "LaurentRing()"

    def element(self, terms: Dict[Monomial, int]) -> "LaurentElement":
        return LaurentElement(self, terms)

    def zero(self) -> "LaurentElement":
        return LaurentElement(self, {})

    def one(self) -> "LaurentElement":
        return LaurentElement(self, {(0, 0): 1})

    def constant(self, c: int) -> "LaurentElement":
        return LaurentElement(self, {(0, 0): c})

    def monomial(self, i: int, j: int, coeff: int = 1) -> "LaurentElement":
        return LaurentElement(self, {(i, j): coeff})

    def gen_a(self) -> "LaurentElement":
        return self.monomial(1, 0)

    def gen_b(self) -> "LaurentElement":
        return self.monomial(0, 1)

    def parse(self, text: str) -> "LaurentElement":
        return parse_laurent(self, text)

    # raw values are the elements themselves
    def raw(self, e: "LaurentElement") -> "LaurentElement":
        return e

    def wrap(self, v: "LaurentElement") -> "LaurentElement":
        return v

    def same(self, lhs: "LaurentElement", rhs: "LaurentElement") -> bool:
        return lhs == rhs

    def inv(self, v: "LaurentElement") -> "LaurentElement":
        return v.inverse()

    def is_unit(self, v: "LaurentElement") -> bool:
        return v.is_unit()


class LaurentElement:
    """A sparse Laurent polynomial; ``terms`` maps (i, j) to a nonzero int.
    Only the operations that can cancel a term drop zero coefficients (see
    the module docstring)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: Dict[Monomial, int]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    def _like(self, terms: Dict[Monomial, int]) -> "LaurentElement":
        """An element taking ``terms`` as they are, uncopied and unchecked."""
        e = object.__new__(LaurentElement)
        e.ring, e.terms = self.ring, terms
        return e

    def _check(self, other: "LaurentElement") -> None:
        # every LaurentRing is the same ring
        if type(other) is not LaurentElement:
            raise RingMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        out = self.terms.copy()
        for m, c in other.terms.items():
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return self._like(out)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __neg__(self) -> "LaurentElement":
        return self._like({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        p, q = self.terms, other.terms
        if len(p) == 1:
            p, q = q, p
        if len(q) == 1:
            ((i, j), c), = q.items()
            return self._like({(x + i, y + j): k * c for (x, y), k in p.items()})
        out: Dict[Monomial, int] = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, 0) + c1 * c2
        return self._like({m: c for m, c in out.items() if c})

    def is_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        (_, coeff), = self.terms.items()
        return coeff in (1, -1)

    def inverse(self) -> "LaurentElement":
        if not self.is_unit():
            raise NotAUnitError(f"{self} is not a unit (must be +/- a monomial)")
        ((i, j), coeff), = self.terms.items()
        return self._like({(-i, -j): coeff})

    def __pow__(self, k: int) -> "LaurentElement":
        if len(self.terms) == 1 and (k >= 0 or self.is_unit()):
            ((i, j), c), = self.terms.items()
            return self._like({(i * k, j * k): c ** abs(k)})
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is LaurentElement and other.terms == self.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def _format_monomial(self, m: Monomial, coeff: int) -> str:
        i, j = m
        parts = []
        if i == 1:
            parts.append(self.ring.var_a)
        elif i != 0:
            parts.append(f"{self.ring.var_a}^{i}")
        if j == 1:
            parts.append(self.ring.var_b)
        elif j != 0:
            parts.append(f"{self.ring.var_b}^{j}")
        mono = "*".join(parts)
        if not mono:
            return str(abs(coeff))
        if abs(coeff) == 1:
            return mono
        return f"{abs(coeff)}*{mono}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # exponent-lexicographic, highest first
        items = sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)
        out = []
        for idx, (m, c) in enumerate(items):
            body = self._format_monomial(m, c)
            if idx == 0:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append((" + " if c > 0 else " - ") + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"Laurent({self})"


_MONO_FACTOR = re.compile(r"^([A-Za-z])(?:\^(-?[0-9]+))?$")


def parse_laurent(ring: LaurentRing, text: str) -> LaurentElement:
    """Parse a signed monomial expression such as ``-A^2*B^-1`` or ``3``.

    Bracket files only ever contain units (signed monomials) or small
    integers, so sums are not accepted here.
    """
    s = text.strip().replace(" ", "")
    coeff = 1
    if s.startswith("-"):
        coeff = -1
        s = s[1:]
    elif s.startswith("+"):
        s = s[1:]
    if not s:
        raise ValueError(f"empty Laurent literal in {text!r}")
    if re.fullmatch(r"[0-9]+", s):
        return ring.constant(coeff * int(s))
    i = j = 0
    factors = s.split("*")
    for factor in factors:
        if re.fullmatch(r"[0-9]+", factor):
            coeff *= int(factor)
            continue
        m = _MONO_FACTOR.match(factor)
        if not m:
            raise ValueError(f"cannot parse Laurent factor {factor!r} in {text!r}")
        var, exp = m.group(1), int(m.group(2) or 1)
        if var == ring.var_a:
            i += exp
        elif var == ring.var_b:
            j += exp
        else:
            raise ValueError(f"unknown variable {var!r} in {text!r}")
    return ring.monomial(i, j, coeff)


def hermite_normal_form(rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """The Hermite normal form of the lattice that ``rows`` span over Z:
    its nonzero rows, in order of their pivots (first nonzero entries),
    each pivot positive, every entry above a pivot in [0, pivot), and zero
    below and left of it (Cohen, *A Course in Computational Algebraic
    Number Theory*, section 2.4).  The rows are the lattice's one such
    basis, so two sets of rows span the same lattice exactly when their
    forms are equal.

    Each row is reduced into the basis built so far: where its first
    nonzero entry v meets the pivot p of a basis row r, the pair (r, row)
    becomes (a*r + b*row, (p/g)*row - (v/g)*r), with a*p + b*v = g = gcd(p, v),
    a change of basis of determinant 1 that leaves g at the pivot and
    clears the column in the row, which goes on to the next column.  When p
    divides v, g = p and the basis row stays as it is."""
    pivots: Dict[int, List[int]] = {}      # pivot column -> basis row
    for row in rows:
        row = list(row)
        col = next((j for j, e in enumerate(row) if e), None)
        while col is not None:
            r = pivots.get(col)
            if r is None:
                pivots[col] = row if row[col] > 0 else [-e for e in row]
                break
            p, v = r[col], row[col]
            g, a, b = _extended_gcd(p, v)
            if g != p:
                pivots[col] = [a * x + b * y for x, y in zip(r, row)]
            row = [(p // g) * y - (v // g) * x for x, y in zip(r, row)]
            col = next((j for j in range(col + 1, len(row)) if row[j]), None)
    columns = sorted(pivots)
    basis = [pivots[col] for col in columns]
    for j, col in enumerate(columns):
        for upper in basis[:j]:
            q = upper[col] // basis[j][col]
            if q:
                upper[:] = [x - q * y for x, y in zip(upper, basis[j])]
    return basis


def _extended_gcd(p: int, v: int) -> Tuple[int, int, int]:
    """(g, a, b) with a*p + b*v = g = gcd(p, v) > 0, for p > 0."""
    a0, b0, r0, a1, b1, r1 = 1, 0, p, 0, 1, v
    while r1:
        q = r0 // r1
        a0, a1, b0, b1, r0, r1 = a1, a0 - q * a1, b1, b0 - q * b1, r1, r0 - q * r1
    return (r0, a0, b0) if r0 > 0 else (-r0, -a0, -b0)
