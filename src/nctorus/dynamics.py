"""Torus actions, isotypic grading, and the fixed-point algebra.

A :class:`TorusAction` lets T^d scale the generators listed in
``coords`` (u_j -> z_j u_j) and fix the rest.  Monomials are joint
eigenvectors, so the grading over the dual group Z^d is syntactic:
the degree of u^a is the subvector of a at the acting coordinates.
The fixed-point algebra B0 is spanned by the degree-zero monomials,
i.e. generated by the non-acting u_k.
"""

from __future__ import annotations

import itertools
from operator import add

from .algebra import PolyMatrix, TwistedPoly, TwistMatrix

Character = tuple[int, ...]


def char_add(a: Character, b: Character) -> Character:
    return tuple(map(add, a, b))


def char_neg(a: Character) -> Character:
    return tuple(-x for x in a)


def char_zero(d: int) -> Character:
    return (0,) * d


def char_box(d: int, radius: int) -> list[Character]:
    """All characters of Z^d with every coordinate in [-radius, radius]."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=d))


def resolve_chars(action: "TorusAction", char_range) -> list[Character]:
    """A box radius or an explicit character list, normalized to a list."""
    if isinstance(char_range, int):
        if char_range < 0:
            raise ValueError("character box radius must be nonnegative")
        return char_box(action.d, char_range)
    return [tuple(c) for c in char_range]


class TorusAction:
    """Diagonal action of T^d on the quantum torus on n generators."""

    __slots__ = ("twist", "coords", "base", "d")

    def __init__(self, twist: TwistMatrix, coords):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError("acting coordinates must be distinct")
        for j in coords:
            if not 0 <= j < twist.n:
                raise ValueError(f"acting coordinate {j} out of range")
        self.twist = twist
        self.coords = coords
        self.d = len(coords)
        self.base = tuple(k for k in range(twist.n) if k not in coords)

    def degree(self, exponents) -> Character:
        return tuple(exponents[j] for j in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusAction):
            return NotImplemented
        return self.twist == other.twist and self.coords == other.coords

    def __hash__(self):
        return hash((self.twist, self.coords))

    def __repr__(self) -> str:
        acting = ", ".join(self.twist.gen_name(j) for j in self.coords)
        return f"TorusAction(T^{self.d} scaling {acting})"


class GradedElement:
    """Finitely supported map Character -> TwistedPoly, summing to an element."""

    __slots__ = ("action", "components")

    def __init__(self, action: TorusAction, components: dict):
        self.action = action
        self.components = {
            c: p for c, p in components.items() if not p.is_zero()
        }

    def component(self, char: Character) -> TwistedPoly:
        return self.components.get(char, TwistedPoly.zero(self.action.twist))

    def support(self) -> list[Character]:
        return sorted(self.components)

    def to_poly(self) -> TwistedPoly:
        total = TwistedPoly.zero(self.action.twist)
        for p in self.components.values():
            total = total + p
        return total

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        return grade(self.action, self.to_poly() * other.to_poly())

    def star(self) -> "GradedElement":
        return GradedElement(
            self.action,
            {tuple(-x for x in c): p.star() for c, p in self.components.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.action == other.action and self.components == other.components

    def __repr__(self) -> str:
        if not self.components:
            return "{0}"
        body = ", ".join(f"{c}: {p!r}" for c, p in sorted(self.components.items()))
        return "{" + body + "}"


def grade(action: TorusAction, x: TwistedPoly) -> GradedElement:
    """Split x into isotypic components; the components sum back to x."""
    parts: dict = {}
    for a, p in x.terms.items():
        c = action.degree(a)
        bucket = parts.setdefault(c, {})
        bucket[a] = p
    return GradedElement(
        action, {c: TwistedPoly(action.twist, t) for c, t in parts.items()}
    )


def fixed_part(action: TorusAction, x: TwistedPoly) -> TwistedPoly:
    """Conditional expectation onto the fixed-point algebra (degree 0 part)."""
    zero = char_zero(action.d)
    terms = {a: p for a, p in x.terms.items() if action.degree(a) == zero}
    return TwistedPoly(action.twist, terms)


def inner_product(action: TorusAction, x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    """Fixed-algebra-valued inner product: the fixed part of star(x) * y."""
    return fixed_part(action, x.star() * y)


def cleft_generator(action: TorusAction, char: Character) -> TwistedPoly:
    """Unitary monomial of weight char: the ordered product of u_j^(char_j).

    Normalized so the trivial character gives 1.
    """
    if len(char) != action.d:
        raise ValueError("character has wrong rank")
    e = [0] * action.twist.n
    for j, c in zip(action.coords, char):
        e[j] = c
    return TwistedPoly.monomial(action.twist, e)


def is_equivariant(action: TorusAction, x: TwistedPoly, char: Character) -> bool:
    """True iff every term of x transforms with weight char (0 always does)."""
    return all(action.degree(a) == tuple(char) for a in x.terms)


def base_monomials(action: TorusAction, gen_degree: int) -> list[TwistedPoly]:
    """Monomials of the fixed algebra with total absolute degree <= gen_degree.

    The identity checks in the verifiers quantify over this finite set;
    it generates the fixed algebra, and every law being checked is
    multiplicative and linear, so the restriction loses nothing.
    """
    out = []
    base = action.base
    for exps in itertools.product(range(-gen_degree, gen_degree + 1), repeat=len(base)):
        if sum(abs(e) for e in exps) > gen_degree:
            continue
        full = [0] * action.twist.n
        for k, e in zip(base, exps):
            full[k] = e
        out.append(tuple(full))
    out.sort()
    return [TwistedPoly.monomial(action.twist, e) for e in out]


def in_base_algebra(action: TorusAction, x: TwistedPoly) -> bool:
    return is_equivariant(action, x, char_zero(action.d))


def matrix_in_base_algebra(action: TorusAction, m: PolyMatrix) -> bool:
    return all(in_base_algebra(action, e) for row in m.entries for e in row)
