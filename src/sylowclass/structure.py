"""Isomorphism-type terms for ell-Sylow subgroups.

A Sylow subgroup of an irreducible group is a Sylow subgroup of any minimal
reflection class member, so every in-scope group reduces to the
supercuspidal shapes: iterated wreath products for symmetric groups, a
diagonal phase group extended by coordinate permutations for the
imprimitive family, and a handful of named groups for the exceptionals.

For G(m,p,n) the term is built from the blocks G(a,q,k) of the minimal
reflection member, which classify.reflection_blocks lists (the one copy of
the family's block rule): the direct product over the blocks, smallest
first, of A(a,q,k) extended by the Sylow subgroup of Sym(k).  That is
A(a, ell^nu(p), n) extended by the Sylow subgroup of Sym(n) if ell | p,
with a = ell^nu(m), and one factor A(a,1,k) extended by the Sylow subgroup
of Sym(k) per part k of lambda(ell, n) otherwise.

C(l)^(i) here is the i-fold iterated wreath product of the cyclic group of
order l (order l^((l^i-1)/(l-1))), which is the Sylow subgroup of
Sym(l^i); the source text says "of i copies of the cyclic group of order
l^i", but only the l-reading matches the order of Sym(l^i)'s Sylow.

A term is one of seven kinds, each a StructureTerm: Trivial, CyclicGroup,
IteratedWreath, DiagonalPart, DirectProduct, SemidirectProduct and Named.
Each kind gives its own order and writes its own text; structure_order(t)
and render_term(t) read t.order and t.text.

sylow_structure is memoized per process like the classify answers, at most
1024 terms keyed by (g, ell), and so is sylow_symmetric, keyed by (n, ell),
which every block asks for its tower; the terms are shared and immutable,
and cache_clear() on either function frees its terms.  A term's text is a
cached_property, so a memoized term renders once per process and a
repeated `sylow` request prints the kept text.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod

from . import groups
from .classify import (UnsupportedGroupError, classify_reflection, reflection_blocks,
                       require_divides)
from .frozen import Frozen
from .groups import Exceptional, GroupType, Product, group_primes, normalize
from .valuation import lambda_blocks, nu

__all__ = [
    "StructureTerm",
    "Trivial",
    "CyclicGroup",
    "IteratedWreath",
    "DiagonalPart",
    "DirectProduct",
    "SemidirectProduct",
    "Named",
    "TRIVIAL_TERM",
    "structure_order",
    "sylow_symmetric",
    "sylow_structure",
    "render_term",
    "direct_product",
]


class StructureTerm(Frozen):
    """An isomorphism-type term.  Each kind gives its own order and writes
    its own text; the cached text keeps it after the first read."""

    _compound = False  # a product: parenthesized as a factor of another

    @cached_property
    def text(self) -> str:
        return self._write()

    def _factor_text(self) -> str:
        return f"({self.text})" if self._compound else self.text


class Trivial(StructureTerm):
    order = 1

    def _write(self) -> str:
        return "1"


class CyclicGroup(StructureTerm):
    _fields = ("order",)

    def _write(self) -> str:
        return f"C{self.order}"


class IteratedWreath(StructureTerm):
    """depth-fold wreath tower of the cyclic group of order ell; the Sylow
    subgroup of Sym(ell^depth)."""

    _fields = ("ell", "depth")

    @property
    def order(self) -> int:
        return self.ell ** ((self.ell**self.depth - 1) // (self.ell - 1))

    def _write(self) -> str:
        return f"W({self.ell},{self.depth})"


class DiagonalPart(StructureTerm):
    """A(m,p,n) for ell-power m and p: diagonal phase vectors mod m whose
    exponents sum to 0 mod p.  Order m^n/p."""

    _fields = ("m", "p", "n")

    @property
    def order(self) -> int:
        return self.m**self.n // self.p

    def _write(self) -> str:
        return f"A({self.m},{self.p},{self.n})"


class DirectProduct(StructureTerm):
    _fields = ("factors",)
    _compound = True

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def _write(self) -> str:
        return " x ".join(f._factor_text() for f in self.factors)


class SemidirectProduct(StructureTerm):
    _fields = ("normal", "acting", "action_note")
    _compound = True

    def __init__(self, normal: StructureTerm, acting: StructureTerm,
                 action_note: str = ""):
        self._store(normal, acting, action_note)

    @property
    def order(self) -> int:
        return self.normal.order * self.acting.order

    def _write(self) -> str:
        return f"{self.normal._factor_text()}:sd:{self.acting._factor_text()}"


_NAMED_ORDERS = {
    "Q8": 8,
    "SD16": 16,
    "Sp4_3_Sylow3": 81,
}


class Named(StructureTerm):
    """A Sylow subgroup printed by name; Sp4_3_Sylow3 is E(3^3):C3, the
    elementary abelian group of order 27 extended by C3 acting as a
    unitriangular symplectic map."""

    _fields = ("tag",)

    def __init__(self, tag: str):
        if tag not in _NAMED_ORDERS:
            raise ValueError(f"unknown named group {tag!r}")
        self._store(tag)

    @property
    def order(self) -> int:
        return _NAMED_ORDERS[self.tag]

    def _write(self) -> str:
        return self.tag


TRIVIAL_TERM = Trivial()


def structure_order(t: StructureTerm) -> int:
    """The order of the group t names: t.order."""
    return t.order


def direct_product(terms) -> StructureTerm:
    """Normalized direct product: trivial factors dropped, nested products
    flattened, singleton unwrapped."""
    flat = []
    for t in terms:
        if isinstance(t, Trivial):
            continue
        if isinstance(t, DirectProduct):
            flat.extend(t.factors)
        else:
            flat.append(t)
    if not flat:
        return TRIVIAL_TERM
    if len(flat) == 1:
        return flat[0]
    return DirectProduct(tuple(flat))


def _wreath_tower(ell: int, k: int) -> StructureTerm:
    """The Sylow subgroup of Sym(k) for a power k of ell."""
    if k == 1:
        return TRIVIAL_TERM
    return CyclicGroup(ell) if k == ell else IteratedWreath(ell, nu(ell, k))


@lru_cache(maxsize=1024)
def sylow_symmetric(n: int, ell: int) -> StructureTerm:
    """Sylow subgroup of Sym(n): the Sylow subgroup of Sym(k), an iterated
    wreath tower of depth nu(k), per part k of lambda(ell, n), smallest
    first.  Depth-1 towers are plain cyclic groups, depth-0 ones drop out."""
    return direct_product(reversed(
        lambda_blocks(ell, n, lambda k: _wreath_tower(ell, k), TRIVIAL_TERM)))


def _block(ell: int, a: int, q: int, k: int) -> StructureTerm:
    """The Sylow subgroup of the block G(a,q,k), a a power of ell: A(a,q,k)
    extended by the Sylow subgroup of Sym(k), which permutes coordinates.
    A(a,q,1) is cyclic of order a/q, and a trivial factor drops out."""
    if k == 1:
        return TRIVIAL_TERM if a == q else CyclicGroup(a // q)
    acting = sylow_symmetric(k, ell)
    if a == 1:
        return acting
    normal = DiagonalPart(a, q, k)
    if isinstance(acting, Trivial):
        return normal
    return SemidirectProduct(normal, acting, "permuting coordinates")


# Named Sylow subgroups of exceptional groups, keyed by (st, ell).
_EXCEPTIONAL_SYLOW: dict[tuple[int, int], StructureTerm] = {
    (4, 2): Named("Q8"),
    (8, 3): CyclicGroup(3),
    (12, 2): Named("SD16"),
    (16, 2): Named("Q8"),
    (16, 3): CyclicGroup(3),
    (20, 5): CyclicGroup(5),
    (24, 7): CyclicGroup(7),
    (25, 3): Named("Sp4_3_Sylow3"),
    (32, 2): SemidirectProduct(
        DirectProduct((Named("Q8"), Named("Q8"))), CyclicGroup(2),
        "swapping the factors"),
    (32, 5): CyclicGroup(5),
    (35, 3): Named("Sp4_3_Sylow3"),
}


@lru_cache(maxsize=1024)
def sylow_structure(g: GroupType, ell: int) -> StructureTerm:
    """Isomorphism type of the ell-Sylow subgroups of g, of order exactly
    the ell-part of |g|."""
    g = normalize(g)
    require_divides(g, ell)

    if isinstance(g, Product):
        return direct_product(
            sylow_structure(f, ell) for f in g.factors if ell in group_primes(f)
        )

    if isinstance(g, Exceptional):
        term = _EXCEPTIONAL_SYLOW.get((g.st, ell))
        if term is not None:
            return term
        result = classify_reflection(g, ell)
        member = min(result.members, key=lambda c: c.order).group
        if member == g:
            raise UnsupportedGroupError(
                f"no Sylow description for supercuspidal {g} at {ell}")
        return sylow_structure(member, ell)

    return direct_product(reversed(reflection_blocks(
        g, ell, lambda a, q, k: _block(ell, a, q, k), TRIVIAL_TERM)))


def render_term(t: StructureTerm) -> str:
    """The text t.text, in the rendering grammar used by the CLI and JSON
    output, e.g. "W(2,2)", "A(9,3,2):sd:W(3,1)", "C2 x W(2,2)", "Q8": a
    compound factor of a product is parenthesized.  The term keeps its text
    after the first read (its fields stay frozen, and equality and hashing
    read only them), so a memoized term renders once."""
    return t.text
