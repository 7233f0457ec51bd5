"""Isomorphism-type terms for ell-Sylow subgroups.

A Sylow subgroup of an irreducible group is a Sylow subgroup of any minimal
reflection class member, so every in-scope group reduces to the
supercuspidal shapes: iterated wreath products for symmetric groups, a
diagonal phase group extended by coordinate permutations for the
imprimitive family, and a handful of named groups for the exceptionals.

C(l)^(i) here is the i-fold iterated wreath product of the cyclic group of
order l (order l^((l^i-1)/(l-1))), which is the Sylow subgroup of
Sym(l^i); the source text says "of i copies of the cyclic group of order
l^i", but only the l-reading matches the order of Sym(l^i)'s Sylow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import groups
from .classify import UnsupportedGroupError, classify_reflection, require_divides
from .groups import Exceptional, GroupType, Product, group_primes, normalize
from .valuation import base_digits, nu

__all__ = [
    "StructureTerm",
    "Trivial",
    "CyclicGroup",
    "ElementaryAbelian",
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


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class CyclicGroup:
    order: int


@dataclass(frozen=True)
class ElementaryAbelian:
    ell: int
    rank: int


@dataclass(frozen=True)
class IteratedWreath:
    """depth-fold wreath tower of the cyclic group of order ell; the Sylow
    subgroup of Sym(ell^depth)."""

    ell: int
    depth: int


@dataclass(frozen=True)
class DiagonalPart:
    """A(m,p,n) for ell-power m and p: diagonal phase vectors mod m whose
    exponents sum to 0 mod p.  Order m^n/p."""

    m: int
    p: int
    n: int


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple


@dataclass(frozen=True)
class SemidirectProduct:
    normal: "StructureTerm"
    acting: "StructureTerm"
    action_note: str = ""


_NAMED_ORDERS = {
    "Q8": 8,
    "SD16": 16,
    "Sp4_3_Sylow3": 81,
    "Q8xQ8_swap": 128,
}


@dataclass(frozen=True)
class Named:
    tag: str

    def __post_init__(self):
        if self.tag not in _NAMED_ORDERS:
            raise ValueError(f"unknown named group {self.tag!r}")

    @property
    def expansion(self) -> "StructureTerm | None":
        if self.tag == "Sp4_3_Sylow3":
            return SemidirectProduct(
                ElementaryAbelian(3, 3), CyclicGroup(3),
                "unitriangular symplectic action")
        if self.tag == "Q8xQ8_swap":
            return SemidirectProduct(
                DirectProduct((Named("Q8"), Named("Q8"))), CyclicGroup(2),
                "swapping the factors")
        return None


StructureTerm = (
    Trivial | CyclicGroup | ElementaryAbelian | IteratedWreath
    | DiagonalPart | DirectProduct | SemidirectProduct | Named
)

TRIVIAL_TERM = Trivial()


def structure_order(t: StructureTerm) -> int:
    if isinstance(t, Trivial):
        return 1
    if isinstance(t, CyclicGroup):
        return t.order
    if isinstance(t, ElementaryAbelian):
        return t.ell**t.rank
    if isinstance(t, IteratedWreath):
        return t.ell ** ((t.ell**t.depth - 1) // (t.ell - 1))
    if isinstance(t, DiagonalPart):
        return t.m**t.n // t.p
    if isinstance(t, DirectProduct):
        return prod(map(structure_order, t.factors))
    if isinstance(t, SemidirectProduct):
        return structure_order(t.normal) * structure_order(t.acting)
    if isinstance(t, Named):
        return _NAMED_ORDERS[t.tag]
    raise TypeError(f"not a structure term: {t!r}")


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


def _semidirect(normal: StructureTerm, acting: StructureTerm,
                note: str) -> StructureTerm:
    if isinstance(acting, Trivial):
        return normal
    if isinstance(normal, Trivial):
        return acting
    return SemidirectProduct(normal, acting, note)


def _diagonal(m: int, p: int, n: int) -> StructureTerm:
    if m // p == 1 and (n == 1 or m == 1):
        return TRIVIAL_TERM
    if n == 1:
        return CyclicGroup(m // p)
    if m == 1:
        return TRIVIAL_TERM
    return DiagonalPart(m, p, n)


def _wreath_tower(ell: int, depth: int) -> StructureTerm:
    return CyclicGroup(ell) if depth == 1 else IteratedWreath(ell, depth)


def sylow_symmetric(n: int, ell: int) -> StructureTerm:
    """Sylow subgroup of Sym(n): one iterated wreath tower of depth i per
    base-ell digit b_i, i >= 1.  Depth-1 towers are plain cyclic groups."""
    towers = []
    for i, b in enumerate(base_digits(ell, n)):
        if i >= 1:
            towers.extend([_wreath_tower(ell, i)] * b)
    return direct_product(towers)


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

    m, p, n = g.m, g.p, g.n
    if n == 1:
        return CyclicGroup(ell ** nu(ell, m))
    if m % ell:
        return sylow_symmetric(n, ell)
    a = ell ** nu(ell, m)
    if p % ell == 0:
        return _semidirect(
            _diagonal(a, ell ** nu(ell, p), n),
            sylow_symmetric(n, ell),
            "permuting coordinates")
    blocks = []
    for i, b in enumerate(base_digits(ell, n)):
        if i == 0:
            blocks.extend([CyclicGroup(a)] * b)
        else:
            blocks.extend(
                [_semidirect(_diagonal(a, 1, ell**i), _wreath_tower(ell, i),
                             "permuting coordinates")] * b)
    return direct_product(blocks)


def render_term(t: StructureTerm) -> str:
    """Rendering grammar used by the CLI and JSON output, e.g. "W(2,2)",
    "A(9,3,2):sd:W(3,1)", "C2 x W(2,2)", "Q8"."""
    if isinstance(t, Trivial):
        return "1"
    if isinstance(t, CyclicGroup):
        return f"C{t.order}"
    if isinstance(t, ElementaryAbelian):
        return f"E({t.ell}^{t.rank})"
    if isinstance(t, IteratedWreath):
        return f"W({t.ell},{t.depth})"
    if isinstance(t, DiagonalPart):
        return f"A({t.m},{t.p},{t.n})"
    if isinstance(t, DirectProduct):
        return " x ".join(_render_factor(f) for f in t.factors)
    if isinstance(t, SemidirectProduct):
        return f"{_render_factor(t.normal)}:sd:{_render_factor(t.acting)}"
    if isinstance(t, Named):
        return t.tag
    raise TypeError(f"not a structure term: {t!r}")


def _render_factor(t: StructureTerm) -> str:
    text = render_term(t)
    if isinstance(t, (DirectProduct, SemidirectProduct)):
        return f"({text})"
    return text
