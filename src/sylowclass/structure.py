"""Isomorphism-type terms for ell-Sylow subgroups.

A Sylow subgroup of an irreducible group is a Sylow subgroup of any minimal
reflection class member, so every in-scope group reduces to the
supercuspidal shapes: iterated wreath products for symmetric groups, a
diagonal phase group extended by coordinate permutations for the
imprimitive family, and a handful of named groups for the exceptionals.

For G(m,p,n), with a = ell^nu(m) and lambda = lambda(ell, n): if ell | p,
A(a, ell^nu(p), n) extended by the Sylow subgroup of Sym(n); otherwise the
direct product over k in lambda, smallest first, of A(a,1,k) extended by
the Sylow subgroup of Sym(k).

C(l)^(i) here is the i-fold iterated wreath product of the cyclic group of
order l (order l^((l^i-1)/(l-1))), which is the Sylow subgroup of
Sym(l^i); the source text says "of i copies of the cyclic group of order
l^i", but only the l-reading matches the order of Sym(l^i)'s Sylow.

sylow_structure is memoized per process like the classify answers, at most
1024 terms keyed by (g, ell); the terms are shared and immutable, and
sylow_structure.cache_clear() frees them.  render_term keeps each term's
text on the term, so a memoized term renders once per process and a
repeated `sylow` request prints the kept text.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from . import groups
from .classify import UnsupportedGroupError, classify_reflection, require_divides
from .frozen import Frozen
from .groups import Exceptional, GroupType, Product, group_primes, normalize
from .valuation import ell_part, lambda_blocks, nu

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


class Trivial(Frozen):
    pass


class CyclicGroup(Frozen):
    _fields = ("order",)


class IteratedWreath(Frozen):
    """depth-fold wreath tower of the cyclic group of order ell; the Sylow
    subgroup of Sym(ell^depth)."""

    _fields = ("ell", "depth")


class DiagonalPart(Frozen):
    """A(m,p,n) for ell-power m and p: diagonal phase vectors mod m whose
    exponents sum to 0 mod p.  Order m^n/p."""

    _fields = ("m", "p", "n")


class DirectProduct(Frozen):
    _fields = ("factors",)


class SemidirectProduct(Frozen):
    _fields = ("normal", "acting", "action_note")

    def __init__(self, normal: StructureTerm, acting: StructureTerm,
                 action_note: str = ""):
        self._store(normal, acting, action_note)


_NAMED_ORDERS = {
    "Q8": 8,
    "SD16": 16,
    "Sp4_3_Sylow3": 81,
}


class Named(Frozen):
    """A Sylow subgroup printed by name; Sp4_3_Sylow3 is E(3^3):C3, the
    elementary abelian group of order 27 extended by C3 acting as a
    unitriangular symplectic map."""

    _fields = ("tag",)

    def __init__(self, tag: str):
        if tag not in _NAMED_ORDERS:
            raise ValueError(f"unknown named group {tag!r}")
        self._store(tag)


StructureTerm = (
    Trivial | CyclicGroup | IteratedWreath | DiagonalPart | DirectProduct
    | SemidirectProduct | Named
)

TRIVIAL_TERM = Trivial()


def structure_order(t: StructureTerm) -> int:
    if isinstance(t, Trivial):
        return 1
    if isinstance(t, CyclicGroup):
        return t.order
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
    if m == 1 or (n == 1 and m == p):
        return TRIVIAL_TERM
    if n == 1:
        return CyclicGroup(m // p)
    return DiagonalPart(m, p, n)


def _wreath_tower(ell: int, k: int) -> StructureTerm:
    """The Sylow subgroup of Sym(k) for a power k of ell."""
    if k == 1:
        return TRIVIAL_TERM
    return CyclicGroup(ell) if k == ell else IteratedWreath(ell, nu(ell, k))


def sylow_symmetric(n: int, ell: int) -> StructureTerm:
    """Sylow subgroup of Sym(n): the Sylow subgroup of Sym(k), an iterated
    wreath tower of depth nu(k), per part k of lambda(ell, n), smallest
    first.  Depth-1 towers are plain cyclic groups, depth-0 ones drop out."""
    return direct_product(reversed(
        lambda_blocks(ell, n, lambda k: _wreath_tower(ell, k), TRIVIAL_TERM)))


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

    m, p, n = g.m, g.p, g.n
    a = ell_part(ell, m)
    if p % ell == 0:
        return _semidirect(
            _diagonal(a, ell_part(ell, p), n),
            sylow_symmetric(n, ell),
            "permuting coordinates")
    return direct_product(reversed(lambda_blocks(ell, n, lambda k: _semidirect(
        _diagonal(a, 1, k), _wreath_tower(ell, k), "permuting coordinates"),
        TRIVIAL_TERM)))


def render_term(t: StructureTerm) -> str:
    """Rendering grammar used by the CLI and JSON output, e.g. "W(2,2)",
    "A(9,3,2):sd:W(3,1)", "C2 x W(2,2)", "Q8".  The text is kept on the
    term after its first render (its fields stay frozen, and equality and
    hashing read only them), so a memoized term renders once."""
    text = getattr(t, "_text", None)
    if text is None:
        text = _render(t)
        object.__setattr__(t, "_text", text)
    return text


def _render(t: StructureTerm) -> str:
    if isinstance(t, Trivial):
        return "1"
    if isinstance(t, CyclicGroup):
        return f"C{t.order}"
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
