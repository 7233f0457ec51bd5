"""Monomial arithmetic one coordinate at a time: the tests' brute-force
reference for the oracle's index tables.

An element of G(m,p,n) is (m, phases, perm), one row of a ConcreteGroup's
phase and permutation arrays as tuples, acting as
e_j -> zeta^phases[perm[j]] * e_perm[j].  Products and inverses are
computed here from that action, and index_of finds an element through its
own dict over the rows, with none of the oracle's tables, codes or lookups.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from sylowclass.oracle import FixedSpace, _fixed_space


class Element(NamedTuple):
    """(theta, pi) with per-coordinate phase exponents mod m."""

    m: int
    phases: tuple[int, ...]
    perm: tuple[int, ...]


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def mul(a: Element, b: Element) -> Element:
    pinv = _inverse_perm(a.perm)
    n = len(a.perm)
    phases = tuple((a.phases[j] + b.phases[pinv[j]]) % a.m for j in range(n))
    perm = tuple(a.perm[b.perm[j]] for j in range(n))
    return Element(a.m, phases, perm)


def inv(a: Element) -> Element:
    phases = tuple((-a.phases[a.perm[i]]) % a.m for i in range(len(a.perm)))
    return Element(a.m, phases, _inverse_perm(a.perm))


def is_identity(a: Element) -> bool:
    return all(x == 0 for x in a.phases) and all(
        p == i for i, p in enumerate(a.perm))


def element(g, i: int) -> Element:
    """The element with canonical index i, read from g's rows."""
    return Element(g.m, tuple(g._A[i].tolist()), tuple(g._P[i].tolist()))


def all_elements(g) -> list[Element]:
    """Every element of g, in canonical order."""
    return [Element(g.m, tuple(a), tuple(p))
            for a, p in zip(g._A.tolist(), g._P.tolist())]


_indices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def index_of(g, e: Element) -> int:
    """Canonical index of e; KeyError if e is not in g."""
    index = _indices.get(g)
    if index is None:
        index = _indices[g] = {x: i for i, x in enumerate(all_elements(g))}
    return index[e]


def fixed_space(e: Element) -> FixedSpace:
    return _fixed_space(e.m, e.phases, e.perm)
