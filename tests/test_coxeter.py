"""An independent check of the minimal parabolic classes of the real
reflection groups from their Coxeter diagrams.

A finite real reflection group W is a Coxeter group, and every parabolic
subgroup of W is conjugate to a standard parabolic subgroup W_J, J a subset
of the diagram's nodes (Bourbaki, Lie Groups and Lie Algebras, ch. IV-VI;
Humphreys, Reflection Groups and Coxeter Groups, 1990).  W_J is the direct
product of the groups of the connected components of J, so its order is the
product of their orders.  Here the diagrams and the component orders are
typed in and read nothing from the package: for each prime ell dividing
|W|, the least order of a W_J whose ell-part is that of W, and the multiset
of component types of every such J, must be the member of
classify_parabolic.  This reaches E7 (order 2903040) and E8 (696729600),
past every enumeration of the oracle, without reading the tables.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod

import pytest

from sylowclass import groups
from sylowclass.classify import classify_parabolic
from sylowclass.groups import TRIVIAL, Exceptional, Imprimitive, irreducible_factors


def _path(labels):
    """A path whose i-th edge carries labels[i]: {(i, i + 1): label}."""
    return {(i, i + 1): label for i, label in enumerate(labels)}


def _e_diagram(n):
    """E_n: a path of n - 1 nodes, one more node joined to its third."""
    return n, {**_path([3] * (n - 2)), (2, n - 1): 3}


def _d_diagram(k):
    """D_k: a path of k - 1 nodes, one more node joined to its
    second-to-last."""
    return k, {**_path([3] * (k - 2)), (k - 3, k - 1): 3}


# the group, its diagram as (node count, {(i, j): label >= 3})
DIAGRAMS = [
    (Exceptional(23), (3, _path([5, 3]))),  # H3
    (Exceptional(28), (4, _path([3, 4, 3]))),  # F4
    (Exceptional(30), (4, _path([5, 3, 3]))),  # H4
    *[(Exceptional(29 + n), _e_diagram(n)) for n in (6, 7, 8)],
    *[(Imprimitive(1, 1, k + 1), (k, _path([3] * (k - 1)))) for k in range(1, 11)],
    *[(Imprimitive(2, 1, k), (k, _path([3] * (k - 2) + [4]))) for k in range(2, 11)],
    *[(Imprimitive(2, 2, k), _d_diagram(k)) for k in range(4, 11)],
    *[(Imprimitive(m, m, 2), (2, {(0, 1): m})) for m in range(3, 60)],
]

# a component type: (series, rank) for A, B, D, E, F, H, and ("I", m) for I2(m)
ORDERS = {
    "A": lambda k: factorial(k + 1),
    "B": lambda k: 2**k * factorial(k),
    "D": lambda k: 2 ** (k - 1) * factorial(k),
    "I": lambda m: 2 * m,
    "H": {3: 120, 4: 14400}.get,
    "F": {4: 1152}.get,
    "E": {6: 51840, 7: 2903040, 8: 696729600}.get,
}


def _as_group(component):
    series, k = component
    if series in "ABDI":
        m, p, n = {"A": (1, 1, k + 1), "B": (2, 1, k), "D": (2, 2, k),
                   "I": (k, k, 2)}[series]
        return Imprimitive(m, p, n)
    return Exceptional({("H", 3): 23, ("H", 4): 30, ("F", 4): 28}.get(component, 29 + k))


def _component_type(nodes, edges):
    """The type of one connected subdiagram."""
    k = len(nodes)
    if k == 1:
        return ("A", 1)
    if k == 2:
        (label,) = edges.values()
        return {3: ("A", 2), 4: ("B", 2)}.get(label, ("I", label))
    neighbours = {v: [] for v in nodes}
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    branch = [v for v in nodes if len(neighbours[v]) == 3]
    if branch:
        (b,) = branch
        assert set(edges.values()) == {3}
        arms = []
        for first in neighbours[b]:
            length, prev, cur = 1, b, first
            while nxt := [v for v in neighbours[cur] if v != prev]:
                length, prev, cur = length + 1, cur, nxt[0]
            arms.append(length)
        return ("D", k) if sorted(arms)[:2] == [1, 1] else ("E", k)
    # a path: read its labels from one end
    end = min(v for v in nodes if len(neighbours[v]) == 1)
    labels, prev, cur = [], None, end
    while nxt := [v for v in neighbours[cur] if v != prev]:
        labels.append(edges[min(cur, nxt[0]), max(cur, nxt[0])])
        prev, cur = cur, nxt[0]
    if set(labels) == {3}:
        return ("A", k)
    if labels.count(4) == 1 and set(labels) <= {3, 4}:
        if labels[0] == 4 or labels[-1] == 4:
            return ("B", k)
        assert labels == [3, 4, 3], labels
        return ("F", 4)
    assert labels.count(5) == 1 and set(labels) <= {3, 5} and k in (3, 4), labels
    assert labels[0] == 5 or labels[-1] == 5, labels
    return ("H", k)


def _components(nodes, edges):
    """The connected components of the subdiagram on nodes, each with its
    edges."""
    nodes = set(nodes)
    inner = {e: label for e, label in edges.items() if set(e) <= nodes}
    out = []
    while nodes:
        part, stack = set(), [min(nodes)]
        while stack:
            v = stack.pop()
            if v not in part:
                part.add(v)
                stack.extend(j for i, j in inner if i == v)
                stack.extend(i for i, j in inner if j == v)
        nodes -= part
        out.append((sorted(part), {e: label for e, label in inner.items()
                                   if set(e) <= part}))
    return out


def _nu(ell, x):
    v = 0
    while x % ell == 0:
        v, x = v + 1, x // ell
    return v


def _primes(x):
    out, q = [], 2
    while q * q <= x:
        if x % q == 0:
            out.append(q)
            while x % q == 0:
                x //= q
        q += 1
    return out + [x] if x > 1 else out


@lru_cache(maxsize=None)
def _standard_parabolics(index):
    """(order, sorted component types) of W_J for every subset J."""
    n, edges = DIAGRAMS[index][1]
    out = []
    for mask in range(1 << n):
        J = [v for v in range(n) if mask >> v & 1]
        types = sorted(_component_type(*c) for c in _components(J, edges))
        out.append((prod(ORDERS[s](k) for s, k in types), tuple(types)))
    return out


def _order(index):
    return max(order for order, _ in _standard_parabolics(index))


PAIRS = [(index, ell) for index in range(len(DIAGRAMS))
         for ell in _primes(_order(index))]

# labels that name one group twice: I2(3) = A2, I2(4) = B2
SAME = {Imprimitive(3, 3, 2): Imprimitive(1, 1, 3),
        Imprimitive(4, 4, 2): Imprimitive(2, 1, 2)}


def _factors(factors):
    return Counter(SAME.get(f, f) for f in factors if f != TRIVIAL)


def test_scope():
    assert len(DIAGRAMS) == 89 and len(PAIRS) == 223
    # the 19 parabolic-table rows of the six real exceptional groups
    assert sum(isinstance(DIAGRAMS[i][0], Exceptional) for i, _ in PAIRS) == 19


@pytest.mark.parametrize("index", range(len(DIAGRAMS)),
                         ids=[repr(g) for g, _ in DIAGRAMS])
def test_the_whole_diagram_types_as_its_group(index):
    group = DIAGRAMS[index][0]
    order, types = _standard_parabolics(index)[-1]  # J is every node
    assert _factors(map(_as_group, types)) == _factors([group])
    assert order == groups.order(group)


@pytest.mark.parametrize("index,ell", PAIRS,
                         ids=[f"{DIAGRAMS[i][0]!r} at {ell}" for i, ell in PAIRS])
def test_minimal_standard_parabolic_is_the_closed_form(index, ell):
    group = DIAGRAMS[index][0]
    full = _nu(ell, _order(index))
    least = min(order for order, _ in _standard_parabolics(index)
                if _nu(ell, order) == full)
    types = {t for order, t in _standard_parabolics(index)
             if order == least and _nu(ell, order) == full}
    assert len(types) == 1, types  # the paper's uniqueness
    (types,) = types
    answer = classify_parabolic(group, ell)
    assert answer.member_order == least
    assert _factors(irreducible_factors(answer.members[0].group)) \
        == _factors(map(_as_group, types))
