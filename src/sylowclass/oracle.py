"""Exact brute-force engine for small G(m,p,n).

Elements are pairs (phases, perm): a vector of phase exponents mod m and a
permutation of the coordinates, acting as e_j -> zeta^phases(perm(j)) *
e_perm(j).  Membership requires the phase exponents to sum to 0 mod p.
Elements live only in two integer arrays (phases, permutations), one row
each in canonical order.  All arithmetic is integer arithmetic mod m; fixed
spaces and stabilizers are computed combinatorially from cycle/phase data,
and the reflections are read from the rows directly.

One orbit helper, orbit_labels, labels each point with the smallest point
of its orbit under a few index permutations.  Under the conjugation tables
it gives the element conjugacy classes, and the parabolic stage computes
one fixed space and stabilizer per class representative.  In the lattice
it gives the orbits of a subgroup H on the reflections outside it, and H
is closed with the first reflection of each orbit only.

A subgroup is one Subgroup: the sorted array of its element indices in the
canonical element order, whose bytes key every dict.  generate_subgroup
grows a subgroup breadth-first from the identity, one gather through a
generator's right-multiplication table per level and generator.  The
lattice extends a subgroup H it already has by walking right cosets: each
new coset H*t*g is one vectorized gather through the table of g, so the
closure K costs about |K| integer moves.  A conjugacy class is found whole
when its first member is discovered, by one orbit search under conjugation
by a fixed generating set of the parent group, through conjugation tables
built once per group.  The reflection-subgroup lattice is searched over one
representative per class.

A reflection subgroup is labeled by counting its reflections, block by
block (see identify_class).

Everything is exhaustive and capped (default order cap 20000); no
permutation-group machinery beyond tables and orbits is needed at this
scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .groups import AugmentedPartition, augmented_partition
from .limits import DEFAULT_ORDER_CAP
from .valuation import minimal_factorial_partition, nu

MAX_SUBGROUPS = 200000  # cap on the reflection-subgroup lattice


class ResourceLimitError(RuntimeError):
    """The request exceeds the configured enumeration cap."""


class OracleConsistencyError(AssertionError):
    """An internal exactness check failed (never expected)."""


@dataclass(frozen=True)
class MonomialElement:
    """(theta, pi) with per-coordinate phase exponents mod m."""

    m: int
    phases: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        if len(self.phases) != len(self.perm):
            raise ValueError("phase and permutation length differ")

    @property
    def n(self) -> int:
        return len(self.perm)

    def mul(self, other: "MonomialElement") -> "MonomialElement":
        if self.m != other.m or self.n != other.n:
            raise ValueError("mixed ambient groups")
        pinv = inverse_perm(self.perm)
        phases = tuple(
            (self.phases[j] + other.phases[pinv[j]]) % self.m
            for j in range(self.n)
        )
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        return MonomialElement(self.m, phases, perm)

    def inv(self) -> "MonomialElement":
        pinv = inverse_perm(self.perm)
        phases = tuple((-self.phases[self.perm[i]]) % self.m for i in range(self.n))
        return MonomialElement(self.m, phases, pinv)

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.phases) and all(
            p == i for i, p in enumerate(self.perm))


def inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


@dataclass(frozen=True)
class FixedSpace:
    """Combinatorial fixed-space basis: one vector per phase-trivial cycle,
    given as (support coordinates ascending, phase exponents relative to the
    smallest coordinate)."""

    m: int
    n: int
    vectors: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def fixed_space(e: MonomialElement) -> FixedSpace:
    """Fix(e): each perm cycle whose phase exponents sum to 0 mod m spans
    one dimension; the exponent pattern along the cycle pins the vector."""
    return _fixed_space(e.m, e.phases, e.perm)


def _fixed_space(m: int, phases, perm) -> FixedSpace:
    n = len(perm)
    seen = [False] * n
    vectors = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        total = sum(phases[c] for c in cycle) % m
        if total:
            continue
        # Walk the cycle accumulating x_{pi(i)} = x_i + phases[pi(i)].
        exps = {cycle[0]: 0}
        cur = cycle[0]
        for _ in range(len(cycle) - 1):
            nxt = perm[cur]
            exps[nxt] = (exps[cur] + phases[nxt]) % m
            cur = nxt
        coords = tuple(sorted(cycle))
        base = exps[coords[0]]
        vectors.append(
            (coords, tuple((exps[c] - base) % m for c in coords)))
    return FixedSpace(m, n, tuple(sorted(vectors)))


class Subgroup:
    """A subgroup of a ConcreteGroup: its sorted int64 element indices, their
    bytes as its dict key, and the number of its conjugacy class in order of
    discovery (-1 when no class search assigned one)."""

    __slots__ = ("idx", "key", "order", "class_id")

    def __init__(self, idx: np.ndarray, class_id: int = -1):
        self.idx = idx
        self.key = idx.tobytes()
        self.order = len(idx)
        self.class_id = class_id

    def __repr__(self):
        return f"<subgroup of order {self.order}>"


@dataclass
class OracleClass:
    """One conjugacy class of subgroups."""

    members: tuple[Subgroup, ...]

    @property
    def order(self) -> int:
        return self.members[0].order

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def representative(self) -> Subgroup:
        return self.members[0]


class ConcreteGroup:
    """Fully enumerated G(m,p,n) in a canonical element order (identity
    first), with index tables for fast subgroup generation."""

    def __init__(self, m: int, p: int, n: int, order_cap: int = DEFAULT_ORDER_CAP):
        if m < 1 or p < 1 or n < 1 or m % p:
            raise ValueError(f"need p | m, got ({m},{p},{n})")
        size = m**n * factorial(n) // p
        if size > order_cap:
            raise ResourceLimitError(
                f"|G({m},{p},{n})| = {size} exceeds cap {order_cap}")
        self.m, self.p, self.n = m, p, n
        self.size = size
        self._build()

    # -- construction -------------------------------------------------

    def _enumerate_phase_vectors(self):
        m, p, n = self.m, self.p, self.n
        # Free choice of the first n-1 exponents; the last is determined
        # mod p, with m/p lifts.  Avoids filtering all m^n tuples.
        for prefix in itertools.product(range(m), repeat=n - 1):
            rem = (-sum(prefix)) % p
            for t in range(m // p):
                yield prefix + (rem + t * p,)

    def _build(self):
        n = self.n
        perms = list(itertools.permutations(range(n)))
        phase_list = list(self._enumerate_phase_vectors())
        if len(phase_list) * len(perms) != self.size:
            raise OracleConsistencyError("enumeration size mismatch")

        A = np.array(
            [ph for ph in phase_list for _ in perms], dtype=np.int64
        ).reshape(len(phase_list) * len(perms), n)
        P = np.array(perms * len(phase_list), dtype=np.int64).reshape(-1, n)

        codes = self._codes(A, P)
        order_idx = np.argsort(codes, kind="stable")
        self._A = np.ascontiguousarray(A[order_idx])
        self._P = np.ascontiguousarray(P[order_idx])
        self._PINV = np.argsort(self._P, axis=1)
        self._codes_sorted = codes[order_idx]
        if not self.is_identity_index(0):
            raise OracleConsistencyError("identity not first in canonical order")

        self._right_tables: dict[int, np.ndarray] = {}
        self._conj_tables: list[np.ndarray] | None = None
        self._reflection_indices: list[int] | None = None
        self._fixed_spaces: list[FixedSpace] | None = None
        self._gen_indices: list[int] | None = None

    def _codes(self, A: np.ndarray, P: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n
        wa = np.array([m ** (n - 1 - j) for j in range(n)], dtype=np.int64)
        wp = np.array([n ** (n - 1 - j) for j in range(n)], dtype=np.int64)
        return (A @ wa) * (n**n) + (P @ wp)

    # -- element access ------------------------------------------------

    def element(self, i: int) -> MonomialElement:
        """The element with canonical index i."""
        return MonomialElement(self.m, tuple(self._A[i].tolist()),
                               tuple(self._P[i].tolist()))

    def index_of(self, e: MonomialElement) -> int:
        """Canonical index of e; KeyError if e is not in the group."""
        if e.n != self.n:
            raise KeyError(e)
        code = self._codes(np.array([e.phases], dtype=np.int64),
                           np.array([e.perm], dtype=np.int64))[0]
        pos = int(np.searchsorted(self._codes_sorted, code))
        # Out-of-range entries can alias another element's code.
        if pos == self.size or self.element(pos) != e:
            raise KeyError(e)
        return pos

    def is_identity_index(self, i: int) -> bool:
        return bool((self._A[i] == 0).all()) and bool(
            (self._P[i] == np.arange(self.n)).all())

    # -- multiplication tables ------------------------------------------

    def _table_from_element(self, phases: np.ndarray, perm: np.ndarray,
                            side: str) -> np.ndarray:
        """Index table of x -> x*g (side 'right') or x -> g*x ('left')."""
        m = self.m
        if side == "right":
            new_A = (self._A + phases[self._PINV]) % m
            new_P = self._P[:, perm]
        else:
            pinv = np.argsort(perm)
            new_A = (phases[None, :] + self._A[:, pinv]) % m
            new_P = perm[self._P]
        codes = self._codes(new_A, new_P)
        pos = np.searchsorted(self._codes_sorted, codes)
        if not (self._codes_sorted[pos] == codes).all():
            raise OracleConsistencyError("product left the group")
        return pos.astype(np.int64)

    def right_table(self, g_idx: int) -> np.ndarray:
        tab = self._right_tables.get(g_idx)
        if tab is None:
            tab = self._table_from_element(self._A[g_idx], self._P[g_idx], "right")
            self._right_tables[g_idx] = tab
        return tab

    def conjugation_tables(self) -> list[np.ndarray]:
        """Index tables of x -> g*x*g^{-1}, one per generator g; g^{-1} is
        the x with x*g the identity (index 0)."""
        if self._conj_tables is None:
            self._conj_tables = [
                self._table_from_element(self._A[g], self._P[g], "left")[
                    self.right_table(int(np.argmin(self.right_table(g))))]
                for g in self.generator_indices()]
        return self._conj_tables

    # -- reflections and fixed spaces -----------------------------------

    # Unused by the program; kept only for perfbench/tracing.py and selftest.py.
    def fixed_spaces(self) -> list[FixedSpace]:
        if self._fixed_spaces is None:
            self._fixed_spaces = [
                _fixed_space(self.m, a, pp)
                for a, pp in zip(self._A.tolist(), self._P.tolist())]
        return self._fixed_spaces

    def reflection_indices(self) -> list[int]:
        """Ascending indices of the reflections, read from the phase and
        permutation rows: the identity permutation with one nonzero phase,
        or one transposition whose two phases sum to 0 mod m with every
        other phase 0 (the only elements fixing a hyperplane)."""
        if self._reflection_indices is None:
            moved = self._P != np.arange(self.n)
            phased = self._A != 0
            n_moved = moved.sum(axis=1)
            scaling = (n_moved == 0) & (phased.sum(axis=1) == 1)
            swapping = ((n_moved == 2) & ~(phased & ~moved).any(axis=1)
                        & ((self._A * moved).sum(axis=1) % self.m == 0))
            self._reflection_indices = np.flatnonzero(scaling | swapping).tolist()
        return self._reflection_indices

    def generator_indices(self) -> list[int]:
        """A small generating set: adjacent transpositions plus two phase
        generators (a difference and a p-step)."""
        if self._gen_indices is not None:
            return self._gen_indices
        m, p, n = self.m, self.p, self.n
        gens: list[int] = []

        def add(phases, perm):
            e = MonomialElement(m, tuple(a % m for a in phases), tuple(perm))
            if not e.is_identity():
                idx = self.index_of(e)
                if idx not in gens:
                    gens.append(idx)

        ident = list(range(n))
        for i in range(n - 1):
            swapped = ident.copy()
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            add([0] * n, swapped)
        if m > 1:
            if n > 1:
                add([1, m - 1] + [0] * (n - 2), ident)
            add([p] + [0] * (n - 1), ident)
        self._gen_indices = gens
        return gens


def enumerate_group(m: int, p: int, n: int,
                    order_cap: int = DEFAULT_ORDER_CAP) -> ConcreteGroup:
    """All of G(m,p,n), exactly once each, identity first."""
    return ConcreteGroup(m, p, n, order_cap)


# ---------------------------------------------------------------------------
# Orbits and subgroup generation


def orbit_labels(size: int, maps) -> np.ndarray:
    """The smallest point of each point's orbit, for the points 0..size-1
    under the permutations in maps (index arrays).

    Each pass lowers every label to the label of its image under each map.
    At the fixpoint labels never rise along an edge x -> t[x]; every edge
    lies on a cycle of t, so labels are constant on orbits, and the smallest
    point of an orbit keeps its own label throughout."""
    labels = np.arange(size)
    while True:
        before = labels
        for t in maps:
            labels = np.minimum(labels, labels[t])
        if np.array_equal(labels, before):
            return labels


def _generate_from(group: ConcreteGroup, base_idx: np.ndarray,
                   gen_tables: list[np.ndarray]) -> np.ndarray:
    """Sorted element indices of the closure of a subgroup (given by
    base_idx, which must already be closed) together with the generators
    behind gen_tables, which must include generators of the base subgroup.

    Walks right cosets: a candidate coset H*t*g is new iff its
    representative index is unmarked, and its elements are one table
    gather away from the elements of H*t.
    """
    member = np.zeros(group.size, dtype=bool)
    member[base_idx] = True
    stack = [(0, base_idx)]
    while stack:
        t, coset = stack.pop()
        for table in gen_tables:
            x = int(table[t])
            if not member[x]:
                new_coset = table[coset]
                member[new_coset] = True
                stack.append((x, new_coset))
    return np.flatnonzero(member).astype(np.int64)


def generate_subgroup(group: ConcreteGroup, element_indices) -> Subgroup:
    """Subgroup generated by arbitrary elements (by index); the trivial
    subgroup when there are none.

    Breadth-first from the identity: each level gathers the frontier
    through one generator's right table at a time and keeps what is not
    yet marked, so the pieces of the next frontier are disjoint."""
    tables = [group.right_table(i) for i in element_indices]
    member = np.zeros(group.size, dtype=bool)
    member[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while tables and frontier.size:
        found = []
        for table in tables:
            x = table[frontier]
            x = x[~member[x]]
            member[x] = True
            found.append(x)
        frontier = np.concatenate(found)
    return Subgroup(np.flatnonzero(member).astype(np.int64))


def conjugacy_class(group: ConcreteGroup, h: Subgroup) -> dict[bytes, Subgroup]:
    """All conjugates of h keyed by their keys, each carrying h's class
    number: an orbit search under conjugation x -> g*x*g^{-1} by the
    parent's generators."""
    orbit = {h.key: h}
    frontier = [h]
    while frontier:
        cur = frontier.pop()
        for table in group.conjugation_tables():
            new = Subgroup(np.sort(table[cur.idx]), h.class_id)
            if new.key not in orbit:
                orbit[new.key] = new
                frontier.append(new)
    return orbit


def all_reflection_subgroups(group: ConcreteGroup) -> list[Subgroup]:
    """Every subgroup generated by reflections, each tagged with its class.

    Closure BFS from the trivial subgroup over one representative per
    conjugacy class: adjoin one reflection to a representative and close.
    Since <gHg^{-1}, r> = g<H, g^{-1}rg>g^{-1} and g^{-1}rg is again a
    reflection, the closures of the representatives reach every class; a
    closure not seen before enters with its whole class.  For h in H,
    <H, hrh^{-1}> = <H, r>, so a representative closes only the first
    reflection of each H-orbit of the reflections outside it (the orbits
    under conjugation by the reflections that generate it).  More than
    MAX_SUBGROUPS subgroups raise ResourceLimitError.
    """
    refl = group.reflection_indices()
    refl_arr = np.array(refl, dtype=np.int64)
    refl_tables = {r: group.right_table(r) for r in refl}
    conj: dict[int, np.ndarray] = {}

    def conjugation_by(r: int) -> np.ndarray:
        """Position in refl of r*s*r^{-1}, for each reflection s in refl."""
        if r not in conj:
            rs = np.array([refl_tables[s][r] for s in refl], dtype=np.int64)
            r_inv = int(np.argmin(refl_tables[r]))
            conj[r] = np.searchsorted(refl_arr, refl_tables[r_inv][rs])
        return conj[r]

    found: dict[bytes, Subgroup] = {}
    # One (representative, reflections generating it) per class; the loop
    # below walks this list while admit() appends to it, in BFS order, so a
    # new class gets the number len(reps).
    reps: list[tuple[Subgroup, tuple[int, ...]]] = []

    def admit(h: Subgroup, gens: tuple[int, ...]) -> None:
        orbit = conjugacy_class(group, h)
        if len(found) + len(orbit) > MAX_SUBGROUPS:
            raise ResourceLimitError(
                f"more than {MAX_SUBGROUPS} reflection subgroups")
        found.update(orbit)
        reps.append((h, gens))

    admit(Subgroup(np.array([0], dtype=np.int64), 0), ())
    for rep, gens in reps:
        inside = np.isin(refl_arr, rep.idx, assume_unique=True)
        first = orbit_labels(len(refl), [conjugation_by(g) for g in gens])
        gen_tables = [refl_tables[r] for r in gens]
        for j in np.flatnonzero(~inside & (first == np.arange(len(refl)))).tolist():
            r = refl[j]
            h = Subgroup(_generate_from(group, rep.idx, gen_tables + [refl_tables[r]]),
                         len(reps))
            if h.key not in found:
                admit(h, gens + (r,))
    return list(found.values())


def _as_classes(orbits: list[dict[bytes, Subgroup]]) -> list[OracleClass]:
    """OracleClass per orbit, members in key order, classes by order and
    first member."""
    classes = [OracleClass(tuple(orbit[k] for k in sorted(orbit)))
               for orbit in orbits]
    classes.sort(key=lambda c: (c.order, c.members[0].key))
    return classes


def reflection_subgroup_classes(group: ConcreteGroup) -> list[OracleClass]:
    """Conjugacy classes of all reflection-generated subgroups."""
    orbits: dict[int, dict[bytes, Subgroup]] = {}
    for h in all_reflection_subgroups(group):
        orbits.setdefault(h.class_id, {})[h.key] = h
    return _as_classes(list(orbits.values()))


# ---------------------------------------------------------------------------
# Parabolic subgroups


def pointwise_stabilizer(group: ConcreteGroup, space: FixedSpace) -> Subgroup:
    """All elements fixing every basis vector of the space, by exact phase
    arithmetic mod m (vectorized over the whole group)."""
    m, n = group.m, group.n
    mask = np.ones(group.size, dtype=bool)
    for coords, exps in space.vectors:
        in_c = np.zeros(n, dtype=bool)
        in_c[list(coords)] = True
        xfull = np.zeros(n, dtype=np.int64)
        xfull[list(coords)] = exps
        for j, xj in zip(coords, exps):
            pre = group._PINV[:, j]
            pre_in = in_c[pre]
            ok = pre_in & ((group._A[:, j] + xfull[pre] - xj) % m == 0)
            mask &= ok
    return Subgroup(np.flatnonzero(mask).astype(np.int64))


def parabolic_classes(group: ConcreteGroup) -> list[OracleClass]:
    """Conjugacy classes of {G_Fix(x) : x in G}: every parabolic subgroup
    is the stabilizer of the fixed space of one of its own elements, so
    this flat set is the full set of parabolic subgroups; the trivial
    subgroup (x = 1) and the whole group (x with minimal fixed space)
    always appear.  Fix(gxg^{-1}) = g*Fix(x), so conjugate elements have
    conjugate stabilizers, and one element per conjugacy class (the
    smallest index, from orbit_labels under the conjugation tables) is
    enough."""
    reps = np.unique(orbit_labels(group.size, group.conjugation_tables()))
    spaces = {}
    for x in reps.tolist():
        sp = fixed_space(group.element(x))
        spaces.setdefault(sp.vectors, sp)
    known: set[bytes] = set()
    orbits = []
    for sp in spaces.values():
        h = pointwise_stabilizer(group, sp)
        if h.key not in known:
            orbit = conjugacy_class(group, h)
            known.update(orbit)
            orbits.append(orbit)
    return _as_classes(orbits)


# ---------------------------------------------------------------------------
# Minimal classes, Sylow construction, identification


def minimal_full_valuation(group: ConcreteGroup, classes: list[OracleClass],
                           ell: int) -> list[OracleClass]:
    """Classes whose order has the full ell-valuation of |G| and none of
    whose members properly contain another such class member.

    Classes are closed under conjugation, so a member of one class lies in
    some member gAg^{-1} of another exactly when some member lies in A
    itself; only the representative A is tested."""
    g_val = nu(ell, group.size)
    full = [c for c in classes if nu(ell, c.order) == g_val]
    minimal = []
    for c in full:
        in_rep = np.zeros(group.size, dtype=bool)
        in_rep[c.representative.idx] = True
        if not any(in_rep[o.idx].all()
                   for other in full if other.order < c.order
                   for o in other.members):
            minimal.append(c)
    return minimal


def sylow_construct(group: ConcreteGroup, ell: int) -> Subgroup:
    """A concrete ell-Sylow subgroup: diagonal ell-power phase generators
    satisfying the phase-sum constraint, plus the iterated-wreath
    permutation generators of a Sylow subgroup of Sym(n) on the blocks of
    lambda(ell, n).  The generated order must equal the ell-part of |G|,
    which proves it is Sylow."""
    m, p, n = group.m, group.p, group.n
    if group.size % ell:
        raise ValueError(f"{ell} does not divide |G| = {group.size}")
    gens: list[int] = []

    def add(phases, perm):
        e = MonomialElement(m, tuple(a % m for a in phases), tuple(perm))
        if not e.is_identity():
            gens.append(group.index_of(e))

    c = m // ell ** nu(ell, m)
    ident = tuple(range(n))
    if c != m:
        step = (c * ell ** nu(ell, p)) % m
        if step:
            add([step] + [0] * (n - 1), ident)
        for i in range(n - 1):
            phases = [0] * n
            phases[i], phases[i + 1] = c, m - c
            add(phases, ident)

    # Wreath towers over the blocks of lambda(ell, n), largest first.
    offset = 0
    for k in minimal_factorial_partition(ell, n):
        for t in range(1, nu(ell, k) + 1):
            width = ell**t
            perm = list(range(n))
            for j in range(width):
                perm[offset + j] = offset + (j + ell ** (t - 1)) % width
            add([0] * n, perm)
        offset += k

    sylow = generate_subgroup(group, gens)
    expected = ell ** nu(ell, group.size)
    if sylow.order != expected:
        raise OracleConsistencyError(
            f"Sylow recipe for G({m},{p},{n}) at {ell} generated order "
            f"{sylow.order}, expected {expected}")
    return sylow


def identify_class(group: ConcreteGroup, h: Subgroup) -> AugmentedPartition:
    """Recover the augmented-partition label of a reflection subgroup from
    its reflections.

    Up to conjugacy h is a product of blocks G(m_i,p_i,n_i) on disjoint
    coordinate sets (Taylor 2012; Lehrer-Taylor 2009).  A reflection of
    G(m,p,n) either swaps two coordinates (with phases) or scales one, so
    the blocks are the connected components of the swapped pairs.  In a
    block of rank n_i >= 2 each pair carries m_i swapping reflections and
    each coordinate m_i/p_i - 1 scaling ones; a rank-1 block is cyclic of
    order 1 + its scaling reflections.  Both counts are unchanged by
    conjugation.  ValueError unless h is regenerated by its reflections
    and the blocks' orders m_i^n_i n_i!/p_i multiply to |h|.
    """
    n = group.n
    inside = h.idx[np.isin(h.idx, group.reflection_indices(), assume_unique=True)]
    if generate_subgroup(group, inside.tolist()).key != h.key:
        raise ValueError("subgroup is not generated by its reflections")

    moved = group._P[inside] != np.arange(n)
    swapping = moved.any(axis=1)
    pairs = moved[swapping].astype(np.int64)
    swaps_at = pairs.sum(axis=0)  # swapping reflections moving each coordinate
    scales_at = (group._A[inside[~swapping]] != 0).sum(axis=0)
    reach = (pairs.T @ pairs > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0

    triples = []
    order = 1
    for block in np.unique(reach, axis=0):
        size = int(block.sum())
        q, r_scale = divmod(int(scales_at[block].sum()), size)
        m_i, r_swap = (divmod(int(swaps_at[block].sum()), size * (size - 1))
                       if size > 1 else (q + 1, 0))
        p_i, r_div = divmod(m_i, q + 1)
        if r_scale or r_swap or r_div:
            raise ValueError(f"reflection counts of block {block.nonzero()[0]} "
                             "fit no G(m_i,p_i,n_i)")
        triples.append((m_i, p_i, size))
        order *= m_i**size * factorial(size) // p_i
    if order != h.order:
        raise ValueError(f"blocks of order {order} do not make up |h| = {h.order}")
    return augmented_partition(triples, (group.m, group.p, n))
