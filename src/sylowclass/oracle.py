"""Exact brute-force engine for small G(m,p,n).

An element is only its row in two integer arrays: the phase exponents mod
m, summing to 0 mod p, and a permutation, acting as
e_j -> zeta^phases[perm[j]] * e_perm[j].  The canonical order is
lexicographic in (phases, permutation), and an element's index is its rank
in it.  README "The oracle" describes the stages; these invariants hold
across them.

Mask keys.  A reflection subgroup is determined by the reflections it
contains, and so is every parabolic subgroup, since parabolics are
generated by their reflections (Steinberg 1964; Lehrer-Taylor 2009).  A
Subgroup is therefore keyed by its order and refl_key, a packed bitmask
over the group's reflections, and that key keys every dict; a class is one
OracleClass, cached under the refl_key of every member.  The element
indices are no key: a Subgroup holds them only as its read-only idx, and a
member found by conjugation holds only its mask and closes its reflections
when its elements are asked for.

Reflection generators.  A group's generators are reflections, and the
right tables of all reflections come from theirs: reflection_tables takes
the generators' tables and their powers and reaches the other reflections
by conjugation.  reflection_action, Q[s, j] the position of
r_s*r_j*r_s^{-1}, is the one map of conjugation on reflections; the
lattice and conjugacy_class read its rows.

Derived tables.  The reflections, the generators and their positions
among the reflections (generator_rows), reflection_tables,
reflection_action, point_action and the lattice are cached properties of
a ConcreteGroup, each computed on its first read and kept with the group;
none but reflection_tables holds a row per element.  reflection_tables is
the one store of right tables: right_table returns the kept table of a
reflection, and builds that of any other element (a Sylow generator) from
its rows and keeps nothing.

One source of classes.  ConcreteGroup.lattice builds the
reflection-subgroup lattice once per group and keeps its sorted classes,
which reflection_subgroup_classes returns.  The parabolic stage keeps the
lattice classes whose masks are closed under the reflection arrangement,
and reads no element.  The reflections of any subgroup h generate a
reflection subgroup K <= h with the same mask, so the lattice holds K's
class under h's mask: identify_class reads its class from there, and h is
generated by its reflections exactly when |K| = |h|.

One closure.  _generate_from is the only subgroup closure: it walks right
cosets, one gather through a right table per new coset, and returns the
membership array in which the lattice reads its reflections.

Lagrange's theorem bounds the lattice's closures.  If H <= K <= L, then
|H| divides |K| divides |L|, so a subgroup K of L with more than |L|/p
elements, p the smallest prime dividing [L:H], is L itself.
_generate_from therefore takes an optional bound and stops as soon as it
has marked more elements:
  (1) the lattice closes a representative H with the bound |G|/p, p the
      smallest prime of [G:H]; past it the closure is G;
  (2) after a closure K = <H,r> with [K:H] prime, each later orbit
      representative r' of H lying in K has H < <H,r'> <= K, hence
      <H,r'> = K, and its closure is skipped.
Each rule only skips the rest of a walk whose result it already knows (G
or K), so the subgroups found, their order of admission and every answer
are the same as without the bound.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from . import groups
from .frozen import Frozen
from .groups import AugmentedPartition, augmented_partition
from .limits import DEFAULT_ORDER_CAP
from .valuation import ell_part, factorization, minimal_factorial_partition, nu

MAX_SUBGROUPS = 200000  # cap on the reflection-subgroup lattice
_INT64 = np.dtype(np.int64)


class ResourceLimitError(RuntimeError):
    """The request exceeds the configured enumeration cap."""


class OracleConsistencyError(AssertionError):
    """An internal exactness check failed (never expected)."""


class FixedSpace(Frozen):
    """Combinatorial fixed-space basis: one vector per phase-trivial cycle,
    given as (support coordinates ascending, phase exponents relative to the
    smallest coordinate).  Its dimension is len(vectors)."""

    _fields = ("vectors",)


def _fixed_space(m: int, phases, perm) -> FixedSpace:
    n = len(perm)
    seen = [False] * n
    vectors = []
    for start in range(n):
        if seen[start]:
            continue
        # One walk marks the cycle and accumulates x_{pi(i)} = x_i +
        # phases[pi(i)] from x_start = 0.  Coordinates are visited in
        # ascending order, so start is the cycle's smallest coordinate and
        # the exponents are already relative to it: no rebase is needed.
        # The cycle's phase sum is exps[last] + phases[start].
        seen[start] = True
        exps = {start: 0}
        cur, j = start, perm[start]
        while j != start:
            seen[j] = True
            exps[j] = (exps[cur] + phases[j]) % m
            cur, j = j, perm[j]
        if (exps[cur] + phases[start]) % m:
            continue
        coords = tuple(sorted(exps))
        vectors.append((coords, tuple(exps[c] for c in coords)))
    return FixedSpace(tuple(sorted(vectors)))


class Subgroup:
    """A subgroup of a ConcreteGroup: its order and refl_key, the packed
    bitmask of the reflections it contains over ConcreteGroup.reflections,
    which keys every dict.  A reflection subgroup is generated by its
    reflections, so for one the mask alone determines it.

    idx holds its sorted element indices once, as a read-only int64 array;
    the constructor takes the array it is given and makes it read-only.  A
    subgroup made from its elements (ConcreteGroup.subgroup) stores them at
    once.  A class member found by conjugacy_class holds only its mask
    and a weak reference to its group, so that no member keeps a group
    alive; on first access to idx it closes its reflections with
    generate_subgroup and checks the closure's order.  ReferenceError once
    its group is gone."""

    __slots__ = ("order", "refl_key", "_idx", "_group")

    def __init__(self, order: int, refl_key: bytes,
                 idx: np.ndarray | None = None, group: ConcreteGroup | None = None):
        self.order = order
        self.refl_key = refl_key
        self._idx = None
        self._group = None if group is None else weakref.ref(group)
        if idx is not None:
            self._idx = idx.astype(_INT64, copy=False)
            self._idx.flags.writeable = False

    def _close(self) -> None:
        group = self._group()
        if group is None:
            raise ReferenceError(
                f"the group of this subgroup of order {self.order} is gone; "
                "keep the ConcreteGroup to read its elements")
        h = generate_subgroup(group, group.reflections_in(self).tolist())
        if h.order != self.order:
            raise OracleConsistencyError(
                f"the reflections of a class member generate {h.order} "
                f"elements, not {self.order}")
        self._idx, self._group = h._idx, None

    @property
    def idx(self) -> np.ndarray:
        if self._idx is None:
            self._close()
        return self._idx

    def __repr__(self):
        return f"<subgroup of order {self.order}>"


class OracleClass(Frozen):
    """One conjugacy class of reflection subgroups, its members (a tuple of
    Subgroups) in refl_key order.
    conjugacy_class builds each class once per group, so classes compare
    and hash by identity."""

    _fields = ("members",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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
        size = groups.order(groups.Imprimitive(m, p, n))  # ValueError unless p | m
        if size > order_cap:
            # no decimal |G|: it may pass Python's int-to-str digit limit
            raise ResourceLimitError(f"|G({m},{p},{n})| exceeds cap {order_cap}")
        self.m, self.p, self.n = m, p, n
        self.size = size
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        m, p, n = self.m, self.p, self.n
        # every phase vector with every permutation, in lexicographic order:
        # the first n-1 phases are free and the last is fixed mod p, with m/p
        # lifts (no filter over all m^n tuples)
        phases = np.array([prefix + (-sum(prefix) % p + p * t,)
                           for prefix in itertools.product(range(m), repeat=n - 1)
                           for t in range(m // p)], dtype=np.int64)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        if len(phases) * len(perms) != self.size:
            raise OracleConsistencyError("enumeration size mismatch")
        self._A = np.repeat(phases, len(perms), axis=0)
        self._P = np.tile(perms, (len(phases), 1))
        self._PINV = np.argsort(self._P, axis=1)
        if self._A[0].any() or (self._P[0] != np.arange(n)).any():
            raise OracleConsistencyError("identity not first in canonical order")

        # member refl_key -> its conjugacy class, one object shared by all members
        self._classes: dict[bytes, OracleClass] = {}

    # -- multiplication tables ------------------------------------------

    def _positions(self, A: np.ndarray, P: np.ndarray, what: str) -> np.ndarray:
        """Canonical indices of the elements with phase rows A and
        permutation rows P (each row of P a permutation of 0..n-1), the
        oracle's only element lookup.  The canonical order is lexicographic
        in (phases, permutation), so an index is the row's rank: the first
        n-1 phases in mixed radix m and the last phase's lift A[:, -1] // p
        in radix m/p, times n!, plus the Lehmer rank of the permutation,
        sum_j #{k > j : P[k] < P[j]} * (n-1-j)!.  OracleConsistencyError
        unless every phase lies in [0, m) and every phase sum is 0 mod p:
        the element at the rank of such a row has the row's phases, and no
        element has the phases of any other row."""
        m, p, n = self.m, self.p, self.n
        rank = np.zeros(len(A), dtype=np.int64)
        for j in range(n - 1):
            rank = rank * m + A[:, j]
        rank = rank * (m // p) + A[:, -1] // p
        for j in range(n - 1):  # Horner in the factorial radix n, n-1, ..., 2
            rank = rank * (n - j) + (P[:, j + 1:] < P[:, j, None]).sum(axis=1)
        # a rank outside [0, |G|) is clipped to a row with other phases
        if (self._A.take(rank, axis=0, mode="clip") != A).any():
            raise OracleConsistencyError(f"{what} left the group")
        return rank

    def _table_from_element(self, phases: np.ndarray, perm: np.ndarray) -> np.ndarray:
        """Index table of x -> x*g, g the element with these rows."""
        return self._positions((self._A + phases[self._PINV]) % self.m,
                               self._P[:, perm], "product")

    def right_table(self, g_idx: int) -> np.ndarray:
        """Index table of x -> x*g, g the element at g_idx: the kept table
        from reflection_tables for a reflection, and for any other element a
        table built from its rows and not kept."""
        tab = self.reflection_tables.get(g_idx)
        if tab is None:
            tab = self._table_from_element(self._A[g_idx], self._P[g_idx])
        return tab

    # -- reflections and fixed spaces -----------------------------------

    # Unused by the program and not cached.  Its readers are the tests'
    # element-level reference for the parabolic stage (it builds each
    # space's pointwise stabilizer) and perfbench/tracing.py, which times it
    # and counts the distinct fixed spaces.
    def fixed_spaces(self) -> list[FixedSpace]:
        return [_fixed_space(self.m, a, pp)
                for a, pp in zip(self._A.tolist(), self._P.tolist())]

    @cached_property
    def reflections(self) -> np.ndarray:
        """Ascending indices of the reflections (int64), read from the phase
        and permutation rows: the identity permutation with one nonzero
        phase, or one transposition whose two phases sum to 0 mod m with
        every other phase 0 (the only elements fixing a hyperplane)."""
        moved = self._P != np.arange(self.n)
        phased = self._A != 0
        n_moved = moved.sum(axis=1)
        scaling = (n_moved == 0) & (phased.sum(axis=1) == 1)
        swapping = ((n_moved == 2) & ~(phased & ~moved).any(axis=1)
                    & ((self._A * moved).sum(axis=1) % self.m == 0))
        return np.flatnonzero(scaling | swapping)

    def reflection_indices(self) -> list[int]:
        """reflections as a list of ints."""
        return self.reflections.tolist()

    @cached_property
    def reflection_action(self) -> np.ndarray:
        """Q with Q[s, j] the position of r_s*r_j*r_s^{-1}, r_j the j-th
        reflection: the oracle's one map of conjugation on reflections.  Row
        s carries the reflection bits b of a subgroup H to those of
        r_s^{-1}*H*r_s as b[Q[s]].  Column j reads r_j's table at every
        reflection, r_s*r_j, and row s moves those through the table of
        r_s^{-1}, 2R gathers of R entries each.  The inverses are looked up
        from the reflections' own rows, R rows and no table over G."""
        refl = self.reflections
        tables = self.reflection_tables
        inverses = self._positions(-self._A[refl[:, None], self._P[refl]] % self.m,
                                   self._PINV[refl], "inverse")
        products = np.empty((refl.size, refl.size), dtype=np.int64)
        for j, r in enumerate(refl.tolist()):
            products[:, j] = tables[r][refl]
        for s, r in enumerate(inverses.tolist()):
            products[s] = tables[r][products[s]]
        return np.searchsorted(refl, products)

    @cached_property
    def point_action(self) -> np.ndarray:
        """S with S[s, k*n + j] the point to which the s-th reflection sends
        the point z^k e_j: z^(k+a) e_pi(j), for its permutation pi and a its
        phase at pi(j).  The reflections permute these m*n points, and the
        parabolic stage reads the orbits of each class on them."""
        m, n, refl = self.m, self.n, self.reflections
        P = self._P[refl]
        phases = self._A[refl[:, None], P]
        images = (np.arange(m)[:, None] + phases[:, None]) % m * n + P[:, None]
        return images.reshape(len(P), m * n)

    def reflection_bits(self, refl_key: bytes) -> np.ndarray:
        """The boolean array over the reflections that refl_key packs (a
        fresh, writable array)."""
        return np.unpackbits(np.frombuffer(refl_key, np.uint8),
                             count=self.reflections.size).view(bool)

    def reflections_in(self, h: Subgroup) -> np.ndarray:
        """The element indices of the reflections in h, ascending."""
        return self.reflections[self.reflection_bits(h.refl_key)]

    def subgroup(self, member: np.ndarray) -> Subgroup:
        """The subgroup whose elements are True in member, a boolean array
        over the elements."""
        idx = member.nonzero()[0]
        return Subgroup(len(idx), _pack(member[self.reflections]), idx)

    @cached_property
    def reflection_tables(self) -> dict[int, np.ndarray]:
        """Right tables of every reflection, by index, derived from the
        generators, which are reflections.  Each generator g gets its table
        from its rows and its powers T[g^k] = T[g][T[g^(k-1)]]; these
        meet every G-class of reflections.  The classes are then walked
        under conjugation by the generators with right tables only: x*c*s*
        c^{-1} is x moved right by c, s and c^{-1} (the last power of c), so
        s' = c*s*c^{-1} is T[c^{-1}][T[s][c]], and only a new s' gathers its
        table, T[c^{-1}][T[s][T[c]]].  These are the group's only kept right
        tables (right_table reads them).  OracleConsistencyError unless
        every table belongs to a reflection and starts at it (T[s][0] is s),
        and every reflection gets one."""
        refl = set(self.reflections.tolist())
        tables: dict[int, np.ndarray] = {}

        def keep(s: int, tab: np.ndarray) -> np.ndarray:
            if s not in refl:
                raise OracleConsistencyError(
                    f"the table of element {s}, reached as a reflection, "
                    "is no reflection")
            if tab[0] != s:  # only a generator's: a derived table's s is its entry 0
                raise OracleConsistencyError(
                    f"the table of reflection {s} starts at {tab[0]}")
            tables[s] = tab
            return tab

        steps = []  # (c, T[c], T[c^{-1}]) per generator c
        for c in self.generators:
            t_c = tab = keep(c, self._table_from_element(self._A[c], self._P[c]))
            s = t_c.item(c)
            while s:  # c^k for k = 2, 3, ... up to the identity
                tab = keep(s, t_c[tab])
                s = t_c.item(s)
            steps.append((c, t_c, tab))
        stack = list(tables)
        while stack:
            t_s = tables[stack.pop()]
            for c, t_c, t_c_inv in steps:
                s = t_c_inv.item(t_s.item(c))
                if s not in tables:
                    keep(s, t_c_inv[t_s[t_c]])
                    stack.append(s)
        if len(tables) != len(refl):
            raise OracleConsistencyError(
                f"{len(refl) - len(tables)} reflections got no table")
        return tables

    @cached_property
    def generators(self) -> list[int]:
        """A generating set of reflections: the adjacent transpositions; for
        m > 1 and n > 1 the transposition of coordinates 0 and 1 with phases
        (1, -1); and diag(z^p, 1, ...), z = exp(2 pi i/m), unless p = m
        makes it the identity."""
        m, p, n = self.m, self.p, self.n
        twisted = m > 1 and n > 1
        A = np.zeros((n + twisted, n), dtype=np.int64)
        P = np.tile(np.arange(n), (len(A), 1))
        for i in range(n - 1):
            P[i, i:i + 2] = i + 1, i
        if twisted:
            P[n - 1, :2] = 1, 0
            A[n - 1, :2] = 1, m - 1
        A[-1, 0] = p % m
        return [g for g in self._positions(A, P, "generator").tolist() if g]

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """The generators' positions among the reflections."""
        return np.searchsorted(self.reflections, self.generators)

    @cached_property
    def lattice(self) -> tuple[OracleClass, ...]:
        """The classes of all reflection subgroups, by order and
        representative refl_key: the class objects that conjugacy_class
        cached for the subgroups all_reflection_subgroups finds on first
        read."""
        classes = {self._classes[h.refl_key] for h in all_reflection_subgroups(self)}
        return tuple(sorted(classes, key=lambda c: (c.order, c.representative.refl_key)))


def _pack(bits: np.ndarray) -> bytes:
    """The refl_key of a boolean array over the reflection positions."""
    return np.packbits(bits).tobytes()


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
        if labels.tobytes() == before.tobytes():
            return labels


def _generate_from(group: ConcreteGroup, base_idx: np.ndarray,
                   gen_tables: list[np.ndarray],
                   bound: int | None = None) -> tuple[np.ndarray, int] | None:
    """The closure of a subgroup (given by base_idx, which must already be
    closed) together with the generators behind gen_tables, which must
    include generators of the base subgroup: its boolean membership array
    over the elements and its order.  The oracle's only subgroup closure.

    Walks right cosets: a candidate coset H*t*g is new iff its
    representative index is unmarked, and its elements are one table
    gather away from the elements of H*t.  With a bound (at least |H|),
    the walk stops and returns None as soon as more than bound elements
    are marked: the closure then has more than bound elements, which
    callers choose so that Lagrange's theorem leaves one subgroup that
    large.
    """
    member = np.zeros(group.size, dtype=bool)
    member[base_idx] = True
    marked = coset_size = len(base_idx)
    limit = group.size if bound is None else bound  # no closure passes |G|
    # scalar reads go through memoryviews, which return Python ints and
    # bools several times faster than indexing the arrays
    is_member = member.data
    steps = [(table, table.data) for table in gen_tables]
    stack = [(0, base_idx)]
    pop, push = stack.pop, stack.append
    while stack:
        t, coset = pop()
        for table, entries in steps:
            x = entries[t]
            if not is_member[x]:
                new_coset = table[coset]
                member[new_coset] = True
                marked += coset_size
                if marked > limit:
                    return None
                push((x, new_coset))
    return member, marked


def generate_subgroup(group: ConcreteGroup, element_indices) -> Subgroup:
    """Subgroup generated by arbitrary elements (by index); the trivial
    subgroup when there are none.

    Adjoins the generators one at a time with _generate_from, as the
    lattice adjoins reflections; a generator already inside (the identity
    among them) is skipped."""
    member = np.zeros(group.size, dtype=bool)
    member[0] = True
    tables: list[np.ndarray] = []
    for i in element_indices:
        if not member[i]:
            tables.append(group.right_table(i))
            member = _generate_from(group, member.nonzero()[0], tables)[0]
    return group.subgroup(member)


def conjugacy_class(group: ConcreteGroup, h: Subgroup) -> OracleClass:
    """The class of all conjugates of h, a reflection subgroup (one
    generated by its reflections; its class is keyed by their mask).

    An orbit search of h's reflection bits under conjugation by the
    parent's generators, one level at a time: one gather of the reflection
    positions per generator over the whole frontier, then one pack.  The
    generators are reflections, and the reflection_action row of g carries
    the bits of F to those of g^{-1}*F*g; the inverses of the generators
    generate G as well, so these conjugates reach the whole class.  A new
    member holds only its mask and a weak reference to the group, and
    closes its reflections only if its elements are asked for.  Each class
    is found once per group: its OracleClass is cached under the refl_key
    of every member, and every later call for a member returns that same
    object."""
    cls = group._classes.get(h.refl_key)
    if cls is not None:
        return cls
    members = {h.refl_key: h}
    maps = group.reflection_action[group.generator_rows].ravel()
    frontier = group.reflection_bits(h.refl_key)[None, :]
    while maps.size:  # G(1,1,1) has no generators
        # row f*k + g, k generators: the bits of g^{-1}*F*g, F the f-th
        # frontier row (take is faster than fancy indexing on these small
        # 2-d arrays)
        images = frontier.take(maps, axis=1).reshape(-1, frontier.shape[1])
        packed = np.packbits(images, axis=1)
        width, blob = packed.shape[1], packed.tobytes()
        fresh = []
        for i in range(len(images)):
            key = blob[i * width:(i + 1) * width]
            if key not in members:
                members[key] = Subgroup(h.order, key, group=group)
                fresh.append(i)
        if not fresh:
            break
        frontier = images.take(fresh, axis=0)
    cls = OracleClass(tuple(members[key] for key in sorted(members)))
    for key in members:
        group._classes[key] = cls
    return cls


def all_reflection_subgroups(group: ConcreteGroup) -> list[Subgroup]:
    """Every subgroup generated by reflections.

    Closure BFS from the trivial subgroup over one representative per
    conjugacy class: adjoin one reflection to a representative and close.
    Since <gHg^{-1}, r> = g<H, g^{-1}rg>g^{-1} and g^{-1}rg is again a
    reflection, the closures of the representatives reach every class; a
    closure not seen before enters with its whole class.  For h in H,
    <H, hrh^{-1}> = <H, r>, so a representative closes only the first
    reflection of each H-orbit of the reflections outside it (the orbits
    under reflection_action's rows at the reflections that generate it).
    The trivial subgroup has normalizer G, so it closes only the first
    reflection of each G-class of reflections (the orbits under the rows at
    the generators).

    A closure is looked up by its reflection bits, member[refl]; only a
    closure that founds a new class has its element indices taken, since
    it is the base of later walks.

    Rules (1) and (2) of the module docstring cut the closures short: a
    walk past |G|/p elements is G, and a reflection of a K = <H,r> of
    prime index over H generates K with H, so its orbit is not closed.
    Both only skip work whose result is already known, so the subgroups
    and their order of admission do not change.  More than MAX_SUBGROUPS
    subgroups raise ResourceLimitError.
    """
    refl = group.reflections
    refl_tables = [group.reflection_tables[r] for r in refl.tolist()]
    action = group.reflection_action

    # One (representative, positions of the reflections generating it, its
    # reflection bits) per class; the loop below walks this list while
    # admit() appends to it, in BFS order.
    reps: list[tuple[Subgroup, tuple[int, ...], np.ndarray]] = []
    admitted: dict[OracleClass, None] = {}  # in order of admission
    count = 0

    def admit(h: Subgroup, gens: tuple[int, ...], bits: np.ndarray) -> None:
        nonlocal count
        cls = conjugacy_class(group, h)
        count += cls.size
        if count > MAX_SUBGROUPS:
            raise ResourceLimitError(
                f"more than {MAX_SUBGROUPS} reflection subgroups")
        admitted[cls] = None
        reps.append((h, gens, bits))

    trivial = np.zeros(group.size, dtype=bool)
    trivial[0] = True
    admit(group.subgroup(trivial), (), np.zeros(len(refl), dtype=bool))
    whole = group.subgroup(np.ones(group.size, dtype=bool))
    whole_bits = np.ones(len(refl), dtype=bool)
    positions = np.arange(len(refl))
    for rep, gens, rep_bits in reps:
        done = rep_bits.copy()  # reflections whose closure is known
        rows = list(gens) if gens else group.generator_rows
        first = orbit_labels(len(refl), action[rows])
        tables = [refl_tables[j] for j in gens]
        # [K:H] divides [G:H], so it is prime iff it is one of these
        primes = [q for q, _ in factorization(group.size // rep.order)]
        bound = group.size // primes[0] if primes else None
        for j in np.flatnonzero(~done & (first == positions)).tolist():
            if done[j]:
                continue
            walk = _generate_from(group, rep.idx, tables + [refl_tables[j]], bound)
            if walk is None:
                key, bits, order = whole.refl_key, whole_bits, group.size
            else:
                member, order = walk
                bits = member[refl]
                key = _pack(bits)
            if group._classes.get(key) not in admitted:
                h = whole if walk is None else group.subgroup(member)
                admit(h, gens + (j,), bits)
            if order // rep.order in primes:
                done |= bits
    return [h for cls in admitted for h in cls.members]


def reflection_subgroup_classes(group: ConcreteGroup) -> tuple[OracleClass, ...]:
    """Conjugacy classes of all reflection-generated subgroups: the
    group's lattice, which the first read computes and every later call
    returns as the same tuple."""
    return group.lattice


def _lattice_class(group: ConcreteGroup, h: Subgroup) -> OracleClass:
    """The lattice class under h's mask: the class of the subgroup that
    h's reflections generate.  Runs the lattice first if no stage has."""
    group.lattice  # the first read runs the lattice, which caches every class
    return group._classes[h.refl_key]


# ---------------------------------------------------------------------------
# Parabolic subgroups


def parabolic_classes(group: ConcreteGroup) -> list[OracleClass]:
    """The classes of parabolic subgroups, in lattice order.

    The parabolic subgroups are the fixers G_F of the flats F of the
    reflection arrangement, and each is generated by the reflections it
    contains (Steinberg 1964; Orlik-Terao 1992, ch. 6).  So a reflection
    subgroup H is parabolic exactly when its mask already holds every
    reflection that fixes Fix(H) pointwise, and conjugates agree: the stage
    keeps each lattice class whose representative passes, and reads no
    element.

    H permutes the m*n points z^k e_j (point_action).  A coordinate j is 0
    on Fix(H) when the orbit of e_j meets another z^k e_j, and Fix(H) is
    spanned by the sums of the orbits on the other coordinates.  A
    reflection fixes those sums exactly when it maps each such orbit onto
    itself: for i the first coordinate it moves, to the point z^a e_j, when
    e_i and z^a e_j share an orbit or i and j are both 0.

    The orbits of all classes come at once, as orbit_labels finds them: each
    pass lowers every point's label to the least label of its images under
    the identity and the class's reflections, and at the fixpoint each point
    holds the least point of its orbit.  The identity gives every class a
    first map, which marks where the class's maps start.  The element-level reference, tests/parabolic_reference.py,
    finds the same classes as the stabilizers of the elements' fixed
    spaces."""
    lattice = group.lattice
    m, n = group.m, group.n
    S = group.point_action
    keys = b"".join(c.representative.refl_key for c in lattice)
    # column 0 the identity, column 1 + s the s-th reflection
    uses = np.ones((len(lattice), len(S) + 1), dtype=bool)
    uses[:, 1:] = np.unpackbits(np.frombuffer(keys, np.uint8).reshape(len(lattice), -1),
                                axis=1, count=len(S))
    # row k of images: the images of the points under the k-th map used,
    # which belongs to class owner[k]; the rows of a class are adjacent
    owner, maps = uses.nonzero()
    images = np.concatenate([np.arange(m * n)[None], S])[maps]
    owner, starts = owner[:, None], np.flatnonzero(maps == 0)
    labels = np.minimum.reduceat(images, starts, axis=0)  # the first pass
    while True:
        lowered = np.minimum.reduceat(labels[owner, images], starts, axis=0)
        if lowered.tobytes() == labels.tobytes():
            break
        labels = lowered
    zero = (labels.reshape(-1, m, n) == labels[:, None, :n]).sum(axis=1) > 1
    i = (S[:, :n] != np.arange(n)).argmax(axis=1)
    image = S[np.arange(len(S)), i]
    fixes = (labels[:, i] == labels[:, image]) | (zero[:, i] & zero[:, image % n])
    closed = ~(fixes & ~uses[:, 1:]).any(axis=1)
    return [c for c, keep in zip(lattice, closed.tolist()) if keep]


# ---------------------------------------------------------------------------
# Minimal classes, Sylow construction, identification


def minimal_full_valuation(group: ConcreteGroup, classes: Iterable[OracleClass],
                           ell: int) -> list[OracleClass]:
    """Classes whose order has the full ell-valuation of |G| and none of
    whose members properly contain another such class member.

    Classes are closed under conjugation, so a member of one class lies in
    some member gAg^{-1} of another exactly when some member lies in A
    itself; only the representative A is tested.  The classes hold
    reflection subgroups, each generated by its reflections, so o lies in A
    exactly when o's reflections do: containment is tested on the masks."""
    g_val = nu(ell, group.size)
    full = [c for c in classes if nu(ell, c.order) == g_val]
    # the masks as integers: o lies in A iff o & ~A == 0
    members = [(c.order, int.from_bytes(o.refl_key, "big"))
               for c in full for o in c.members]
    minimal = []
    for c in full:
        outside = ~int.from_bytes(c.representative.refl_key, "big")
        if all(o & outside for order, o in members if order < c.order):
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
    rows: list[tuple] = []  # (phases, perm) of each generator

    c = m // ell_part(ell, m)
    ident = tuple(range(n))
    if c != m:
        rows.append(([c * ell_part(ell, p)] + [0] * (n - 1), ident))
        for i in range(n - 1):
            phases = [0] * n
            phases[i], phases[i + 1] = c, m - c
            rows.append((phases, ident))

    # Wreath towers over the blocks of lambda(ell, n), largest first.
    offset = 0
    for k in minimal_factorial_partition(ell, n):
        for t in range(1, nu(ell, k) + 1):
            width = ell**t
            perm = list(range(n))
            for j in range(width):
                perm[offset + j] = offset + (j + ell ** (t - 1)) % width
            rows.append(([0] * n, perm))
        offset += k

    A = np.array([a for a, _ in rows], dtype=np.int64).reshape(-1, n) % m
    P = np.array([perm for _, perm in rows], dtype=np.int64).reshape(-1, n)
    gens = group._positions(A, P, "Sylow generator").tolist()
    sylow = generate_subgroup(group, gens)
    expected = ell_part(ell, group.size)
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
    conjugation.  ValueError unless h is generated by its reflections and
    the blocks' orders m_i^n_i n_i!/p_i multiply to |h|.

    The reflections are read from h's mask.  They generate some K <= h,
    whose lattice class is the one under the same mask, so K = h exactly
    when that class's order is |h|.
    """
    n = group.n
    inside = group.reflections_in(h)
    if _lattice_class(group, h).order != h.order:
        raise ValueError("subgroup is not generated by its reflections")

    moved = group._P[inside] != np.arange(n)
    swapping = moved.any(axis=1)
    swaps_at = moved[swapping].sum(axis=0)  # swapping reflections moving each coordinate
    scales_at = (group._A[inside[~swapping]] != 0).sum(axis=0)
    # blocks: the orbits of the coordinates under the swapping reflections,
    # in order of their smallest coordinate (the label orbit_labels gives)
    blocks: dict[int, list[int]] = {}
    for i, label in enumerate(orbit_labels(n, group._P[inside[swapping]]).tolist()):
        blocks.setdefault(label, []).append(i)

    triples = []
    order = 1
    for block in blocks.values():
        size = len(block)
        q, r_scale = divmod(int(scales_at[block].sum()), size)
        m_i, r_swap = (divmod(int(swaps_at[block].sum()), size * (size - 1))
                       if size > 1 else (q + 1, 0))
        p_i, r_div = divmod(m_i, q + 1)
        if r_scale or r_swap or r_div:
            raise ValueError(f"reflection counts of block {block} "
                             "fit no G(m_i,p_i,n_i)")
        triples.append((m_i, p_i, size))
        order *= groups.order(groups.Imprimitive(m_i, p_i, size))
    if order != h.order:
        raise ValueError(f"blocks of order {order} do not make up |h| = {h.order}")
    return augmented_partition(triples, (group.m, group.p, n))
