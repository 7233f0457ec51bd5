"""The element-level reference for the oracle's parabolic stage.

oracle.parabolic_classes keeps the lattice classes whose masks are closed
under the reflection arrangement, and reads no element.  This module finds
the parabolic subgroups from their definition instead: every parabolic
subgroup is the pointwise stabilizer of the fixed space of one of its own
elements, and Fix(gxg^-1) = g Fix(x), so conjugate elements have conjugate
stabilizers and one element per conjugacy class is enough.  The element
classes come from orbit_labels under conjugation tables built here over
all of G; each distinct fixed space gets its stabilizer by exact phase
arithmetic over every element.
"""

from __future__ import annotations

import numpy as np

from sylowclass import oracle


def conjugation_tables(g) -> list[np.ndarray]:
    """Index tables of x -> c*x*c^{-1}, one per generator c of g.  With I
    the inversion table and T the right table of c^{-1}, that is
    I[T[I[T[x]]]]: x*c^{-1}, inverted to c*x^{-1}, times c^{-1}, inverted
    to c*x*c^{-1}."""
    inv = g._positions(-np.take_along_axis(g._A, g._P, axis=1) % g.m, g._PINV,
                       "inverse")
    tables = [g.right_table(inv.item(c)) for c in g.generators]
    return [inv[t[inv[t]]] for t in tables]


def pointwise_stabilizer(g, space: oracle.FixedSpace) -> oracle.Subgroup:
    """All elements fixing every basis vector of the space, by exact phase
    arithmetic mod m (vectorized over the whole group)."""
    m, n = g.m, g.n
    mask = np.ones(g.size, dtype=bool)
    for coords, exps in space.vectors:
        in_c = np.zeros(n, dtype=bool)
        in_c[list(coords)] = True
        xfull = np.zeros(n, dtype=np.int64)
        xfull[list(coords)] = exps
        for j, xj in zip(coords, exps):
            pre = g._PINV[:, j]
            mask &= in_c[pre] & ((g._A[:, j] + xfull[pre] - xj) % m == 0)
    return g.subgroup(mask)


def parabolic_reference(g) -> list[oracle.OracleClass]:
    """The lattice classes of {G_Fix(x) : x in G}, by order and
    representative mask: one stabilizer per distinct fixed space of an
    element class representative, matched by its mask to the lattice class
    of the subgroup its reflections generate.  That subgroup lies in the
    stabilizer, so the stabilizer is generated by its reflections
    (Steinberg's theorem) exactly when the two orders agree;
    OracleConsistencyError otherwise."""
    labels = oracle.orbit_labels(g.size, conjugation_tables(g))
    reps = np.flatnonzero(labels == np.arange(g.size))
    spaces = {}
    for phases, perm in zip(g._A[reps].tolist(), g._P[reps].tolist()):
        space = oracle._fixed_space(g.m, phases, perm)
        spaces.setdefault(space.vectors, space)
    classes = set()
    for space in spaces.values():
        stab = pointwise_stabilizer(g, space)
        cls = oracle._lattice_class(g, stab)
        if cls.order != stab.order:
            raise oracle.OracleConsistencyError(
                f"the stabilizer of {space.vectors} has {stab.order} elements, "
                f"but its reflections generate {cls.order}")
        classes.add(cls)
    return sorted(classes, key=lambda c: (c.order, c.representative.refl_key))
