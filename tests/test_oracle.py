import itertools
import random

import numpy as np
import pytest

from sylowclass import oracle, verify
from sylowclass.groups import (
    Imprimitive, Sym, alpha_class_count, degrees_imprimitive, order)
from sylowclass.oracle import (
    MonomialElement,
    ResourceLimitError,
    Subgroup,
    conjugacy_class,
    enumerate_group,
    fixed_space,
    generate_subgroup,
    identify_class,
    minimal_full_valuation,
    orbit_labels,
    parabolic_classes,
    pointwise_stabilizer,
    reflection_subgroup_classes,
    sylow_construct,
)
from sylowclass.valuation import nu, prime_factors


class TestEnumeration:
    def test_sizes(self):
        assert enumerate_group(3, 3, 2).size == 6
        assert enumerate_group(2, 1, 2).size == 8
        assert enumerate_group(1, 1, 3).size == 6

    def test_identity_first(self):
        g = enumerate_group(4, 2, 3)
        assert g.element(0).is_identity()

    def test_no_duplicates(self):
        g = enumerate_group(4, 2, 3)
        assert len({(e.phases, e.perm) for e in map(g.element, range(g.size))}) \
            == g.size == 192

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_group(6, 1, 5, order_cap=20000)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            enumerate_group(6, 4, 2)

    def test_index_of_rejects_non_member(self):
        g = enumerate_group(4, 2, 2)
        assert g.index_of(MonomialElement(4, (1, 1), (1, 0))) > 0
        # phase sum 1 is odd, so this is in G(4,1,2) but not in G(4,2,2)
        with pytest.raises(KeyError):
            g.index_of(MonomialElement(4, (1, 0), (0, 1)))
        with pytest.raises(KeyError):
            g.index_of(MonomialElement(4, (4, 0), (0, 1)))

    def test_membership_constraint(self):
        g = enumerate_group(6, 3, 2)
        for e in map(g.element, range(g.size)):
            assert sum(e.phases) % 3 == 0

    def test_closure_and_inverses_random(self):
        rng = random.Random(7)
        for m, p, n in [(2, 1, 2), (3, 3, 2), (4, 2, 3), (6, 3, 2)]:
            g = enumerate_group(m, p, n)
            for _ in range(1000):
                a = g.element(rng.randrange(g.size))
                b = g.element(rng.randrange(g.size))
                assert g.index_of(a.mul(b)) is not None
                assert a.mul(a.inv()).is_identity()

    def test_multiplication_is_matrix_composition(self):
        # check against explicit monomial matrices over the 12th roots
        import cmath

        def matrix(e):
            m = np.zeros((e.n, e.n), dtype=complex)
            for j in range(e.n):
                m[e.perm[j], j] = cmath.exp(
                    2j * cmath.pi * e.phases[e.perm[j]] / e.m)
            return m

        g = enumerate_group(4, 2, 2)
        rng = random.Random(1)
        for _ in range(50):
            a = g.element(rng.randrange(g.size))
            b = g.element(rng.randrange(g.size))
            assert np.allclose(matrix(a) @ matrix(b), matrix(a.mul(b)))


class TestReflectionsAndFixedSpaces:
    def test_counts(self):
        assert len(enumerate_group(2, 1, 2).reflection_indices()) == 4
        assert len(enumerate_group(3, 3, 2).reflection_indices()) == 3
        assert len(enumerate_group(1, 1, 3).reflection_indices()) == 3

    def test_reflection_count_matches_degrees(self):
        # number of reflections = sum of (d_i - 1) over the degrees
        for m in range(1, 7):
            for p in range(1, m + 1):
                if m % p:
                    continue
                for n in range(1, 5):
                    if order(Imprimitive(m, p, n)) < 2:
                        continue
                    g = enumerate_group(m, p, n, order_cap=40000)
                    expected = sum(d - 1 for d in degrees_imprimitive(m, p, n))
                    assert len(g.reflection_indices()) == expected, (m, p, n)

    def test_fixed_space_examples(self):
        assert fixed_space(MonomialElement(4, (0, 0, 0), (0, 1, 2))).dimension == 3
        e = MonomialElement(1, (0, 0, 0), (1, 0, 2))
        assert fixed_space(e).dimension == 2
        e = MonomialElement(4, (2, 0), (0, 1))
        assert fixed_space(e).dimension == 1

    def test_reflections_have_hyperplane_fixed_space(self):
        for m, p, n in [(2, 1, 2), (4, 2, 3), (3, 1, 3)]:
            g = enumerate_group(m, p, n)
            for r in g.reflection_indices():
                assert fixed_space(g.element(r)).dimension == n - 1

    def test_cycle_order_does_not_change_descriptor(self):
        # the 3-cycles (123) and (132) both fix exactly the diagonal line
        a = fixed_space(MonomialElement(1, (0, 0, 0), (1, 2, 0)))
        b = fixed_space(MonomialElement(1, (0, 0, 0), (2, 0, 1)))
        assert a == b


class TestStabilizers:
    def test_examples(self):
        g = enumerate_group(2, 1, 2)
        st = pointwise_stabilizer(g, fixed_space(MonomialElement(2, (1, 0), (0, 1))))
        assert st.order == 2
        identity = MonomialElement(2, (0, 0), (0, 1))
        assert pointwise_stabilizer(g, fixed_space(identity)).order == 1
        g3 = enumerate_group(1, 1, 3)
        st = pointwise_stabilizer(g3, fixed_space(MonomialElement(1, (0, 0, 0), (1, 0, 2))))
        assert st.order == 2

    def test_stabilizer_fixes_space(self):
        g = enumerate_group(4, 2, 2)
        for e in map(g.element, range(g.size)):
            space = fixed_space(e)
            st = pointwise_stabilizer(g, space)
            assert g.index_of(e) in set(st.idx.tolist())


class TestParabolicClasses:
    def test_example_counts(self):
        assert len(parabolic_classes(enumerate_group(2, 1, 2))) == 4
        assert len(parabolic_classes(enumerate_group(1, 1, 3))) == 3
        assert len(parabolic_classes(enumerate_group(3, 3, 2))) == 3

    def test_contains_trivial_and_whole(self):
        for m, p, n in [(2, 1, 2), (3, 1, 2), (4, 4, 3)]:
            g = enumerate_group(m, p, n)
            classes = parabolic_classes(g)
            orders = sorted(c.order for c in classes)
            assert orders[0] == 1
            assert orders[-1] == g.size

    def test_closed_under_intersection(self):
        # validates the flat-set assumption on a small grid
        for m, p, n in [(2, 1, 2), (3, 3, 2), (2, 2, 3), (4, 2, 2)]:
            g = enumerate_group(m, p, n)
            subs = {h.key: h.idx for c in parabolic_classes(g) for h in c.members}
            for a in subs.values():
                for b in subs.values():
                    assert np.intersect1d(a, b).tobytes() in subs

    def test_steinberg_regeneration(self):
        # every parabolic is generated by the reflections it contains
        for m, p, n in [(2, 1, 2), (1, 1, 4), (3, 3, 2), (4, 2, 2), (3, 1, 2)]:
            g = enumerate_group(m, p, n)
            refl = set(g.reflection_indices())
            for cls in parabolic_classes(g):
                h = cls.representative
                inside = [i for i in h.idx.tolist() if i in refl]
                if inside:
                    regen = generate_subgroup(g, inside)
                    assert regen.key == h.key
                else:
                    assert h.order == 1


class TestReflectionSubgroupClasses:
    def test_g212_lattice(self):
        g = enumerate_group(2, 1, 2)
        classes = reflection_subgroup_classes(g)
        assert len(classes) == 6
        assert sorted((c.order, c.size) for c in classes) == [
            (1, 1), (2, 2), (2, 2), (4, 1), (4, 1), (8, 1)]
        # the two order-4 classes: the diagonal sign group and G(2,2,2)
        labels = sorted(
            tuple((t.m, t.p, t.n) for t in identify_class(g, c.representative).triples)
            for c in classes if c.order == 4)
        assert labels == [((2, 1, 1), (2, 1, 1)), ((2, 2, 2),)]

    def test_sym3(self):
        assert len(reflection_subgroup_classes(enumerate_group(1, 1, 3))) == 3

    def test_subgroup_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SUBGROUPS", 10)
        with pytest.raises(ResourceLimitError):
            reflection_subgroup_classes(enumerate_group(2, 1, 3))

    def test_every_class_member_reflection_generated(self):
        g = enumerate_group(3, 3, 2)
        refl = set(g.reflection_indices())
        for cls in reflection_subgroup_classes(g):
            for h in cls.members:
                inside = [i for i in h.idx.tolist() if i in refl]
                regen = generate_subgroup(g, inside) if inside else None
                if regen is not None:
                    assert regen.key == h.key


class TestLatticeBruteForce:
    """The class-representative BFS against a search that uses neither the
    BFS nor the conjugation tables."""

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_classes_are_all_reflection_subgroups_up_to_conjugacy(self, mpn):
        g = enumerate_group(*mpn)
        refl = g.reflection_indices()
        expected = {generate_subgroup(g, list(subset)).key
                    for k in range(len(refl) + 1)
                    for subset in itertools.combinations(refl, k)}
        classes = reflection_subgroup_classes(g)
        members = [h.key for c in classes for h in c.members]
        assert len(members) == len(set(members))
        assert set(members) == expected

        elements = [g.element(i) for i in range(g.size)]
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        for cls in classes:
            rep = [elements[i] for i in cls.representative.idx]
            conjugates = set()
            for x in elements:
                x_inv = x.inv()
                conjugates.add(np.array(sorted(
                    index[(c.phases, c.perm)]
                    for c in (x.mul(h).mul(x_inv) for h in rep)),
                    dtype=np.int64).tobytes())
            assert {h.key for h in cls.members} == conjugates


class TestConjugacy:
    def test_transpositions_conjugate(self):
        g = enumerate_group(1, 1, 3)
        a = generate_subgroup(g, [g.index_of(MonomialElement(1, (0, 0, 0), (1, 0, 2)))])
        b = generate_subgroup(g, [g.index_of(MonomialElement(1, (0, 0, 0), (0, 2, 1)))])
        assert b.key in conjugacy_class(g, a)

    def test_diagonal_vs_transposition_not_conjugate(self):
        g = enumerate_group(2, 1, 2)
        diag = generate_subgroup(g, [g.index_of(MonomialElement(2, (1, 0), (0, 1)))])
        swap = generate_subgroup(g, [g.index_of(MonomialElement(2, (0, 0), (1, 0)))])
        assert swap.key not in conjugacy_class(g, diag)

    def test_self_conjugate(self):
        g = enumerate_group(3, 3, 2)
        h = generate_subgroup(g, [g.reflection_indices()[0]])
        assert h.key in conjugacy_class(g, h)


class TestMinimalFullValuation:
    def test_parabolic_whole_group(self):
        g = enumerate_group(4, 2, 3)
        minimal = minimal_full_valuation(g, parabolic_classes(g), 2)
        assert len(minimal) == 1
        assert minimal[0].order == g.size

    def test_reflection_g612(self):
        g = enumerate_group(6, 1, 2)
        minimal = minimal_full_valuation(g, reflection_subgroup_classes(g), 2)
        assert len(minimal) == 1
        assert minimal[0].order == 8
        assert identify_class(g, minimal[0].representative).group() == \
            Imprimitive(2, 1, 2)

    def test_parabolic_sym5(self):
        g = enumerate_group(1, 1, 5)
        minimal = minimal_full_valuation(g, parabolic_classes(g), 2)
        assert len(minimal) == 1
        assert minimal[0].order == 24
        assert identify_class(g, minimal[0].representative).group() == Sym(4)


class TestMinimalAgainstAllPairs:
    """The representative-only containment test against the definition,
    member by member, with Python sets."""

    @pytest.mark.parametrize(
        "mpn", [(4, 2, 2), (2, 1, 3), (6, 1, 2), (3, 3, 3), (1, 1, 5)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_matches_member_by_member_definition(self, mpn):
        g = enumerate_group(*mpn)
        for classes in (parabolic_classes(g), reflection_subgroup_classes(g)):
            for ell in prime_factors(g.size):
                full = [c for c in classes
                        if nu(ell, c.order) == nu(ell, g.size)]
                members = [(c, set(h.idx.tolist()))
                           for c in full for h in c.members]
                expected = [c for c in full if not any(
                    o < a for cc, a in members if cc is c for _, o in members)]
                assert minimal_full_valuation(g, classes, ell) == expected, ell


class TestSylowConstruct:
    def test_examples(self):
        assert sylow_construct(enumerate_group(2, 1, 2), 2).order == 8
        assert sylow_construct(enumerate_group(9, 3, 2), 3).order == 27

    def test_sym4_dihedral(self):
        g = enumerate_group(1, 1, 4)
        syl = sylow_construct(g, 2)
        assert syl.order == 8
        element_orders = sorted(
            _element_order(g.element(i)) for i in syl.idx.tolist())
        # dihedral of order 8: identity, five involutions, two 4-elements
        assert element_orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_orders_across_primes(self):
        for m, p, n in [(4, 2, 3), (6, 3, 2), (12, 6, 3), (1, 1, 6), (5, 5, 3)]:
            g = enumerate_group(m, p, n)
            for ell in prime_factors(g.size):
                assert sylow_construct(g, ell).order == ell ** nu(ell, g.size)


def _element_order(e):
    k = 1
    x = e
    while not x.is_identity():
        x = x.mul(e)
        k += 1
    return k


class TestIdentifyClass:
    def test_diagonal_sign_subgroup(self):
        g = enumerate_group(2, 1, 2)
        h = generate_subgroup(g, [
            g.index_of(MonomialElement(2, (1, 0), (0, 1))),
            g.index_of(MonomialElement(2, (0, 1), (0, 1))),
        ])
        assert h.order == 4
        delta = identify_class(g, h)
        assert [(t.m, t.p, t.n) for t in delta.triples] == [(2, 1, 1), (2, 1, 1)]

    def test_symmetric_inside_wreath(self):
        g = enumerate_group(6, 1, 3)
        h = generate_subgroup(g, [
            g.index_of(MonomialElement(6, (0, 0, 0), (1, 0, 2))),
            g.index_of(MonomialElement(6, (0, 0, 0), (0, 2, 1))),
        ])
        delta = identify_class(g, h)
        assert delta.group() == Sym(3)

    def test_g1263_minimal_members(self):
        g = enumerate_group(12, 6, 3)
        minimal = minimal_full_valuation(g, reflection_subgroup_classes(g), 2)
        assert len(minimal) == 3
        for cls in minimal:
            assert cls.order == 192
            delta = identify_class(g, cls.representative)
            assert [(t.m, t.p, t.n) for t in delta.triples] == [(4, 2, 3)]

    def test_whole_group_identifies_as_itself(self):
        g = enumerate_group(4, 2, 3)
        delta = identify_class(g, Subgroup(np.arange(g.size)))
        assert delta.group() == Imprimitive(4, 2, 3)

    def test_validation_rejects_non_reflection_subgroup(self):
        g = enumerate_group(1, 1, 4)
        four_cycle = generate_subgroup(
            g, [g.index_of(MonomialElement(1, (0,) * 4, (1, 2, 3, 0)))])
        assert four_cycle.order == 4
        with pytest.raises(ValueError):
            identify_class(g, four_cycle)


class TestLabelsOverClasses:
    """Labels of every class member, not only of representatives: twisted
    members are conjugates by elements that permute and rephase
    coordinates, so their reflection counts must give the same label."""

    @pytest.mark.parametrize(
        "mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 3), (6, 3, 2), (12, 6, 2), (2, 2, 4)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_members_share_label_and_labels_count_classes(self, mpn):
        g = enumerate_group(*mpn)
        classes_of: dict = {}
        for cls in reflection_subgroup_classes(g):
            delta = identify_class(g, cls.representative)
            for h in cls.members:
                assert identify_class(g, h) == delta
            classes_of[delta] = classes_of.get(delta, 0) + 1
        for delta, count in classes_of.items():
            assert count == alpha_class_count(delta), delta


class TestOrbitPathsAgainstDefinitions:
    """The orbit-label paths of the oracle against the per-element
    definitions they replace."""

    def test_reflection_indices_are_hyperplane_fixers(self):
        for m, p, n in verify.grid_points(order_cap=2000):
            g = enumerate_group(m, p, n)
            assert g.reflection_indices() == [
                i for i, sp in enumerate(g.fixed_spaces())
                if sp.dimension == n - 1], (m, p, n)

    @pytest.mark.parametrize(
        "mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4), (6, 3, 2)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_element_classes_are_conjugacy_classes(self, mpn):
        g = enumerate_group(*mpn)
        elements = [g.element(i) for i in range(g.size)]
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        labels = orbit_labels(g.size, g.conjugation_tables())
        for i, e in enumerate(elements):
            cls = {index[(c.phases, c.perm)]
                   for c in (x.mul(e).mul(x.inv()) for x in elements)}
            assert labels[i] == min(cls)
            assert set(np.flatnonzero(labels == labels[i]).tolist()) == cls

    def test_orbit_labels_without_maps(self):
        assert orbit_labels(4, []).tolist() == [0, 1, 2, 3]
        assert orbit_labels(5, [np.array([1, 2, 0, 4, 3])]).tolist() == \
            [0, 0, 0, 3, 3]

    @pytest.mark.parametrize(
        "mpn", [(4, 4, 3), (2, 1, 4), (3, 1, 3), (2, 2, 3), (1, 1, 5),
                (6, 3, 2), (4, 2, 3), (3, 3, 4)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_parabolic_classes_per_distinct_fixed_space(self, mpn):
        g = enumerate_group(*mpn)
        spaces = {sp.vectors: sp for sp in g.fixed_spaces()}
        known: set = set()
        expected = []
        for sp in spaces.values():
            h = pointwise_stabilizer(g, sp)
            if h.key not in known:
                orbit = conjugacy_class(g, h)
                known.update(orbit)
                expected.append((h.order, len(orbit), sorted(orbit)))
        got = [(c.order, c.size, [h.key for h in c.members])
               for c in parabolic_classes(g)]
        assert len(got) == len(expected)
        assert sorted(got) == sorted(expected)

    def test_generate_subgroup_matches_coset_walk(self):
        rng = random.Random(11)
        for m, p, n in [(2, 1, 3), (4, 2, 3), (3, 3, 3), (1, 1, 5), (6, 3, 2)]:
            g = enumerate_group(m, p, n)
            for k in range(5):
                gens = [rng.randrange(g.size) for _ in range(k)]
                tables = [g.right_table(i) for i in gens]
                expected = oracle._generate_from(g, np.array([0], dtype=np.int64), tables)
                got = generate_subgroup(g, gens)
                assert got.key == expected.tobytes(), (m, p, n, gens)
                assert got.idx.dtype == np.int64

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 3)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_lattice_closes_once_per_orbit_of_outside_reflections(
            self, mpn, monkeypatch):
        calls = []
        walk = oracle._generate_from

        def counted(*args):
            calls.append(1)
            return walk(*args)

        monkeypatch.setattr(oracle, "_generate_from", counted)
        g = enumerate_group(*mpn)
        classes = reflection_subgroup_classes(g)
        monkeypatch.undo()

        elements = [g.element(i) for i in range(g.size)]
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        refl = g.reflection_indices()
        orbits = 0
        for cls in classes:
            inside = set(cls.representative.idx.tolist())
            members = [elements[i] for i in sorted(inside)]
            orbits += len({
                frozenset(index[(c.phases, c.perm)]
                          for c in (x.mul(elements[r]).mul(x.inv()) for x in members))
                for r in refl if r not in inside})
        assert len(calls) == orbits
