import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from sylowclass import oracle, verify
from sylowclass.groups import (
    Imprimitive, Sym, alpha_class_count, degrees_imprimitive, order)
from sylowclass.oracle import (
    ResourceLimitError,
    Subgroup,
    conjugacy_class,
    enumerate_group,
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

from monomial import (
    Element, all_elements, element, fixed_space, index_of, inv, is_identity, mul)


def _elements(h):
    """The bytes of h's sorted element indices: a hashable fingerprint of the
    subgroup itself, where refl_key fingerprints only its reflections."""
    return h.idx.tobytes()


class TestEnumeration:
    def test_sizes(self):
        assert enumerate_group(3, 3, 2).size == 6
        assert enumerate_group(2, 1, 2).size == 8
        assert enumerate_group(1, 1, 3).size == 6

    def test_identity_first(self):
        g = enumerate_group(4, 2, 3)
        assert is_identity(element(g, 0))

    def test_no_duplicates(self):
        g = enumerate_group(4, 2, 3)
        assert len({(e.phases, e.perm) for e in all_elements(g)}) \
            == g.size == 192

    def test_index_is_the_lexicographic_rank(self):
        # G(1,1,8) has the grid's longest Lehmer rank, G(2,1,6) a long one
        # next to phases
        for mpn in verify.grid_points(order_cap=1000) + [(1, 1, 8), (2, 1, 6)]:
            g = enumerate_group(*mpn, order_cap=50000)
            assert np.array_equal(g._positions(g._A, g._P, "row"),
                                  np.arange(g.size)), mpn
            # consecutive (phases, permutation) rows increase strictly in
            # lexicographic order: the first nonzero difference is positive
            steps = np.diff(np.hstack([g._A, g._P]), axis=0)
            first = (steps != 0).argmax(axis=1)
            assert (steps[np.arange(len(steps)), first] > 0).all(), mpn

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_group(6, 1, 5, order_cap=20000)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            enumerate_group(6, 4, 2)

    def test_positions_reject_rows_outside_the_group(self):
        g = enumerate_group(4, 2, 2)
        inside = g._positions(np.array([[1, 1]]), np.array([[1, 0]]), "row")
        assert inside.tolist() == [index_of(g, Element(4, (1, 1), (1, 0)))]
        # phase sum 1 is odd, so this is in G(4,1,2) but not in G(4,2,2)
        with pytest.raises(oracle.OracleConsistencyError, match="row left the group"):
            g._positions(np.array([[1, 1], [1, 0]]), np.array([[1, 0], [0, 1]]), "row")
        # phases outside [0, m), with phase sums 4 and 0, both even
        for phases in ([4, 0], [-1, 1]):
            with pytest.raises(oracle.OracleConsistencyError,
                               match="row left the group"):
                g._positions(np.array([phases]), np.array([[1, 0]]), "row")

    def test_membership_constraint(self):
        g = enumerate_group(6, 3, 2)
        for e in all_elements(g):
            assert sum(e.phases) % 3 == 0

    def test_closure_and_inverses_random(self):
        rng = random.Random(7)
        for m, p, n in [(2, 1, 2), (3, 3, 2), (4, 2, 3), (6, 3, 2)]:
            g = enumerate_group(m, p, n)
            for _ in range(1000):
                a = element(g, rng.randrange(g.size))
                b = element(g, rng.randrange(g.size))
                assert index_of(g, mul(a, b)) is not None
                assert is_identity(mul(a, inv(a)))

    def test_multiplication_is_matrix_composition(self):
        # check against explicit monomial matrices over the 12th roots
        import cmath

        def matrix(e):
            n = len(e.perm)
            m = np.zeros((n, n), dtype=complex)
            for j in range(n):
                m[e.perm[j], j] = cmath.exp(
                    2j * cmath.pi * e.phases[e.perm[j]] / e.m)
            return m

        g = enumerate_group(4, 2, 2)
        rng = random.Random(1)
        for _ in range(50):
            a = element(g, rng.randrange(g.size))
            b = element(g, rng.randrange(g.size))
            assert np.allclose(matrix(a) @ matrix(b), matrix(mul(a, b)))


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
        assert len(fixed_space(Element(4, (0, 0, 0), (0, 1, 2))).vectors) == 3
        e = Element(1, (0, 0, 0), (1, 0, 2))
        assert len(fixed_space(e).vectors) == 2
        e = Element(4, (2, 0), (0, 1))
        assert len(fixed_space(e).vectors) == 1

    def test_reflections_have_hyperplane_fixed_space(self):
        for m, p, n in [(2, 1, 2), (4, 2, 3), (3, 1, 3)]:
            g = enumerate_group(m, p, n)
            for r in g.reflection_indices():
                assert len(fixed_space(element(g, r)).vectors) == n - 1

    @pytest.mark.parametrize("mpn", [(3, 1, 3), (4, 2, 3), (2, 2, 4)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_fixed_space_meets_its_definition(self, mpn):
        # one vector per cycle of phase sum 0 mod m, with coefficients
        # zeta^exps on its support: x.v = v under the monomial action
        # e_c -> zeta^phases[perm[c]] e_perm[c], and the first exponent is 0
        g = enumerate_group(*mpn)
        m = g.m
        for e, space in zip(all_elements(g), g.fixed_spaces()):
            cycles, seen = [], set()
            for start in range(len(e.perm)):
                cycle, c = [], start
                while c not in seen:
                    seen.add(c)
                    cycle.append(c)
                    c = e.perm[c]
                if cycle and sum(e.phases[c] for c in cycle) % m == 0:
                    cycles.append(tuple(sorted(cycle)))
            assert sorted(coords for coords, _ in space.vectors) == sorted(cycles), e
            for coords, exps in space.vectors:
                assert exps[0] == 0, e
                x = dict(zip(coords, exps))
                for c in coords:
                    assert x[e.perm[c]] == (x[c] + e.phases[e.perm[c]]) % m, e

    def test_cycle_order_does_not_change_descriptor(self):
        # the 3-cycles (123) and (132) both fix exactly the diagonal line
        a = fixed_space(Element(1, (0, 0, 0), (1, 2, 0)))
        b = fixed_space(Element(1, (0, 0, 0), (2, 0, 1)))
        assert a == b


class TestStabilizers:
    def test_examples(self):
        g = enumerate_group(2, 1, 2)
        st = pointwise_stabilizer(g, fixed_space(Element(2, (1, 0), (0, 1))))
        assert st.order == 2
        identity = Element(2, (0, 0), (0, 1))
        assert pointwise_stabilizer(g, fixed_space(identity)).order == 1
        g3 = enumerate_group(1, 1, 3)
        st = pointwise_stabilizer(g3, fixed_space(Element(1, (0, 0, 0), (1, 0, 2))))
        assert st.order == 2

    def test_stabilizer_fixes_space(self):
        g = enumerate_group(4, 2, 2)
        for e in all_elements(g):
            space = fixed_space(e)
            st = pointwise_stabilizer(g, space)
            assert index_of(g, e) in set(st.idx.tolist())


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
            subs = {_elements(h): h.idx
                    for c in parabolic_classes(g) for h in c.members}
            for a in subs.values():
                for b in subs.values():
                    assert np.intersect1d(a, b).tobytes() in subs

    @pytest.mark.parametrize("lattice_first", [True, False],
                             ids=["lattice first", "parabolic first"])
    def test_stabilizer_not_generated_by_its_reflections_is_caught(
            self, monkeypatch, lattice_first):
        # S3 x <-1> in G(2,1,3) has the reflections of S3, the stabilizer of
        # the diagonal line, and twice its order
        g = enumerate_group(2, 1, 3)
        s3 = [index_of(g, Element(2, (0, 0, 0), (1, 0, 2))),
              index_of(g, Element(2, (0, 0, 0), (0, 2, 1)))]
        minus_one = index_of(g, Element(2, (1, 1, 1), (0, 1, 2)))
        corrupted = generate_subgroup(g, s3 + [minus_one])
        honest = oracle.pointwise_stabilizer

        def stabilizer(group, space):
            h = honest(group, space)
            honest_s3 = _elements(generate_subgroup(g, s3))
            return corrupted if _elements(h) == honest_s3 else h

        monkeypatch.setattr(oracle, "pointwise_stabilizer", stabilizer)
        if lattice_first:
            reflection_subgroup_classes(g)
        with pytest.raises(oracle.OracleConsistencyError,
                           match="has 12 elements, but its reflections generate 6"):
            parabolic_classes(g)

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
                    assert _elements(regen) == _elements(h)
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
                    assert _elements(regen) == _elements(h)


class TestLatticeBruteForce:
    """The class-representative BFS against a search that uses neither the
    BFS nor the conjugation tables."""

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_classes_are_all_reflection_subgroups_up_to_conjugacy(self, mpn):
        g = enumerate_group(*mpn)
        refl = g.reflection_indices()
        expected = {_elements(generate_subgroup(g, list(subset)))
                    for k in range(len(refl) + 1)
                    for subset in itertools.combinations(refl, k)}
        classes = reflection_subgroup_classes(g)
        members = [_elements(h) for c in classes for h in c.members]
        assert len(members) == len(set(members))
        assert set(members) == expected

        elements = all_elements(g)
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        for cls in classes:
            rep = [elements[i] for i in cls.representative.idx]
            conjugates = set()
            for x in elements:
                x_inv = inv(x)
                conjugates.add(np.array(sorted(
                    index[(c.phases, c.perm)]
                    for c in (mul(mul(x, h), x_inv) for h in rep)),
                    dtype=np.int64).tobytes())
            assert {_elements(h) for h in cls.members} == conjugates

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_keyed_classes_are_conjugates_of_reflection_subsets(self, mpn):
        # with monomial products and Python sets only: every subset
        # of the reflections generates a subgroup, each x*h*x^-1 conjugates
        # it, and a subgroup's mask is the set of reflections it contains
        g = enumerate_group(*mpn)
        refl = g.reflection_indices()
        elements = all_elements(g)
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        subgroups = {}  # frozenset of reflections -> frozenset of elements
        for k in range(len(refl) + 1):
            for subset in itertools.combinations(refl, k):
                h = frozenset(np.frombuffer(_brute_force_closure(g, subset),
                                            np.int64).tolist())
                subgroups[frozenset(r for r in refl if r in h)] = h
        classes = reflection_subgroup_classes(g)
        members = [h for c in classes for h in c.members]
        assert len({h.refl_key for h in members}) == len(members) == len(subgroups)
        for cls in classes:
            rep = [elements[i] for i in cls.representative.idx]
            conjugates = {frozenset(index[(c.phases, c.perm)]
                                    for c in (mul(mul(x, y), inv(x)) for y in rep))
                          for x in elements}
            assert cls.size == len(conjugates)
            for h in cls.members:
                inside = frozenset(g.reflections_in(h).tolist())
                assert frozenset(h.idx.tolist()) == subgroups[inside]
                assert subgroups[inside] in conjugates
                assert h.order == len(subgroups[inside])


def _member_keys(cls):
    return [_elements(h) for h in cls.members]


class TestConjugacy:
    def test_transpositions_conjugate(self):
        g = enumerate_group(1, 1, 3)
        a = generate_subgroup(g, [index_of(g, Element(1, (0, 0, 0), (1, 0, 2)))])
        b = generate_subgroup(g, [index_of(g, Element(1, (0, 0, 0), (0, 2, 1)))])
        assert _elements(b) in _member_keys(conjugacy_class(g, a))

    def test_diagonal_vs_transposition_not_conjugate(self):
        g = enumerate_group(2, 1, 2)
        diag = generate_subgroup(g, [index_of(g, Element(2, (1, 0), (0, 1)))])
        swap = generate_subgroup(g, [index_of(g, Element(2, (0, 0), (1, 0)))])
        assert _elements(swap) not in _member_keys(conjugacy_class(g, diag))

    def test_self_conjugate(self):
        g = enumerate_group(3, 3, 2)
        h = generate_subgroup(g, [g.reflection_indices()[0]])
        assert _elements(h) in _member_keys(conjugacy_class(g, h))


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
            _element_order(element(g, i)) for i in syl.idx.tolist())
        # dihedral of order 8: identity, five involutions, two 4-elements
        assert element_orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_orders_across_primes(self):
        for m, p, n in [(4, 2, 3), (6, 3, 2), (12, 6, 3), (1, 1, 6), (5, 5, 3)]:
            g = enumerate_group(m, p, n)
            for ell in prime_factors(g.size):
                assert sylow_construct(g, ell).order == ell ** nu(ell, g.size)

    def test_generator_outside_the_group_fails_the_sylow_check(self, monkeypatch):
        # with the 2-part of p read as 1, the recipe's diagonal generator
        # diag(z^2, 1) of G(4,2,2) becomes diag(z, 1), whose phase sum is odd
        g = enumerate_group(4, 2, 2)
        parab, refl = parabolic_classes(g), reflection_subgroup_classes(g)
        real_ell_part = oracle.ell_part
        monkeypatch.setattr(oracle, "ell_part",
                            lambda ell, x: 1 if x == g.p else real_ell_part(ell, x))
        with pytest.raises(oracle.OracleConsistencyError,
                           match="Sylow generator left the group"):
            sylow_construct(g, 2)
        checks = verify._check_prime(g, Imprimitive(4, 2, 2), parab, refl, 2, {})
        assert (checks[-1].name, checks[-1].passed) == ("sylow", False)
        assert "left the group" in checks[-1].detail


def _element_order(e):
    k = 1
    x = e
    while not is_identity(x):
        x = mul(x, e)
        k += 1
    return k


class TestIdentifyClass:
    def test_diagonal_sign_subgroup(self):
        g = enumerate_group(2, 1, 2)
        h = generate_subgroup(g, [
            index_of(g, Element(2, (1, 0), (0, 1))),
            index_of(g, Element(2, (0, 1), (0, 1))),
        ])
        assert h.order == 4
        delta = identify_class(g, h)
        assert [(t.m, t.p, t.n) for t in delta.triples] == [(2, 1, 1), (2, 1, 1)]

    def test_symmetric_inside_wreath(self):
        g = enumerate_group(6, 1, 3)
        h = generate_subgroup(g, [
            index_of(g, Element(6, (0, 0, 0), (1, 0, 2))),
            index_of(g, Element(6, (0, 0, 0), (0, 2, 1))),
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
        delta = identify_class(g, g.subgroup(np.ones(g.size, dtype=bool)))
        assert delta.group() == Imprimitive(4, 2, 3)

    def test_validation_rejects_non_reflection_subgroup(self):
        g = enumerate_group(1, 1, 4)
        four_cycle = generate_subgroup(
            g, [index_of(g, Element(1, (0,) * 4, (1, 2, 3, 0)))])
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


def _brute_force_closure(g, gens) -> bytes:
    """The key of the subgroup generated by gens, from products of
    monomial elements until no new element appears."""
    elements = {element(g, 0)}
    frontier = list(elements)
    generators = [element(g, i) for i in gens]
    while frontier:
        new = {mul(x, y) for x in frontier for y in generators} - elements
        elements |= new
        frontier = list(new)
    return np.array(sorted(index_of(g, e) for e in elements), dtype=np.int64).tobytes()


class TestOrbitPathsAgainstDefinitions:
    """The orbit-label paths of the oracle against the per-element
    definitions they replace."""

    def test_reflection_indices_are_hyperplane_fixers(self):
        for m, p, n in verify.grid_points(order_cap=2000):
            g = enumerate_group(m, p, n)
            assert g.reflection_indices() == [
                i for i, sp in enumerate(g.fixed_spaces())
                if len(sp.vectors) == n - 1], (m, p, n)

    @pytest.mark.parametrize(
        "mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4), (6, 3, 2)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_element_classes_are_conjugacy_classes(self, mpn):
        g = enumerate_group(*mpn)
        elements = all_elements(g)
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        labels = orbit_labels(g.size, g.conjugation_tables)
        for i, e in enumerate(elements):
            cls = {index[(c.phases, c.perm)]
                   for c in (mul(mul(x, e), inv(x)) for x in elements)}
            assert labels[i] == min(cls)
            assert set(np.flatnonzero(labels == labels[i]).tolist()) == cls

    def test_orbit_labels_fixed_points_are_the_distinct_labels(self):
        for mpn in [(2, 1, 3), (3, 3, 3), (4, 2, 3)]:
            g = enumerate_group(*mpn)
            labels = orbit_labels(g.size, g.conjugation_tables)
            assert np.array_equal(np.flatnonzero(labels == np.arange(g.size)),
                                  np.unique(labels))

    def test_shephard_todd_identity(self):
        # sum over g of t^dim Fix(g) = t^(n-k) * prod (t + d_i - 1) over the
        # k degrees d_i > 1 (Shephard-Todd 1954), with one fixed space per
        # element class, weighted by the class size
        for m, p, n in verify.grid_points():
            g = enumerate_group(m, p, n)
            sizes = np.bincount(orbit_labels(g.size, g.conjugation_tables))
            got = [0] * (n + 1)  # coefficient of t^d at index d
            for x in np.flatnonzero(sizes).tolist():
                got[len(fixed_space(element(g, x)).vectors)] += int(sizes[x])
            degrees = degrees_imprimitive(m, p, n)
            want = [0] * (n - len(degrees)) + [1]
            for d in degrees:
                want = [(d - 1) * c + low for c, low in zip(want + [0], [0] + want)]
            assert got == want, (m, p, n)

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
            if _elements(h) not in known:
                keys = _member_keys(conjugacy_class(g, h))
                known.update(keys)
                expected.append((h.order, len(keys), sorted(keys)))
        got = [(c.order, c.size, sorted(_elements(h) for h in c.members))
               for c in parabolic_classes(g)]
        assert len(got) == len(expected)
        assert sorted(got) == sorted(expected)

    def test_generate_subgroup_matches_brute_force_closure(self):
        rng = random.Random(11)
        for m, p, n in [(2, 1, 3), (4, 2, 3), (3, 3, 3), (1, 1, 5), (6, 3, 2)]:
            g = enumerate_group(m, p, n)
            for k in range(5):
                for _ in range(4):
                    gens = [rng.randrange(g.size) for _ in range(k)]
                    if k >= 2:
                        # the identity, a repeat, or the square of gens[0]
                        gens[rng.randrange(1, k)] = rng.choice(
                            [0, gens[0], int(g.right_table(gens[0])[gens[0]])])
                    got = generate_subgroup(g, gens)
                    assert _elements(got) == _brute_force_closure(g, gens), \
                        (m, p, n, gens)
                    assert got.idx.dtype == np.int64

    @pytest.mark.parametrize("mpn, skips", [
        pytest.param(mpn, skips, id="G(%d,%d,%d)" % mpn)
        for mpn, skips in [((2, 1, 3), False), ((3, 3, 3), False), ((4, 2, 3), False),
                           ((6, 1, 2), True), ((16, 1, 2), True)]])
    def test_lattice_closes_once_per_orbit_of_outside_reflections(
            self, mpn, skips, monkeypatch):
        calls = []
        walk = oracle._generate_from

        def counted(*args):
            calls.append(1)
            return walk(*args)

        monkeypatch.setattr(oracle, "_generate_from", counted)
        g = enumerate_group(*mpn)
        classes = reflection_subgroup_classes(g)
        monkeypatch.undo()

        elements = all_elements(g)
        index = {(e.phases, e.perm): i for i, e in enumerate(elements)}
        refl = g.reflection_indices()
        orbits = closures = 0
        for cls in classes:
            inside = set(cls.representative.idx.tolist())
            inside_refl = [r for r in refl if r in inside]
            # the trivial subgroup closes one reflection per G-class (its
            # normalizer is G), every other one per H-orbit
            members = elements if cls.order == 1 else [
                elements[i] for i in sorted(inside)]
            reps = {min(index[(c.phases, c.perm)]
                        for c in (mul(mul(x, elements[r]), inv(x)) for x in members))
                    for r in refl if r not in inside}
            orbits += len(reps)
            # An orbit whose closure K has prime index over H is closed only
            # if no earlier orbit closed to K: every reflection of K outside
            # H generates K with H.
            prime_index = set()
            for r in reps:
                k = generate_subgroup(g, inside_refl + [r])
                k_index = k.order // cls.order
                if prime_factors(k_index) != [k_index]:
                    closures += 1
                elif _elements(k) not in prime_index:
                    prime_index.add(_elements(k))
                    closures += 1
        assert len(calls) == closures
        assert (closures < orbits) == skips


class _CountedTable(np.ndarray):
    """A right table that counts its whole-coset gathers."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            _CountedTable.gathers += 1
        return np.asarray(self).__getitem__(key)


def _plain_lattice(g):
    """Every reflection subgroup in order of admission, by a BFS over class
    representatives that closes every reflection outside each one with the
    unbounded walk: no orbit reduction, no Lagrange bound, no skips."""
    found: dict = {}
    reps = []

    def admit(h, gens):
        found.update((_elements(m), m) for m in conjugacy_class(g, h).members)
        reps.append((h, gens))

    admit(generate_subgroup(g, []), ())
    for rep, gens in reps:
        inside = set(rep.idx.tolist())
        tables = [g.right_table(s) for s in gens]
        for r in g.reflection_indices():
            if r not in inside:
                member, _ = oracle._generate_from(
                    g, rep.idx, tables + [g.right_table(r)])
                h = g.subgroup(member)
                if _elements(h) not in found:
                    admit(h, gens + (r,))
    return list(found.values())


class TestLagrangeBounds:
    """The bounded closure walk and the two rules that use it."""

    def test_bounded_walk_returns_none_exactly_past_the_bound(self):
        rng = random.Random(5)
        for m, p, n in [(2, 1, 3), (4, 2, 3), (3, 3, 3), (1, 1, 5), (6, 1, 2)]:
            g = enumerate_group(m, p, n)
            refl = g.reflection_indices()
            for _ in range(6):
                gens = rng.sample(refl, rng.randrange(3))
                base = generate_subgroup(g, gens)
                extra = [rng.randrange(g.size) for _ in range(rng.randrange(1, 3))]
                tables = [g.right_table(i) for i in gens + extra]
                full, size = oracle._generate_from(g, base.idx, tables)
                assert size == full.sum()
                for bound in sorted({base.order, size // 2, size - 1,
                                     size, size + 1, g.size}):
                    if bound < base.order:
                        continue
                    got = oracle._generate_from(g, base.idx, tables, bound)
                    if size > bound:
                        assert got is None, (m, p, n, bound)
                    else:
                        assert np.array_equal(got[0], full), (m, p, n, bound)
                        assert got[1] == size, (m, p, n, bound)

    def test_bounded_walk_stops_at_the_first_coset_past_the_bound(self):
        g = enumerate_group(4, 1, 3)
        r = g.reflection_indices()[0]
        base = generate_subgroup(g, [r])
        tables = [g.right_table(i).view(_CountedTable)
                  for i in [r] + g.generators]
        _CountedTable.gathers = 0
        assert oracle._generate_from(g, base.idx, tables, base.order) is None
        assert _CountedTable.gathers == 1
        _CountedTable.gathers = 0
        member, size = oracle._generate_from(g, base.idx, tables)
        assert size == g.size and member.all()
        assert _CountedTable.gathers == g.size // base.order - 1

    def test_lattice_equals_plain_bfs_up_to_order_2000(self):
        for mpn in verify.grid_points(order_cap=2000):
            plain_group, g = enumerate_group(*mpn), enumerate_group(*mpn)
            plain = _plain_lattice(plain_group)
            assert [_elements(h) for h in oracle.all_reflection_subgroups(g)] == \
                [_elements(h) for h in plain], mpn
            classes = {conjugacy_class(plain_group, h): None for h in plain}
            expected = sorted(((c.order, sorted(h.refl_key for h in c.members))
                               for c in classes),
                              key=lambda entry: (entry[0], entry[1][0]))
            assert [(c.order, [h.refl_key for h in c.members])
                    for c in reflection_subgroup_classes(g)] == expected, mpn

    def test_reflections_generating_a_subgroup_of_index_2_are_caught(self):
        # S3 x <-1> in G(2,1,3): its reflections generate S3, of index 2, and
        # the lattice class under its mask is S3's
        g = enumerate_group(2, 1, 3)
        h = generate_subgroup(g, [
            index_of(g, Element(2, (0, 0, 0), (1, 0, 2))),
            index_of(g, Element(2, (0, 0, 0), (0, 2, 1))),
            index_of(g, Element(2, (1, 1, 1), (0, 1, 2)))])
        assert h.order == 12
        with pytest.raises(ValueError, match="not generated by its reflections"):
            identify_class(g, h)


def _class_signatures(classes):
    return [(c.order, c.size, _elements(c.representative)) for c in classes]


class TestReuseWithinAGroup:
    """The per-group caches: derived reflection tables, and conjugacy classes
    shared between the lattice and the parabolic stage."""

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (1, 1, 5), (4, 2, 2)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_classes_do_not_depend_on_stage_order(self, mpn):
        # each group is kept while its members' elements are read: a class
        # member holds only a weak reference to its group
        parab_only, refl_only = enumerate_group(*mpn), enumerate_group(*mpn)
        parab = _class_signatures(parabolic_classes(parab_only))
        refl = _class_signatures(reflection_subgroup_classes(refl_only))
        first_parab = enumerate_group(*mpn)
        got_parab = _class_signatures(parabolic_classes(first_parab))
        got_refl = _class_signatures(reflection_subgroup_classes(first_parab))
        assert (got_parab, got_refl) == (parab, refl)
        first_refl = enumerate_group(*mpn)
        got_refl = _class_signatures(reflection_subgroup_classes(first_refl))
        got_parab = _class_signatures(parabolic_classes(first_refl))
        assert (got_parab, got_refl) == (parab, refl)

    @pytest.mark.parametrize("lattice_first", [True, False],
                             ids=["lattice first", "parabolic first"])
    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_the_lattice_runs_once_per_group(self, monkeypatch, mpn, lattice_first):
        reference = enumerate_group(*mpn)
        refl = _class_signatures(reflection_subgroup_classes(reference))
        parab = parabolic_classes(reference)
        labels = [identify_class(reference, c.representative) for c in parab]
        parab = _class_signatures(parab)

        calls = []
        lattice = oracle.all_reflection_subgroups

        def counted(group):
            calls.append(group)
            return lattice(group)

        monkeypatch.setattr(oracle, "all_reflection_subgroups", counted)
        g = enumerate_group(*mpn)
        if lattice_first:
            first = reflection_subgroup_classes(g)
            got_parab = parabolic_classes(g)
        else:
            got_parab = parabolic_classes(g)
            first = reflection_subgroup_classes(g)
        got_labels = [identify_class(g, c.representative) for c in got_parab]
        again = reflection_subgroup_classes(g)
        assert calls == [g]
        assert isinstance(first, tuple) and again is first
        assert _class_signatures(first) == refl
        assert _class_signatures(got_parab) == parab
        assert got_labels == labels

    @pytest.mark.parametrize("mpn", [(1, 1, 4), (3, 3, 3), (4, 2, 3), (6, 1, 2)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_reflection_tables_match_tables_built_from_elements(self, mpn):
        g = enumerate_group(*mpn)
        tables = g.reflection_tables
        assert sorted(tables) == g.reflection_indices()
        for r, table in tables.items():
            expected = g._table_from_element(g._A[r], g._P[r])
            assert np.array_equal(table, expected), r
            assert g.right_table(r) is table

    def test_corrupted_derived_table_is_caught(self, monkeypatch):
        g = enumerate_group(3, 1, 3)
        # diag(z^2, 1, 1) is the square of the generator diag(z, 1, 1), and
        # its table is derived from the generator's.  A generator table
        # that starts right (entry 0 is z) but sends z to the non-reflection
        # diag(z^2, z, 1) instead of to z^2 derives a table for that
        # element, which is caught
        z = index_of(g, Element(3, (1, 0, 0), (0, 1, 2)))
        z2 = index_of(g, Element(3, (2, 0, 0), (0, 1, 2)))
        k = index_of(g, Element(3, (1, 1, 0), (0, 1, 2)))
        wrong = index_of(g, Element(3, (2, 1, 0), (0, 1, 2)))
        assert z in g.generators and z2 not in g.generators
        assert z2 in g.reflection_indices() and wrong not in g.reflection_indices()
        build = oracle.ConcreteGroup._table_from_element

        def corrupted(self, phases, perm):
            tab = build(self, phases, perm)
            if tab[0] == z:
                assert (tab[z], tab[k]) == (z2, wrong)
                tab[[z, k]] = tab[[k, z]]
            return tab

        monkeypatch.setattr(oracle.ConcreteGroup, "_table_from_element", corrupted)
        with pytest.raises(oracle.OracleConsistencyError,
                           match=f"table of element {wrong}, reached as a reflection"):
            g.reflection_tables

    def test_generator_table_that_starts_elsewhere_is_caught(self, monkeypatch):
        # a generator's table is built from its rows, not derived, so its
        # entry 0 is read, not set: one that starts at another reflection
        # (diag(z^2, 1, 1) for the generator diag(z, 1, 1)) is caught
        g = enumerate_group(3, 1, 3)
        z = index_of(g, Element(3, (1, 0, 0), (0, 1, 2)))
        z2 = index_of(g, Element(3, (2, 0, 0), (0, 1, 2)))
        assert z in g.generators and z2 in g.reflection_indices()
        build = oracle.ConcreteGroup._table_from_element

        def corrupted(self, phases, perm):
            tab = build(self, phases, perm)
            if tab[0] == z:
                tab[0] = z2
            return tab

        monkeypatch.setattr(oracle.ConcreteGroup, "_table_from_element", corrupted)
        with pytest.raises(oracle.OracleConsistencyError,
                           match=f"table of reflection {z} starts at {z2}"):
            g.reflection_tables

    def test_a_reflection_table_is_the_kept_one(self):
        # right_table on a fresh group derives the reflection tables and
        # returns the kept table, whichever is read first
        g = enumerate_group(3, 1, 3)
        refl = g.reflection_indices()
        read = [g.right_table(r) for r in refl]
        assert all(t is g.reflection_tables[r] for r, t in zip(refl, read))

    def test_sylow_generator_tables_are_not_kept(self, monkeypatch):
        # G(3,1,3) at 3: diag(z, z^-1, 1), diag(1, z, z^-1) and the 3-cycle
        # are Sylow generators and no reflections; their tables are built
        # from their rows, used by the closure and then dropped
        g = enumerate_group(3, 1, 3)
        assert reflection_subgroup_classes(g) is g.lattice
        refl = set(g.reflection_indices())
        right_table = oracle.ConcreteGroup.right_table
        built = {}

        def recorded(self, g_idx):
            tab = right_table(self, g_idx)
            if g_idx not in refl:
                assert np.array_equal(
                    tab, self._table_from_element(self._A[g_idx], self._P[g_idx]))
                built[g_idx] = weakref.ref(tab)
            return tab

        monkeypatch.setattr(oracle.ConcreteGroup, "right_table", recorded)
        assert sylow_construct(g, 3).order == 81
        assert len(built) == 3
        gc.collect()
        assert all(ref() is None for ref in built.values())
        assert sorted(g.reflection_tables) == sorted(refl)

    def test_reflections_the_generators_miss_are_caught(self, monkeypatch):
        # the transpositions alone reach no scaling reflection of G(3,1,3)
        g = enumerate_group(3, 1, 3)
        swaps = [x for x in g.generators if g._A[x].sum() % 3 == 0]
        monkeypatch.setattr(g, "generators", swaps)
        with pytest.raises(oracle.OracleConsistencyError,
                           match="6 reflections got no table"):
            g.reflection_tables

    @pytest.mark.parametrize(
        "mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 2), (1, 1, 4), (3, 1, 3)],
        ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_reflection_action_against_products(self, mpn):
        # G(3,1,3) has the generator diag(z, 1, 1) of order 3, whose inverse
        # is another reflection
        g = enumerate_group(*mpn)
        refl = g.reflection_indices()
        position = {r: j for j, r in enumerate(refl)}
        expected = [[position[index_of(g, mul(mul(element(g, s), element(g, r)),
                                                  inv(element(g, s))))]
                     for r in refl] for s in refl]
        assert g.reflection_action.tolist() == expected

    def test_generators_are_reflections_that_generate_the_group(self):
        for mpn in verify.grid_points(order_cap=1000):
            g = enumerate_group(*mpn)
            gens = g.generators
            assert set(gens) <= set(g.reflection_indices()), mpn
            assert generate_subgroup(g, gens).order == g.size, mpn

    def test_reflection_bits_on_a_fresh_group(self):
        g = enumerate_group(3, 1, 2)
        # 3 swapping and 2 + 2 scaling reflections: the degrees are 3 and 6
        bits = g.reflection_bits(b"\xff")
        assert bits.tolist() == [True] * 7 and bits.flags.writeable

    def test_conjugacy_class_in_the_trivial_group(self):
        g = enumerate_group(1, 1, 1)
        assert g.generators == []
        assert g.reflection_action.shape == (0, 0)
        h = generate_subgroup(g, [])
        assert conjugacy_class(g, h).members == (h,)

    def test_each_derived_table_is_computed_once_per_group(self, monkeypatch):
        lookups = []
        positions = oracle.ConcreteGroup._positions

        def counted(self, A, P, what):
            lookups.append(what)
            return positions(self, A, P, what)

        built = []
        enumerate_ = oracle.enumerate_group

        def recorded(*args):
            built.append(enumerate_(*args))
            return built[-1]

        monkeypatch.setattr(oracle.ConcreteGroup, "_positions", counted)
        monkeypatch.setattr(oracle, "enumerate_group", recorded)
        verify.verify_group(3, 1, 3)
        [g] = built
        assert lookups.count("inverse") == 1 and lookups.count("generator") == 1
        names = ["reflections", "generators", "generator_rows", "inversion",
                 "reflection_tables", "reflection_action", "conjugation_tables",
                 "lattice"]
        # the campaign reads every table, and a second read computes nothing
        assert set(names) <= set(vars(g))
        before = len(lookups)
        for name in names:
            assert getattr(g, name) is getattr(g, name), name
        assert len(lookups) == before
        assert g.reflection_indices() == g.reflections.tolist()


class TestOneStoredForm:
    """A subgroup is keyed by its reflection mask and stores its element
    indices at most once, only when they are asked for; a conjugacy class is
    one object per group, whichever stage meets it."""

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (1, 1, 4), (4, 2, 2)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_every_member_gets_the_same_class_object(self, mpn):
        g = enumerate_group(*mpn)
        for cls in reflection_subgroup_classes(g):
            keys = [h.refl_key for h in cls.members]
            assert keys == sorted(keys)
            for h in cls.members:
                assert conjugacy_class(g, h) is cls
                member = np.zeros(g.size, dtype=bool)
                member[h.idx] = True
                assert conjugacy_class(g, g.subgroup(member)) is cls

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (1, 1, 4), (4, 2, 2)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_parabolic_classes_are_lattice_classes(self, mpn):
        for lattice_first in (True, False):
            g = enumerate_group(*mpn)
            if lattice_first:
                lattice = reflection_subgroup_classes(g)
                parab = parabolic_classes(g)
            else:
                parab = parabolic_classes(g)
                lattice = reflection_subgroup_classes(g)
            by_key = {_elements(c.representative): c for c in lattice}
            for cls in parab:
                assert by_key[_elements(cls.representative)] is cls
            assert len(set(lattice)) == len(lattice)

    def test_subgroup_indices_are_one_read_only_int64_array(self):
        g = enumerate_group(2, 1, 3)
        space = fixed_space(element(g, g.reflection_indices()[0]))
        subgroups = [generate_subgroup(g, g.generators[:2]),
                     pointwise_stabilizer(g, space),
                     *oracle.all_reflection_subgroups(g)]
        refl = g.reflections
        for h in subgroups:
            assert not h.idx.flags.writeable
            assert h.idx.dtype == np.int64
            assert h.order == h.idx.size
            with pytest.raises(ValueError):
                h.idx[0] = 1
            # the mask holds exactly the reflections among the elements
            assert np.array_equal(g.reflections_in(h), h.idx[np.isin(h.idx, refl)])
        h = subgroups[0]
        member = np.zeros(g.size, dtype=bool)
        member[h.idx] = True
        again = g.subgroup(member)
        assert (_elements(again), again.refl_key, again.order) == \
            (_elements(h), h.refl_key, h.order)

    @pytest.mark.parametrize("mpn", [(2, 1, 3), (3, 3, 3), (4, 2, 3)],
                             ids=lambda mpn: "G(%d,%d,%d)" % mpn)
    def test_only_founding_closures_store_elements(self, mpn):
        # the lattice takes element indices only for the representative it
        # walks from (one per class, the whole group among them); every
        # other member closes its reflections on first access
        g = enumerate_group(*mpn)
        classes = reflection_subgroup_classes(g)
        stored = [h for c in classes for h in c.members if h._idx is not None]
        assert len(stored) == len(classes)
        lazy = [h for c in classes for h in c.members if h._idx is None]
        assert lazy
        for h in lazy:
            assert g.subgroup(np.isin(np.arange(g.size), h.idx)).refl_key == h.refl_key

    def test_reading_elements_after_the_group_is_gone_raises(self):
        g = enumerate_group(2, 1, 3)
        classes = reflection_subgroup_classes(g)
        h = next(h for c in classes for h in c.members if h._idx is None)
        kept = _elements(classes[-1].representative)  # G itself, stored at once
        del g
        with pytest.raises(ReferenceError, match="the group of this subgroup "
                           f"of order {h.order} is gone"):
            h.idx  # noqa: B018
        assert _elements(classes[-1].representative) == kept

    def test_a_group_is_freed_by_reference_counting_alone(self):
        # with the cycle collector off, a group whose stages ran is freed as
        # soon as the last strong reference goes, while their results stay
        gc.disable()
        try:
            g = enumerate_group(4, 2, 3)
            classes = reflection_subgroup_classes(g)
            parab = parabolic_classes(g)
            minimal = minimal_full_valuation(g, classes, 2)
            label = identify_class(g, minimal[0].representative)
            sylow = sylow_construct(g, 2)
            lazy = next(h for c in classes for h in c.members if h._idx is None)
            assert lazy.idx.size == lazy.order
            ref = weakref.ref(g)
            del g
            assert ref() is None
            assert parab and minimal and label.triples and sylow.order == 64
        finally:
            gc.enable()


class TestCampaignPool:
    def test_pooled_campaign_equals_one_process(self):
        one = verify.run_campaign(order_cap=1000, jobs=1).as_dict()
        assert one == verify.run_campaign(order_cap=1000, jobs=2).as_dict()
        assert one["summary"]["groups"] > 100
