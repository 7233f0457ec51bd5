import pytest

from sylowclass import classify
from sylowclass.classify import (
    NotADivisorError,
    TooManyClassesError,
    UnsupportedGroupError,
    catalog_irreducibles,
    classify_parabolic,
    classify_reflection,
    degrees_criterion,
    is_cuspidal,
    is_supercuspidal,
    require_divides,
    verify_observation,
)
from sylowclass.groups import (
    Cyclic,
    Exceptional,
    Imprimitive,
    Sym,
    normalize,
    order,
    order_factorization,
    product_of,
)
from sylowclass.valuation import nu, prime_factors

PRIMES = (2, 3, 5, 7)


def grid(max_m=12, max_n=6):
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p == 0:
                for n in range(1, max_n + 1):
                    if order(Imprimitive(m, p, n)) > 1:
                        yield Imprimitive(m, p, n)


def wide_grid():
    """grid() and a few ranks up to 40, where lambda(ell, n) has parts of
    several sizes."""
    yield from grid()
    for m in (1, 4, 6, 9, 10):
        for n in (17, 26, 40):
            yield Imprimitive(m, 1, n)
            yield Imprimitive(m, m, n)


class TestParabolic:
    def test_whole_group_when_ell_divides_m(self):
        r = classify_parabolic(Imprimitive(6, 3, 4), 2)
        assert r.equals_whole_group
        assert r.class_count == 1
        assert r.members[0].group == Imprimitive(6, 3, 4)

    def test_symmetric_power_product(self):
        r = classify_parabolic(Imprimitive(6, 1, 5), 5)
        assert r.members[0].group == Sym(5)
        assert r.member_order == 120
        assert not r.equals_whole_group

    def test_exceptional_rows(self):
        r = classify_parabolic(Exceptional(33), 3)
        assert r.members[0].group == Imprimitive(3, 3, 4)
        assert r.member_order == 648
        r = classify_parabolic(Exceptional(36), 7)
        assert r.members[0].group == Sym(7)
        assert r.member_order == 5040

    def test_digit_product_label(self):
        # 6 = (110)_2: P_2 of Sym(6) is G(1,1,4) x G(1,1,2), order 48
        r = classify_parabolic(Sym(6), 2)
        assert r.members[0].group == product_of([Sym(4), Sym(2)])
        assert r.member_order == 48

    def test_cyclic_whole(self):
        r = classify_parabolic(Cyclic(12), 3)
        assert r.equals_whole_group

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisorError):
            classify_parabolic(Imprimitive(4, 2, 3), 5)


class TestRequireDivides:
    def test_matches_factorization_lookup(self):
        products = [
            product_of([Imprimitive(4, 2, 3), Exceptional(31)]),
            product_of([Sym(5), Cyclic(7), Imprimitive(3, 3, 2)]),
            product_of([Exceptional(4), Exceptional(37)]),
        ]
        primes = [q for q in range(2, 60) if prime_factors(q) == [q]]
        for g in [*catalog_irreducibles(), *products]:
            factors = order_factorization(g)
            for ell in primes:
                if ell in dict(factors):
                    assert require_divides(g, ell) == factors, (g, ell)
                else:
                    with pytest.raises(NotADivisorError):
                        require_divides(g, ell)


    @pytest.mark.parametrize("ell", [4, 1, 0, -2])
    def test_non_prime_ell_is_not_called_a_non_divisor(self, ell):
        # 4 divides |G(2,1,2)| = 8: "does not divide" would be false
        from sylowclass.structure import sylow_structure

        for fn in (classify_parabolic, classify_reflection, sylow_structure,
                   degrees_criterion):
            with pytest.raises(ValueError, match="ell must be prime") as exc:
                fn(Imprimitive(2, 1, 2), ell)
            assert not isinstance(exc.value, NotADivisorError), fn


class TestReflection:
    def test_twisted_classes(self):
        r = classify_reflection(Imprimitive(12, 6, 3), 2)
        assert r.class_count == 3
        assert all(m.group == Imprimitive(4, 2, 3) for m in r.members)
        assert r.orders == (192, 192, 192)
        assert [m.twist_exponent for m in r.members] == [0, 1, 2]

    def test_ell_divides_m_not_p(self):
        r = classify_reflection(Imprimitive(6, 1, 6), 3)
        assert r.class_count == 1
        assert r.members[0].group == product_of([Imprimitive(3, 1, 3)] * 2)
        assert r.member_order == 162**2

    def test_keeps_rank_zero_cyclic_factors(self):
        # 5 = (12)_3: one G(3,1,3) block and two G(3,1,1) phase factors
        r = classify_reflection(Imprimitive(3, 1, 5), 3)
        assert r.members[0].group == product_of(
            [Imprimitive(3, 1, 3), Cyclic(3), Cyclic(3)])
        assert r.member_order == 162 * 9

    def test_ell_coprime_to_m(self):
        r = classify_reflection(Imprimitive(5, 1, 4), 2)
        assert r.members[0].group == Sym(4)
        assert r.member_order == 24

    def test_rank_one_member_is_the_cyclic_ell_part(self):
        for g in map(normalize, grid()):
            if g.n == 1:
                for ell in prime_factors(g.m):
                    r = classify_reflection(g, ell)
                    assert r.member_groups() == (Cyclic(ell ** nu(ell, g.m)),), (g, ell)

    def test_ell_coprime_to_m_reflection_is_parabolic(self):
        # the paper's observation: for ell not dividing m the minimal
        # parabolic class is already the minimal reflection class
        for g in wide_grid():
            for ell in prime_factors(order(g)):
                if g.m % ell:
                    assert (classify_reflection(g, ell).members
                            == classify_parabolic(g, ell).members), (g, ell)

    def test_exceptional_multi_type(self):
        r = classify_reflection(Exceptional(26), 3)
        assert [(m.label, m.order) for m in r.members] == [
            ("L3", 648), ("B3(3)", 162)]
        assert not r.equals_whole_group

    def test_exceptional_tilde_classes(self):
        r = classify_reflection(Exceptional(28), 2)
        assert r.class_count == 2
        assert [m.display_label for m in r.members] == ["B4", "~B4"]
        assert r.orders == (384, 384)

    def test_three_classes_mixed(self):
        r = classify_reflection(Exceptional(9), 3)
        assert [(m.display_label, m.order) for m in r.members] == [
            ("A2", 6), ("~A2", 6), ("G8", 96)]

    def test_cyclic(self):
        r = classify_reflection(Cyclic(12), 2)
        assert r.members[0].group == Cyclic(4)

    def test_products_componentwise(self):
        g = product_of([Imprimitive(4, 2, 2), Sym(3)])
        r = classify_reflection(g, 2)
        # Sym(3) contributes its Sylow-2 minimal class G(1,1,2)
        assert r.members[0].group == product_of([Imprimitive(4, 2, 2), Sym(2)])
        # ell-free factor is dropped entirely
        g = product_of([Exceptional(23), Cyclic(3)])
        r = classify_reflection(g, 5)
        assert r.members[0].group == Imprimitive(5, 5, 2)

    def test_product_class_counts_multiply(self):
        g = product_of([Exceptional(28), Exceptional(28)])
        r = classify_reflection(g, 2)
        assert r.class_count == 4

    def test_product_class_count_is_bounded(self, monkeypatch):
        # G(6,6,3) has 3 minimal reflection classes at 2 and 1 parabolic
        g = product_of([Imprimitive(6, 6, 3)] * 2)
        for limit, listed in ((9, True), (8, False)):
            monkeypatch.setattr(classify, "MAX_PRODUCT_CLASSES", limit)
            classify_reflection.cache_clear()
            if listed:
                assert classify_reflection(g, 2).class_count == 9
            else:
                with pytest.raises(TooManyClassesError,
                                   match="has more than 8 minimal reflection classes"):
                    classify_reflection(g, 2)
        assert classify_parabolic(product_of([Imprimitive(6, 6, 3)] * 20), 2).class_count == 1
        classify_reflection.cache_clear()


class TestCuspidality:
    def test_examples(self):
        assert is_cuspidal(Exceptional(25), 3)
        assert not is_cuspidal(Exceptional(35), 2)
        assert classify_parabolic(Exceptional(35), 2).members[0].group == \
            Imprimitive(2, 2, 5)
        assert is_cuspidal(Imprimitive(1, 1, 4), 2)

    def test_supercuspidal_examples(self):
        assert is_supercuspidal(Exceptional(24), 7)
        assert not is_supercuspidal(Exceptional(28), 2)
        assert is_supercuspidal(Imprimitive(4, 2, 2), 2)

    def test_sym_ell_power(self):
        assert is_cuspidal(Sym(2), 2)
        assert is_cuspidal(Sym(9), 3)
        assert not is_cuspidal(Sym(6), 2)
        assert is_supercuspidal(Sym(8), 2)

    def test_supercuspidal_needs_single_class(self):
        # G32 at 2 and 5 is supercuspidal, at 3 it is not
        assert is_supercuspidal(Exceptional(32), 2)
        assert is_supercuspidal(Exceptional(32), 5)
        assert not is_supercuspidal(Exceptional(32), 3)


class TestDegreesCriterion:
    def test_examples(self):
        assert degrees_criterion(Imprimitive(4, 2, 2), 2)
        assert degrees_criterion(Imprimitive(6, 1, 2), 2)
        assert not degrees_criterion(Imprimitive(1, 1, 3), 3)
        assert is_cuspidal(Imprimitive(1, 1, 3), 3)

    def test_soundness_on_grid(self):
        for g in grid():
            for ell in prime_factors(order(g)):
                if degrees_criterion(g, ell):
                    assert is_cuspidal(g, ell), (g, ell)

    def test_exceptional_unsupported(self):
        with pytest.raises(UnsupportedGroupError):
            degrees_criterion(Exceptional(28), 2)


class TestInvariants:
    def test_valuation_preservation_grid(self):
        for g in grid():
            size = order(g)
            for ell in prime_factors(size):
                for result in (classify_parabolic(g, ell),
                               classify_reflection(g, ell)):
                    for member in result.members:
                        assert nu(ell, member.order) == nu(ell, size)

    def test_valuation_preservation_exceptional(self):
        for st in range(4, 38):
            g = Exceptional(st)
            size = order(g)
            for ell in prime_factors(size):
                for result in (classify_parabolic(g, ell),
                               classify_reflection(g, ell)):
                    for member in result.members:
                        assert nu(ell, member.order) == nu(ell, size)

    def test_containment_chain(self):
        for g in catalog_irreducibles():
            size = order(g)
            for ell in prime_factors(size):
                para = classify_parabolic(g, ell)
                refl = classify_reflection(g, ell)
                assert size % para.member_order == 0
                for member in refl.members:
                    assert para.member_order % member.order == 0, (g, ell)

    def test_parabolic_always_single_class(self):
        for g in catalog_irreducibles():
            for ell in prime_factors(order(g)):
                assert classify_parabolic(g, ell).class_count == 1

    def test_minimality_is_idempotent(self):
        # a minimal parabolic answer is cuspidal for itself, and every
        # minimal reflection answer is supercuspidal for itself: anything
        # smaller inside the member would contradict its minimality in G
        for g in catalog_irreducibles():
            for ell in prime_factors(order(g)):
                p = classify_parabolic(g, ell).members[0].group
                assert is_cuspidal(p, ell), (g, ell, p)
                for member in classify_reflection(g, ell).members:
                    assert is_supercuspidal(member.group, ell), (g, ell, member)


class TestObservation:
    def test_no_violations(self):
        assert verify_observation() == []

    def test_spot_checks(self):
        # P_2 of G35 = E6 is D5 = G(2,2,5); 2 supercuspidal there
        p = classify_parabolic(Exceptional(35), 2).members[0].group
        assert p == Imprimitive(2, 2, 5)
        assert is_supercuspidal(p, 2)
        # P_7 of G36 = E7 is Sym(7); 7 supercuspidal there
        p = classify_parabolic(Exceptional(36), 7).members[0].group
        assert p == Sym(7)
        assert is_supercuspidal(p, 7)
