import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowclass.classify import catalog_irreducibles

from sylowclass.groups import (
    Cyclic,
    Exceptional,
    GroupParseError,
    Imprimitive,
    Product,
    Sym,
    TRIVIAL,
    alpha_class_count,
    augmented_partition,
    conjugacy_modulus,
    degrees_imprimitive,
    format_group,
    group_primes,
    is_feasible,
    normalize,
    order,
    order_factored,
    order_factorization,
    parse_group,
    product_of,
    triple_compare,
    FeasibleTriple,
)
from sylowclass.valuation import factorization, nu

PRIMES = (2, 3, 5, 7)


def grid(max_m=12, max_n=6):
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p == 0:
                for n in range(1, max_n + 1):
                    yield m, p, n


class TestOrder:
    def test_examples(self):
        assert order(Imprimitive(4, 2, 3)) == 4**3 * 6 // 2 == 192
        assert order(Exceptional(30)) == 2**6 * 3**2 * 5**2 == 14400
        assert order(Imprimitive(1, 1, 1)) == 1

    def test_product_multiplicative(self):
        g = product_of([Imprimitive(4, 2, 3), Exceptional(4), Sym(3)])
        assert order(g) == 192 * 24 * 6

    def test_valuation_identity_on_grid(self):
        for m, p, n in grid():
            size = order(Imprimitive(m, p, n))
            for ell in PRIMES:
                exponents = dict(order_factorization(Imprimitive(m, p, n)))
                assert nu(ell, size) == exponents.get(ell, 0)

    def test_closed_form(self):
        for m, p, n in grid(8, 5):
            assert order(Imprimitive(m, p, n)) == m**n * math.factorial(n) // p


class TestNormalization:
    def test_cyclic_alias(self):
        assert Cyclic(6) == Imprimitive(6, 1, 1)
        assert Sym(4) == Imprimitive(1, 1, 4)

    def test_rank_one_collapses(self):
        assert normalize(Imprimitive(4, 2, 1)) == Imprimitive(2, 1, 1)
        assert normalize(Imprimitive(3, 3, 1)) == TRIVIAL

    def test_products(self):
        assert product_of([TRIVIAL, Sym(3)]) == Sym(3)
        assert product_of([]) == TRIVIAL
        g = product_of([Sym(3), product_of([Sym(2), Sym(2)])])
        assert isinstance(g, Product) and len(g.factors) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            Imprimitive(6, 4, 2)
        with pytest.raises(ValueError):
            Exceptional(3)
        with pytest.raises(ValueError):
            Exceptional(38)


class TestFeasibleTriples:
    def test_examples(self):
        assert is_feasible((4, 2, 2), (12, 6, 3))
        assert not is_feasible((5, 1, 2), (12, 6, 3))
        # m'/p' = 4 does not divide m/p = 2
        assert not is_feasible((4, 1, 2), (12, 6, 3))

    def test_total_order(self):
        assert triple_compare(FeasibleTriple(4, 2, 2), FeasibleTriple(2, 2, 2)) == 1
        assert triple_compare(FeasibleTriple(1, 1, 3), FeasibleTriple(12, 12, 2)) == 1
        assert triple_compare(FeasibleTriple(4, 2, 2), FeasibleTriple(4, 2, 2)) == 0
        assert triple_compare(FeasibleTriple(2, 1, 2), FeasibleTriple(2, 2, 2)) == -1


class TestConjugacyModulus:
    def test_examples(self):
        d = augmented_partition([(4, 2, 3)], (12, 6, 3))
        assert conjugacy_modulus(d) == 12 // math.gcd(6, 3, 12 // 4) == 4
        assert alpha_class_count(d) == 3

        d = augmented_partition([(2, 2, 3)], (12, 6, 3))
        assert conjugacy_modulus(d) == 4

        for m, n in [(5, 2), (8, 3), (12, 4)]:
            d = augmented_partition([(1, 1, n)], (m, 1, n))
            assert conjugacy_modulus(d) == m
            assert alpha_class_count(d) == 1

        d = augmented_partition([(3, 3, 2)], (3, 3, 2))
        assert conjugacy_modulus(d) == 3
        assert alpha_class_count(d) == 1

    def test_sylow_shape_class_count(self):
        # For Delta = [(l^v(m), l^v(p), n)] with l | p the class count is
        # gcd(p / l^v(p), n).
        for m in range(2, 25):
            for p in range(2, m + 1):
                if m % p:
                    continue
                for n in range(2, 9):
                    for ell in PRIMES:
                        if p % ell:
                            continue
                        lm = ell ** nu(ell, m)
                        lp = ell ** nu(ell, p)
                        d = augmented_partition([(lm, lp, n)], (m, p, n))
                        assert alpha_class_count(d) == math.gcd(p // lp, n)

    def test_class_label_bounds(self):
        from sylowclass.groups import SubgroupClassLabel

        d = augmented_partition([(4, 2, 3)], (12, 6, 3))
        assert SubgroupClassLabel(d, 2).alpha_index == 2
        with pytest.raises(ValueError):
            SubgroupClassLabel(d, 3)

    def test_augmented_partition_invariants(self):
        with pytest.raises(ValueError):
            augmented_partition([(5, 1, 2)], (12, 6, 3))  # infeasible triple
        with pytest.raises(ValueError):
            augmented_partition([(2, 2, 2)], (12, 6, 3))  # ranks miss n
        d = augmented_partition([(1, 1, 1), (4, 2, 2)], (12, 6, 3))
        assert [t.n for t in d.triples] == [2, 1]  # sorted decreasing

    def test_modulus_divides_m(self):
        for m, p, n in grid(10, 4):
            ambient = (m, p, n)
            triples = []
            for mp in range(1, m + 1):
                if m % mp:
                    continue
                for pp in range(1, mp + 1):
                    if mp % pp:
                        continue
                    if is_feasible((mp, pp, n), ambient):
                        triples.append((mp, pp, n))
            for t in triples:
                d = augmented_partition([t], ambient)
                assert m % conjugacy_modulus(d) == 0


class TestDegrees:
    def test_examples(self):
        assert degrees_imprimitive(4, 2, 2) == (4, 4)
        assert degrees_imprimitive(1, 1, 3) == (2, 3)
        assert degrees_imprimitive(6, 1, 2) == (6, 12)

    def test_product_equals_order(self):
        for m, p, n in grid():
            degs = degrees_imprimitive(m, p, n)
            assert math.prod(degs) == order(Imprimitive(m, p, n))

    def test_gcd_divisible_implies_ell_divides_m(self):
        for m, p, n in grid():
            degs = degrees_imprimitive(m, p, n)
            if not degs:
                continue
            g = math.gcd(*degs) if len(degs) > 1 else degs[0]
            for ell in PRIMES:
                if g % ell == 0:
                    assert m % ell == 0 or (m == 1 and n == 2)


class TestGrammar:
    CASES = {
        "G(12,6,3)": Imprimitive(12, 6, 3),
        "G28": Exceptional(28),
        "A5": Sym(6),
        "A1": Sym(2),
        "B3": Imprimitive(2, 1, 3),
        "B3(3)": Imprimitive(3, 1, 3),
        "B2(4)": Imprimitive(4, 2, 2),
        "B4(4)": Imprimitive(4, 2, 4),
        "D4(3)": Imprimitive(3, 3, 4),
        "D5": Imprimitive(2, 2, 5),
        "H3": Exceptional(23),
        "H4": Exceptional(30),
        "F4": Exceptional(28),
        "E6": Exceptional(35),
        "E7": Exceptional(36),
        "E8": Exceptional(37),
        "L2": Exceptional(4),
        "L3": Exceptional(25),
        "L4": Exceptional(32),
        "M3": Exceptional(26),
        "J3(4)": Exceptional(24),
        "J3(5)": Exceptional(27),
        "K5": Exceptional(33),
        "K6": Exceptional(34),
        "N4": Exceptional(29),
        "O4": Exceptional(31),
        "L1": Cyclic(3),
        "C8": Cyclic(8),
    }

    def test_atoms(self):
        for text, expected in self.CASES.items():
            assert parse_group(text) == expected, text

    def test_products_and_powers(self):
        assert parse_group("A1xB2") == product_of([Sym(2), Imprimitive(2, 1, 2)])
        assert parse_group("A2^2") == product_of([Sym(3), Sym(3)])
        assert parse_group("[D2(5)]^2") == product_of(
            [Imprimitive(5, 5, 2)] * 2)
        assert parse_group("A2 × E6") == product_of(
            [Sym(3), Exceptional(35)])

    def test_round_trip(self):
        for g in [Imprimitive(12, 6, 3), Exceptional(28), Cyclic(5),
                  product_of([Sym(4), Sym(4), Cyclic(2)])]:
            assert parse_group(format_group(g)) == g

    def test_errors(self):
        for bad in ["", "G1", "G2", "G3", "Gx", "Q(1,2,3)", "G(6,4,2)", "A2^0"]:
            with pytest.raises((GroupParseError, ValueError)):
                parse_group(bad)

    def test_classical_display(self):
        assert format_group(Exceptional(30), classical=True) == "H4"
        assert format_group(Exceptional(8), classical=True) == "G8"
        assert format_group(product_of([Sym(4), Sym(4)])) == "G(1,1,4)^2"


class TestPrimes:
    def test_group_primes(self):
        assert group_primes(Exceptional(37)) == [2, 3, 5, 7]
        assert group_primes(Imprimitive(12, 6, 3)) == [2, 3]


_CATALOG = list(catalog_irreducibles())


def _check_factorization(g):
    pairs = order_factorization(g)
    assert math.prod(q**e for q, e in pairs) == order(g)
    assert pairs == factorization(order(g))


class TestOrderFactorization:
    def test_catalog(self):
        for g in _CATALOG:
            _check_factorization(g)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_CATALOG), min_size=2, max_size=4))
    def test_random_products(self, factors):
        _check_factorization(product_of(factors))

    def test_examples(self):
        assert order_factorization(Imprimitive(1, 1, 1)) == ()
        assert order_factorization(Exceptional(37)) == (
            (2, 14), (3, 5), (5, 2), (7, 1))  # |E8| = 696729600
        # |G(1155,5,1800)| = 1155^1800 * 1800! / 5, from parameters alone
        pairs = dict(order_factorization(Imprimitive(1155, 5, 1800)))
        assert pairs[5] == 1800 - 1 + (360 + 72 + 14 + 2)
        assert pairs[11] == 1800 + 163 + 14 + 1
        assert max(pairs) == 1789  # the largest prime <= 1800
        assert order_factored(Imprimitive(3000, 1, 3000)).startswith(
            "2^11993*3^4498*5^9748*")
