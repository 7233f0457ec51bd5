import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sylowclass import groups, verify
from sylowclass.classify import (catalog_irreducibles, classify_parabolic,
                                 classify_reflection)

from sylowclass.groups import (
    AugmentedPartition,
    Cyclic,
    Exceptional,
    MAX_FACTORS,
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
    imprimitive_grid,
    is_feasible,
    normalize,
    order,
    order_factored,
    order_factorization,
    parse_group,
    product_of,
    FeasibleTriple,
)
from sylowclass.valuation import WIDE_TRIAL_BOUND, factorization, nu, prime_factors

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


def _reference_normal(factors):
    """normalize of a product of irreducible factors, written out: each
    G(m,p,1) becomes G(m/p,1,1), trivial factors go, one factor unwraps."""
    out = [Imprimitive(f.m // f.p, 1, 1) if isinstance(f, Imprimitive) and f.n == 1
           else f for f in factors]
    out = [f for f in out if f != TRIVIAL]
    if not out:
        return TRIVIAL
    return out[0] if len(out) == 1 else Product(tuple(out))


def _is_canonical(g) -> bool:
    def irreducible(f, trivial_ok):
        if isinstance(f, Exceptional):
            return True
        return (isinstance(f, Imprimitive) and not (f.n == 1 and f.p > 1)
                and (trivial_ok or f != TRIVIAL))

    if isinstance(g, Product):
        return len(g.factors) >= 2 and all(irreducible(f, False) for f in g.factors)
    return irreducible(g, True)


# Irreducible group types in any form: G(m,p,n) with p | m, m <= 12, n <= 3
# (so G(m,p,1) and G(1,1,1) occur often), and the exceptional groups.
_RAW_IMPRIMITIVE = st.integers(1, 12).flatmap(lambda m: st.builds(
    Imprimitive, st.just(m), st.sampled_from([p for p in range(1, m + 1) if m % p == 0]),
    st.integers(1, 3)))
_RAW_ATOMS = st.one_of(_RAW_IMPRIMITIVE, st.builds(Exceptional, st.integers(4, 37)))
_RAW_PRODUCTS = st.lists(_RAW_ATOMS, min_size=2, max_size=5).map(
    lambda fs: Product(tuple(fs)))
# The factors normalize changes: G(1,1,1) and G(m,p,1) with p > 1.
_RANK_ONE = st.one_of(st.just(TRIVIAL), st.integers(2, 12).flatmap(lambda m: st.builds(
    Imprimitive, st.just(m), st.sampled_from([p for p in range(2, m + 1) if m % p == 0]),
    st.just(1))))


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_RAW_ATOMS, _RAW_PRODUCTS))
    def test_normalize_is_idempotent(self, g):
        canonical = normalize(g)
        assert _is_canonical(canonical)
        assert normalize(canonical) is canonical
        assert canonical == _reference_normal(
            g.factors if isinstance(g, Product) else (g,))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_RAW_ATOMS, _RAW_PRODUCTS), max_size=5))
    def test_built_values_come_back_as_themselves(self, factors):
        built = product_of(factors)
        assert _is_canonical(built)
        assert normalize(built) is built
        parsed = parse_group(format_group(built))
        assert parsed == built and normalize(parsed) is parsed

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RAW_ATOMS, min_size=1, max_size=4),
           st.lists(_RANK_ONE, min_size=1, max_size=2), st.randoms())
    def test_products_with_trivial_or_rank_one_factors(self, factors, rank_one, rng):
        # a Product built directly, bypassing product_of, holding TRIVIAL
        # or G(m,p,1) factors
        factors = factors + rank_one
        rng.shuffle(factors)
        raw = Product(tuple(factors))
        canonical = normalize(raw)
        assert canonical is not raw
        assert canonical == _reference_normal(factors)
        assert normalize(canonical) is canonical

    def test_invalid(self):
        with pytest.raises(ValueError):
            Imprimitive(6, 4, 2)
        with pytest.raises(ValueError):
            Exceptional(3)
        with pytest.raises(ValueError):
            Exceptional(38)


class TestParameters:
    @pytest.mark.parametrize("mpn, message", [
        ((0, 1, 1), "bad parameters G(0,1,1)"),
        ((2, 1, 0), "bad parameters G(2,1,0)"),
        ((4, 3, 2), "p must divide m in G(4,3,2)"),
    ])
    def test_one_check_for_every_triple(self, mpn, message):
        for build in (Imprimitive, FeasibleTriple, degrees_imprimitive,
                      lambda *t: AugmentedPartition((), t)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(*mpn)
        assert not is_feasible(mpn, (12, 6, 3))

    def test_grid_walk_order(self):
        assert [(g.m, g.p, g.n) for g in imprimitive_grid(12, 6)] == list(grid())
        assert list(imprimitive_grid(0, 6)) == list(imprimitive_grid(12, 0)) == []
        for cap in (1, 2, 1000):
            assert list(imprimitive_grid(12, 6, cap)) == [
                g for g in imprimitive_grid(12, 6) if order(g) <= cap]

    def test_campaign_grid_stops_at_the_order_cap(self, monkeypatch):
        # |G(m,p,n)| grows with n, so a rank bound far past the cap adds
        # no point and no order computation
        calls = []

        def counting(g):
            calls.append(g)
            if len(calls) > 200:
                raise AssertionError("the grid walk ran past the order cap")
            return order(g)

        expected = verify.grid_points(2, 8)
        monkeypatch.setattr(groups, "order", counting)
        assert verify.grid_points(2, 10**6) == expected

    def test_catalog_walks_the_grid(self):
        want = []
        for m, p, n in grid(5, 3):
            g = normalize(Imprimitive(m, p, n))
            if g != TRIVIAL and g not in want:
                want.append(g)
        want += [Exceptional(st) for st in range(4, 38)]
        assert list(catalog_irreducibles(5, 3)) == want


class TestFeasibleTriples:
    def test_examples(self):
        assert is_feasible((4, 2, 2), (12, 6, 3))
        assert not is_feasible((5, 1, 2), (12, 6, 3))
        # m'/p' = 4 does not divide m/p = 2
        assert not is_feasible((4, 1, 2), (12, 6, 3))

    def test_total_order(self):
        # by n, then m, then p
        assert FeasibleTriple(2, 2, 2) < FeasibleTriple(4, 2, 2)
        assert FeasibleTriple(12, 12, 2) < FeasibleTriple(1, 1, 3)
        assert FeasibleTriple(4, 2, 2) == FeasibleTriple(4, 2, 2)
        assert not FeasibleTriple(4, 2, 2) < FeasibleTriple(4, 2, 2)
        assert FeasibleTriple(2, 1, 2) < FeasibleTriple(2, 2, 2)
        assert sorted([FeasibleTriple(1, 1, 3), FeasibleTriple(2, 2, 2),
                       FeasibleTriple(2, 1, 2), FeasibleTriple(12, 12, 2)]) == [
            FeasibleTriple(2, 1, 2), FeasibleTriple(2, 2, 2),
            FeasibleTriple(12, 12, 2), FeasibleTriple(1, 1, 3)]


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
        # rank-one atoms, rewritten by parse_group
        "G(4,2,1)": Cyclic(2),
        "B1(3)": Cyclic(3),
        "D1": TRIVIAL,
        "D1(5)": TRIVIAL,
        "A0": TRIVIAL,
    }

    def test_atoms(self):
        for text, expected in self.CASES.items():
            assert parse_group(text) == expected, text

    def test_products_and_powers(self):
        assert parse_group("A1xB2") == product_of([Sym(2), Imprimitive(2, 1, 2)])
        assert parse_group("A2^2") == product_of([Sym(3), Sym(3)])
        assert parse_group("D2(5)^2") == product_of(
            [Imprimitive(5, 5, 2)] * 2)
        # the grammar has no brackets
        with pytest.raises(GroupParseError):
            parse_group("[G4]")
        assert parse_group("A2 × E6") == product_of(
            [Sym(3), Exceptional(35)])
        assert parse_group("G(6,6,1)xG4") == Exceptional(4)
        assert parse_group("G(4,2,1)^2") == Product((Cyclic(2), Cyclic(2)))
        # a power is rewritten once, not once per factor
        first, *rest = parse_group("G(4,2,1)^3").factors
        assert all(f is first for f in rest)

    def test_round_trip(self):
        for g in [Imprimitive(12, 6, 3), Exceptional(28), Cyclic(5),
                  product_of([Sym(4), Sym(4), Cyclic(2)])]:
            assert parse_group(format_group(g)) == g

    def test_errors(self):
        for bad in ["", "G1", "G2", "G3", "Gx", "Q(1,2,3)", "G(6,4,2)", "A2^0"]:
            with pytest.raises((GroupParseError, ValueError)):
                parse_group(bad)

    def test_series_edge_cases(self):
        # L1 is the only line group outside the classical aliases; a B
        # decoration is 3 or even; J3 takes (4) or (5) only; C0 and a
        # zero decoration are no group
        assert parse_group("L1") == Cyclic(3)
        assert parse_group("D4(3)") == Imprimitive(3, 3, 4)
        assert parse_group("D2(2)") == Imprimitive(2, 2, 2)
        assert parse_group("B1(4)") == Cyclic(2)
        for bad in ["L5", "L0", "L1(3)", "B3(5)", "J3(6)", "J3", "C0", "C2(3)",
                    "A2(3)", "G4(3)", "D4(0)", "B3(0)", "H5", "Z3", "g4"]:
            with pytest.raises(GroupParseError):
                parse_group(bad)

    def test_trailing_newline_is_rejected(self):
        # every atom pattern matches the whole token; "$" alone would also
        # match before a final newline
        for bad in ["G4\n", "G(12,6,3)\n", "B3(3)\n", "A1^2\n", "G4\nx A1",
                    "A2 x G28\n"]:
            with pytest.raises(GroupParseError):
                parse_group(bad)

    def test_non_ascii_digits_are_rejected(self):
        # \d and str.isdecimal accept every Unicode decimal digit, and int()
        # converts them: a fullwidth 2, Arabic-Indic digits, a fullwidth power
        for bad in ["A\uff12", "G(\u0661\u0662,\u0666,\u0663)", "A1^\uff12"]:
            with pytest.raises(GroupParseError):
                parse_group(bad)

    def test_factor_cap(self):
        assert len(parse_group(f"A1^{MAX_FACTORS}").factors) == MAX_FACTORS
        assert len(parse_group("G(6,6,3)^20").factors) == 20
        half = MAX_FACTORS // 2
        assert len(parse_group(f"A1^{half} x B2^{half}").factors) == MAX_FACTORS
        # the powers of every factor count together
        for spec in [f"A1^{MAX_FACTORS + 1}", f"A1^{half + 1} x A1^{half}",
                     "A1^6000 x A1^6000", f"G4 x A1^{MAX_FACTORS}",
                     "A1^100000000"]:
            with pytest.raises(GroupParseError, match="at most"):
                parse_group(spec)

    def test_exponent_past_the_digit_limit(self):
        # more digits than int() converts by default (4300)
        with pytest.raises(GroupParseError, match="at most"):
            parse_group("A1^" + "7" * 5000)

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


# m up to 10^6, most of them with a prime above n; every prime below
# WIDE_TRIAL_BOUND, so that factorization can factor a whole order m^n n!/p
# (trial division reaches it; Pollard-Brent rho gives up on a power such
# as 999983^400)
_MERGE_M = st.integers(1, 10**6).filter(
    lambda m: all(q < WIDE_TRIAL_BOUND for q in prime_factors(m)))


@st.composite
def _merge_groups(draw, max_n=400):
    """G(m,p,n) with m from _MERGE_M, any p | m (p = m included) and
    n <= max_n, not normalized."""
    m = draw(_MERGE_M)
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    p = draw(st.sampled_from(small + [m // d for d in small]))
    return Imprimitive(m, p, draw(st.integers(1, max_n)))


class TestOrderFactorization:
    # order_factorization merges m's primes into a copy of n!'s pairs:
    # q <= n in place, q > n inserted, an exponent of 0 left out
    @settings(max_examples=150, deadline=None)
    @given(_merge_groups())
    @example(Imprimitive(65521, 65521, 1))  # |G| = 1: the one prime drops
    @example(Imprimitive(2 * 4099, 4099, 1))  # 2 stays, 4099 drops
    @example(Imprimitive(4099, 1, 50))  # 4099^50 inserted above 47
    @example(Imprimitive(1, 1, 400))
    def test_merge_matches_factoring_the_order(self, g):
        assert order_factorization(g) == factorization(order(g))

    # factorization_product seeds its exponents with the longest factor and
    # sorts only when a shorter one brings a prime the longest lacks: small
    # factors of rank <= 4 next to one of rank up to 400
    @settings(max_examples=100, deadline=None)
    @given(_merge_groups(), st.lists(_merge_groups(max_n=4), min_size=1, max_size=3))
    @example(Imprimitive(6, 1, 300), [Imprimitive(4099, 1, 1)])  # 4099 sorted in
    @example(Imprimitive(4099, 4099, 1), [Imprimitive(6, 1, 2)])  # a trivial factor
    def test_product_merge_matches_factoring_the_order(self, first, small):
        g = Product((first, *small))
        assert order_factorization(g) == factorization(order(g))

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

    def test_huge_class_members(self):
        # ell | p gives twisted members (G(360,6,300) at 2 and 3), ell >= 5
        # prime to m repeats Sym and G(a,1,k) blocks up to ell - 1 times
        for (m, p, n), ells in (((360, 6, 300), (2, 3, 5, 7, 11)),
                                ((210, 1, 399), (2, 7, 11, 13)),
                                ((242, 22, 250), (2, 5, 11, 13)),
                                ((221, 13, 342), (3, 13, 17, 19))):
            g = Imprimitive(m, p, n)
            for ell in ells:
                for classify in (classify_parabolic, classify_reflection):
                    for member in classify(g, ell).members:
                        assert member.factors == factorization(order(member.group))
