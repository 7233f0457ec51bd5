import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sylowclass import valuation
from sylowclass.groups import Imprimitive, order_factorization
from sylowclass.valuation import (
    MR_EXACT_BOUND,
    Partition,
    base_digits,
    factorial_factorization,
    factorization,
    is_prime,
    kummer_carries,
    lambda_blocks,
    minimal_factorial_partition,
    nu,
    nu_factorial,
    prime_factors,
)

from partitions import carries_by_addition, iter_partitions

PRIMES = (2, 3, 5, 7)


def trial_valuation(ell, x):
    # independent oracle: repeated division
    v = 0
    while x % ell == 0:
        v += 1
        x //= ell
    return v


class TestIsPrime:
    def test_matches_sieve(self):
        limit = 10**5
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, limit, i))
        assert [is_prime(n) for n in range(limit)] == sieve

    def test_rejects_strong_pseudoprime_to_bases_up_to_37(self):
        assert not is_prime(318665857834031151167461)

    def test_large_primes(self):
        assert is_prime(100000000000000000039)
        assert not is_prime(100000000000000000041)
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * 1000003)

    def test_bound(self):
        # the largest prime below the bound, then the bound itself
        assert is_prime(3317044064679887385961813)
        assert MR_EXACT_BOUND - 3317044064679887385961813 == 168
        with pytest.raises(ValueError):
            is_prime(MR_EXACT_BOUND)
        with pytest.raises(ValueError):
            is_prime(10**30)


class TestNu:
    def test_examples(self):
        assert nu(2, 48) == 4
        assert nu(3, 1) == 0
        assert nu(5, 250) == trial_valuation(5, 250) == 3

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            nu(4, 12)
        with pytest.raises(ValueError):
            nu(1, 12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nu(2, 0)

    @given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**9))
    def test_matches_trial_division(self, ell, x):
        assert nu(ell, x) == trial_valuation(ell, x)


class TestNuFactorial:
    def test_examples(self):
        assert nu_factorial(2, 4) == trial_valuation(2, 24) == 3
        assert nu_factorial(3, 10) == trial_valuation(3, math.factorial(10)) == 4
        assert nu_factorial(5, 5) == 1

    def test_zero(self):
        assert nu_factorial(2, 0) == 0

    def test_legendre_sum_up_to_10000(self):
        for ell in PRIMES:
            for n in range(10001):
                expected = sum(n // ell**i for i in range(1, 20))
                assert nu_factorial(ell, n) == expected

    def test_against_exact_factorial_up_to_500(self):
        for ell in PRIMES:
            fact = 1
            v = 0
            for n in range(1, 501):
                fact *= n
                v += trial_valuation(ell, n)
                assert nu_factorial(ell, n) == v
            assert nu_factorial(ell, 500) == trial_valuation(ell, fact)


class TestBaseDigits:
    def test_examples(self):
        assert tuple(base_digits(2, 5)) == (1, 0, 1)
        assert tuple(base_digits(3, 9)) == (0, 0, 1)
        assert tuple(base_digits(7, 6)) == (6,)

    def test_zero(self):
        assert tuple(base_digits(5, 0)) == (0,)

    @given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=10**9))
    def test_reconstructs(self, ell, n):
        exp = base_digits(ell, n)
        assert exp.value == n
        assert all(0 <= d < ell for d in exp)
        if n:
            assert exp.digits[-1] != 0


class TestKummerCarries:
    def test_examples(self):
        # nu2(4!) = 3 and 2*nu2(2!) = 2
        assert kummer_carries(2, (2, 2)) == 3 - 2 == 1
        # nu2(5!) = 3 = nu2(4!) + nu2(1!)
        assert kummer_carries(2, (4, 1)) == 0
        # nu3(9!) = 4 and 3*nu3(3!) = 3
        assert kummer_carries(3, (3, 3, 3)) == 1

    def test_equals_literal_addition_small(self):
        for n in range(1, 25):
            for parts in iter_partitions(n):
                for ell in PRIMES:
                    assert kummer_carries(ell, parts) == carries_by_addition(ell, parts)

    @given(
        st.sampled_from(PRIMES),
        st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12),
    )
    def test_equals_literal_addition_random(self, ell, parts):
        assert kummer_carries(ell, parts) == carries_by_addition(ell, parts)

    def test_single_part_is_carry_free(self):
        assert kummer_carries(5, (17,)) == 0


class TestMinimalFactorialPartition:
    def brute_force(self, ell, n):
        best = None
        for parts in iter_partitions(n):
            if kummer_carries(ell, parts) != 0:
                continue
            prod = math.prod(math.factorial(a) for a in parts)
            if best is None or prod < best:
                best = prod
        return best

    def test_examples(self):
        lam = minimal_factorial_partition(2, 5)
        assert lam.parts == (4, 1)
        assert math.prod(math.factorial(a) for a in lam) == 24 == self.brute_force(2, 5)

        assert minimal_factorial_partition(3, 9).parts == (9,)

        lam = minimal_factorial_partition(2, 6)
        assert lam.parts == (4, 2)
        assert math.prod(math.factorial(a) for a in lam) == 48 == self.brute_force(2, 6)

    def test_parts_sum_and_carry_free(self):
        for ell in PRIMES:
            for n in range(1, 80):
                lam = minimal_factorial_partition(ell, n)
                assert lam.n == n
                assert kummer_carries(ell, lam) == 0

    def test_exhaustive_minimality_small(self):
        for ell in PRIMES:
            for n in range(1, 19):
                lam = minimal_factorial_partition(ell, n)
                prod = math.prod(math.factorial(a) for a in lam)
                assert prod == self.brute_force(ell, n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            minimal_factorial_partition(2, 0)

    def test_blocks(self):
        # 14 = (112)_3: blocks 9, 3, 1, 1, largest first
        assert lambda_blocks(3, 14, lambda k: k) == [9, 3, 1, 1]
        assert lambda_blocks(3, 14, lambda k: k, trivial=1) == [9, 3]
        assert lambda_blocks(3, 0, lambda k: k) == []
        # one call per nonzero digit, however many parts it stands for
        calls = []
        assert lambda_blocks(7, 6, lambda k: calls.append(k) or k) == [1] * 6
        assert calls == [1]
        with pytest.raises(ValueError):
            lambda_blocks(4, 3, lambda k: k)


class TestFactorization:
    def test_multiplies_out_below_3000(self):
        for n in range(1, 3000):
            pairs = factorization(n)
            assert math.prod(q**e for q, e in pairs) == n
            assert all(is_prime(q) and e >= 1 for q, e in pairs)
            assert [q for q, _ in pairs] == sorted({q for q, _ in pairs})
            assert prime_factors(n) == [q for q, _ in pairs]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorization(0)

    def test_prime_near_10_18(self):
        # trial division alone would run to 10^9
        assert factorization(10**18 + 3) == ((10**18 + 3, 1),)
        assert factorization(2 * (10**18 + 9)) == ((2, 1), (10**18 + 9, 1))

    def test_semiprime_of_two_primes_near_10_9(self):
        p, q = 1_000_000_007, 1_000_000_009
        assert factorization(p * q) == ((p, 1), (q, 1))
        assert factorization(p * p) == ((p, 2),)
        assert factorization(2**5 * 3 * p * q) == ((2, 5), (3, 1), (p, 1), (q, 1))

    def test_cofactors_past_the_trial_bound(self):
        # primes just above TRIAL_BOUND = 4096, whose products the loop
        # leaves as a cofactor for is_prime and Pollard-Brent rho
        assert valuation.TRIAL_BOUND == 4096
        above = [q for q in range(4097, 4300) if is_prime(q)]
        for n in (above[0] * above[1], above[0] ** 2, above[0] ** 3,
                  above[0] * above[1] * above[2], 4093 * above[0],
                  2**3 * above[0] * above[5] ** 2, above[-1] ** 4 * 4093**2):
            pairs = factorization(n)
            assert math.prod(q**e for q, e in pairs) == n
            assert all(is_prime(q) and e >= 1 for q, e in pairs)
            assert [q for q, _ in pairs] == sorted({q for q, _ in pairs})

    def test_cofactors_past_the_exact_bound_with_moderate_factors(self):
        # past MR_EXACT_BOUND is_prime decides nothing: trial division goes
        # on to WIDE_TRIAL_BOUND, and rho splits what is left
        assert 4099**7 >= MR_EXACT_BOUND
        assert factorization(4099**7) == ((4099, 7),)
        above = [q for q in range(4097, 6000) if is_prime(q)]
        for primes in (above[:7], above[-7:], above[::30][:7]):
            n = math.prod(primes)
            assert n >= MR_EXACT_BOUND
            assert factorization(n) == tuple((q, 1) for q in primes)
        assert factorization(4099**1000) == ((4099, 1000),)
        assert factorization(2 * 65521**3 * 4099**5) == (
            (2, 1), (4099, 5), (65521, 3))
        # 92 bits, two primes past WIDE_TRIAL_BOUND: rho splits them
        p, q = 2**31 - 1, 2**61 - 1
        assert factorization(p * q) == ((p, 1), (q, 1))
        assert factorization(p * p * q) == ((p, 2), (q, 1))

    def test_4000_digit_numbers(self):
        assert factorization(10**3999) == ((2, 3999), (5, 3999))
        # 10^3999 + 1 keeps a cofactor of about 13000 bits after trial
        # division, far past MR_EXACT_BOUND: an error, not a hang
        with pytest.raises(valuation.FactorizationError,
                           match="decided only below"):
            factorization(10**3999 + 1)

    def test_undecidable_primes_past_the_exact_bound(self):
        # 2^89 - 1 is prime and past MR_EXACT_BOUND: rho finds no divisor
        big = 2**89 - 1
        for n in (big, 1_000_000_007 * big, big * big):
            with pytest.raises(valuation.FactorizationError):
                factorization(n)

    def test_factorial_below_400(self):
        for n in range(0, 400):
            pairs = factorial_factorization(n)
            assert pairs == factorization(math.factorial(n))
            assert pairs == tuple((q, nu_factorial(q, n))
                                  for q in range(2, n + 1) if is_prime(q))

    def test_factorial_does_not_depend_on_call_order(self, monkeypatch):
        # an empty prime list first grown far past n, then cut at each n
        # on the way down
        monkeypatch.setattr(valuation, "_primes", [])
        monkeypatch.setattr(valuation, "_sieved", 0)
        # the memo would answer from pairs of an earlier sieve
        factorial_factorization.cache_clear()
        big = factorial_factorization(5000)
        assert big[-1] == (4999, 1)
        for n in range(399, -1, -1):
            assert factorial_factorization(n) == factorization(math.factorial(n))

    def test_factorial_at_square_and_growth_boundaries(self, monkeypatch):
        # 1996 sieves below the prime 1997, which the next call must add;
        # 2209 = 47^2: 47 moves from n // q to the Legendre sum there
        monkeypatch.setattr(valuation, "_primes", [])
        monkeypatch.setattr(valuation, "_sieved", 0)
        factorial_factorization.cache_clear()
        for n in (1996, 1997, 1999, 2000, 2208, 2209, 2210):
            assert factorial_factorization(n) == tuple(
                (q, nu_factorial(q, n)) for q in range(2, n + 1) if is_prime(q))
        assert dict(factorial_factorization(2209))[47] == 47 + 1

    def test_factorial_rejects_negative_n(self):
        for n in (-1, -5):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                factorial_factorization(n)


def order_valuation(m, p, n, ell):
    """nu_ell(|G(m,p,n)|) read off the parameter factorization."""
    return dict(order_factorization(Imprimitive(m, p, n))).get(ell, 0)


class TestImprimitiveOrderValuation:
    def test_examples(self):
        # |G(6,3,4)| = 10368 = 2^7 * 3^4
        assert 6**4 * 24 // 3 == 10368
        assert order_valuation(6, 3, 4, 3) == trial_valuation(3, 10368) == 4
        # |G(4,2,3)| = 192 = 2^6 * 3
        assert order_valuation(4, 2, 3, 2) == trial_valuation(2, 192) == 6
        for m in (2, 6, 8, 12):
            for ell in PRIMES:
                assert order_valuation(m, 1, 1, ell) == nu(ell, m)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            order_valuation(6, 4, 2, 2)


class TestPartitionType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()).n == 0
        assert Partition((3, 1, 1)).n == 5
