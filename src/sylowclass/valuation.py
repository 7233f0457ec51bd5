"""Exact ell-adic arithmetic: valuations, base-ell digits, carries, and the
minimal valuation-preserving factorial partition.

Everything here is integer arithmetic; orders and factorial products use
Python's arbitrary-precision ints, valuations always fit in machine words.

factorization and factorial_factorization are memoized per process (at
most 1024 answers each, freed by cache_clear()) and return tuples of
(prime, exponent) pairs.  groups.order_factorization merges the few primes
of m and p into a copy of the pairs of n!, so its results share their pair
objects with this memo instead of rebuilding the ~pi(n) pairs per group.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt

from .frozen import Frozen


# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality below MR_EXACT_BOUND; ValueError at or above
    it.  Below 43^2 trial division by the bases decides; above, the strong
    probable-prime test to every base."""
    if n < 2:
        return False
    if n >= MR_EXACT_BOUND:
        raise ValueError(f"primality is decided only below {MR_EXACT_BOUND}, "
                         f"got {n}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")


# factorization trial-divides up to TRIAL_BOUND; a cofactor left above its
# square has no prime factor up to it and goes to is_prime and, when
# composite, to Pollard-Brent rho.  is_prime decides nothing at or above
# MR_EXACT_BOUND, so a number there is trial-divided on up to
# WIDE_TRIAL_BOUND, and a cofactor still there is split by rho with a
# budget of RHO_STEPS squarings for 128 bits, falling with the square of
# its length (each squaring costs about that square), before it is given up.
TRIAL_BOUND = 1 << 12
WIDE_TRIAL_BOUND = 1 << 16
RHO_STEPS = 1 << 18


class FactorizationError(ValueError):
    """A cofactor at or above MR_EXACT_BOUND, where is_prime decides
    nothing, that Pollard-Brent rho did not split within its budget; or n!
    for an n above MAX_FACTORIAL_N."""


@lru_cache(maxsize=1024)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n >= 1: trial division up to
    TRIAL_BOUND (WIDE_TRIAL_BOUND while n >= MR_EXACT_BOUND), then is_prime
    on the cofactor and Pollard-Brent rho to split a composite one.
    FactorizationError when a cofactor at or above MR_EXACT_BOUND is not
    split within rho's budget."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_BOUND and (n < MR_EXACT_BOUND or d > WIDE_TRIAL_BOUND):
            return tuple(out) + _factor_cofactor(n, d)
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _factor_cofactor(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of an n without prime factors
    below bound.  A part below MR_EXACT_BOUND is tested by is_prime and
    split by rho when composite; a part at or above it is split by rho
    within its budget, or FactorizationError."""
    primes = []
    parts = [n]
    while parts:
        x = parts.pop()
        if x < MR_EXACT_BOUND:
            if is_prime(x):
                primes.append(x)
                continue
            divisor = _pollard_brent(x)
        else:
            words = -(-x.bit_length() // 128)
            steps = RHO_STEPS // (words * words)
            divisor = _pollard_brent(x, steps)
            if divisor is None:
                raise FactorizationError(
                    f"cannot factor a {x.bit_length()}-bit cofactor: it has no "
                    f"prime factor below {bound}, Pollard-Brent rho found none "
                    f"in {steps} steps, and primality is decided only below "
                    f"{MR_EXACT_BOUND}")
        parts += [divisor, x // divisor]
    return tuple(sorted(Counter(primes).items()))


def _pollard_brent(n: int, steps: int | None = None) -> int | None:
    """A proper divisor of an odd composite n: Pollard's rho on x^2 + c in
    Brent's form, which takes one gcd per batch of differences and, when a
    batch overshoots to n, steps through it again one difference at a time.
    With steps given, None once about that many squarings found no divisor
    (n may then be prime)."""
    batch = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps is not None:
                if steps <= 0:
                    return None
                steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """Ascending prime divisors of n >= 1."""
    return [p for p, _ in factorization(n)]


# Ascending primes below _sieved, for factorial_factorization.  The list
# only grows, by doubling, and is replaced whole, never mutated.  n! is
# factored for n up to MAX_FACTORIAL_N, a sieve of about 250 MB and 1.3 s.
MAX_FACTORIAL_N = 10**7
_primes: list[int] = []
_sieved = 0


def _primes_upto(n: int) -> list[int]:
    """Ascending primes q <= n, cut from the per-process prime list, which
    a sieve of Eratosthenes grows to at least twice its size when n is past
    its end."""
    global _primes, _sieved
    if n >= _sieved:
        size = max(2 * _sieved, n + 1, 64)
        sieve = bytearray([1]) * size
        sieve[:2] = b"\0\0"
        for q in range(2, isqrt(size - 1) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, size, q)))
        _primes, _sieved = list(compress(range(size), sieve)), size
    primes = _primes
    return primes[:bisect_right(primes, n)]


@lru_cache(maxsize=1024)
def factorial_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """n! as ascending (prime, exponent) pairs, each exponent by Legendre's
    formula; a prime q with q^2 > n divides n! exactly n // q times.
    Cached, as factorization is: groups.order_factorization starts each
    G(m,p,n) from a copy of these pairs, and many groups share a rank (a
    group and its minimal members, the Sym(k) and G(a,1,k) blocks of one
    size)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_FACTORIAL_N:
        raise FactorizationError(f"cannot factor n! for n above {MAX_FACTORIAL_N}")
    primes = _primes_upto(n)
    k = bisect_right(primes, isqrt(n))
    large = primes[k:]
    return (tuple([(q, _legendre(q, n)) for q in primes[:k]])
            + tuple(zip(large, map(n.__floordiv__, large))))


def nu(ell: int, x: int) -> int:
    """ell-adic valuation of a positive integer x: max v with ell^v | x."""
    _check_prime(ell)
    if x < 1:
        raise ValueError(f"valuation undefined for x={x}")
    v = 0
    while x % ell == 0:
        v += 1
        x //= ell
    return v


def nu_factorial(ell: int, n: int) -> int:
    """Valuation of n! without computing n!, via the sum of floor(n/ell^i).

    n = 0 gives 0 (empty product).
    """
    _check_prime(ell)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _legendre(ell, n)


def _legendre(ell: int, n: int) -> int:
    total = 0
    q = n // ell
    while q:
        total += q
        q //= ell
    return total


class DigitExpansion(Frozen):
    """Base-ell digits b_0..b_k of a nonnegative integer, least significant
    first; the top digit is nonzero unless the value is 0."""

    _fields = ("base", "digits")

    @property
    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def __iter__(self):
        return iter(self.digits)


@lru_cache(maxsize=1024)
def base_digits(ell: int, n: int) -> DigitExpansion:
    """The base-ell digits of n, least significant first.  Cached, as
    factorization is: every G(m,p,n) answer reads it through lambda_blocks."""
    _check_prime(ell)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return DigitExpansion(ell, (0,))
    digits = []
    while n:
        n, d = divmod(n, ell)
        digits.append(d)
    return DigitExpansion(ell, tuple(digits))


class Partition(Frozen):
    """Weakly decreasing positive parts summing to n; empty only for n=0."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if any(a < 1 for a in parts):
            raise ValueError(f"parts must be positive: {parts}")
        self._store(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def as_partition(parts) -> Partition:
    if isinstance(parts, Partition):
        return parts
    return Partition(tuple(sorted(parts, reverse=True)))


def kummer_carries(ell: int, lam) -> int:
    """nu(n!) - sum nu(part!), which by Kummer's theorem is the number of
    carries when the parts are summed in base ell."""
    lam = as_partition(lam)
    return nu_factorial(ell, lam.n) - sum(nu_factorial(ell, a) for a in lam)


def lambda_blocks(ell: int, n: int, block, trivial=None) -> list:
    """block(k) for each part k of lambda(ell, n), largest first, leaving
    out blocks equal to trivial: the one place that turns the digits of n
    into blocks.  block runs once per nonzero digit b_j and its result is
    repeated b_j times, so the up to ell - 1 parts of size 1 cost nothing
    when their block is trivial."""
    digits = base_digits(ell, n).digits
    blocks = []
    for j in range(len(digits) - 1, -1, -1):
        if digits[j] and (b := block(ell**j)) != trivial:
            blocks += [b] * digits[j]
    return blocks


def minimal_factorial_partition(ell: int, n: int) -> Partition:
    """lambda(ell, n): the carry-free partition of n minimizing the product
    of factorials, b_j parts of size ell^j for each base-ell digit b_j of n,
    largest first.  Parts of size 1 (the b_0 tail) are kept so the parts
    sum to n.  Its parts are the blocks of lambda_blocks.
    """
    _check_prime(ell)
    if n < 1:
        raise ValueError("n must be positive")
    return Partition(tuple(lambda_blocks(ell, n, lambda k: k)))


def ell_part(ell: int, x: int) -> int:
    """The ell-power part ell^nu(x) of x: the one place that raises ell to a
    valuation."""
    return pow(ell, nu(ell, x))

