"""Exact ell-adic arithmetic: valuations, base-ell digits, carries, and the
minimal valuation-preserving factorial partition.

Everything here is integer arithmetic; orders and factorial products use
Python's arbitrary-precision ints, valuations always fit in machine words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


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


@lru_cache(maxsize=1024)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n >= 1, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
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


def prime_factors(n: int) -> list[int]:
    """Ascending prime divisors of n >= 1."""
    return [p for p, _ in factorization(n)]


def factorial_factorization(n: int) -> list[tuple[int, int]]:
    """n! as ascending (prime, exponent) pairs: the primes q <= n from a
    sieve of Eratosthenes, each exponent by Legendre's formula."""
    sieve = bytearray([1]) * (n + 1)
    for q in range(2, isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n + 1, q)))
    return [(q, _legendre(q, n)) for q in range(2, n + 1) if sieve[q]]


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


@dataclass(frozen=True)
class DigitExpansion:
    """Base-ell digits b_0..b_k of a nonnegative integer, least significant
    first; the top digit is nonzero unless the value is 0."""

    base: int
    digits: tuple[int, ...]

    @property
    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def __iter__(self):
        return iter(self.digits)


def base_digits(ell: int, n: int) -> DigitExpansion:
    """Base-ell expansion of n, least significant digit first."""
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


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts summing to n; empty only for n=0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
        if any(a < 1 for a in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")

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


def carries_by_addition(ell: int, lam) -> int:
    """Literal carry count of column-wise base-ell addition of the parts.

    Multi-addend columns may carry more than 1; the total of all carried
    amounts is what Kummer's theorem counts.  Independent of kummer_carries
    and used to cross-check it.
    """
    _check_prime(ell)
    lam = as_partition(lam)
    cols: list[int] = []
    for part in lam:
        pos = 0
        while part:
            part, d = divmod(part, ell)
            if pos == len(cols):
                cols.append(0)
            cols[pos] += d
            pos += 1
    carries = 0
    carry = 0
    for s in cols:
        carry = (s + carry) // ell
        carries += carry
    while carry:
        carry //= ell
        carries += carry
    return carries


def minimal_factorial_partition(ell: int, n: int) -> Partition:
    """The carry-free partition of n minimizing the product of factorials:
    b_j parts of size ell^j for each base-ell digit b_j of n.

    Parts of size 1 (the b_0 tail) are kept so the parts sum to n.
    """
    _check_prime(ell)
    if n < 1:
        raise ValueError("n must be positive")
    parts = []
    for j, b in enumerate(base_digits(ell, n)):
        parts.extend([ell**j] * b)
    return Partition(tuple(sorted(parts, reverse=True)))


def iter_partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n as weakly decreasing tuples."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def ell_part(ell: int, x: int) -> int:
    """The ell-power part ell^nu(x) of x."""
    return ell ** nu(ell, x)

