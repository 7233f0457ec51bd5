"""Symbolic unitary reflection groups and reflection-subgroup labels.

The infinite family G(m,p,n) (p | m) is one code path: cyclic groups are
stored as G(m,1,1) and the symmetric group Sym(n) as G(1,1,n).  The 34
exceptional groups are carried by their Shephard-Todd index 4..37.  Products
hold a flat, ordered tuple of irreducible factors.

Group spec grammar (CLI and table data):

    G(m,p,n) | G<k> for k in 4..37 | classical aliases (A4, B3, B3(3),
    D4(3), H3, ..., L2..L4, M3, J3(4), K5, N4, O4, C<m>) | products
    separated by "x" or the unicode times sign, with optional "^k" powers.
    Every digit (m, p, n, k, a rank or a power) is an ASCII digit 0-9.
    A spec holds at most MAX_FACTORS irreducible factors, powers counted.

check_parameters is the one test of G(m,p,n) parameters (m, p, n >= 1 and
p | m), for Imprimitive, FeasibleTriple, AugmentedPartition's ambient group
and degrees_imprimitive; imprimitive_grid is the one walk over the
G(m,p,n) grid, read by the oracle campaign and the observation catalog.
product_of is the one rewrite to canonical form (G(m,p,1) becomes
G(m/p,1,1), or the trivial group when m = p, and trivial factors go):
parse_group normalizes each atom once (not once per power), and normalize
only decides whether to call it.  The spellings G(m,p,n) and G<k> are the __repr__s,
which format_group reuses.

order_factorization is the one way to factor a group order, from the
parameters alone: a G(m,p,n) merges the primes of m and p into a copy of
the memoized pairs of n! (valuation.factorial_factorization), touching only
those primes, and a product adds its factors' pairs to the longest one's,
sorting only when a shorter factor brings a new prime.  has_prime, a
bisection of those pairs, is the one test that a prime divides |G|.

A Product computes its hash once, on first use, and keeps it on the
value as the cached_property _hash: the per-process memos hash their
keys on every lookup, and a Product's hash would otherwise walk its
factors each time.  Equality stays structural and equal values hash
equal; the kept hash is not pickled and dies with the value, so there is
nothing to clear.  An Imprimitive or Exceptional hashes its few int
fields each time, which costs less than keeping a hash for a value that
is hashed once.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property, lru_cache, total_ordering
from itertools import groupby
from math import factorial, gcd, prod

from .frozen import Frozen
from .valuation import factorial_factorization, factorization

__all__ = [
    "GroupType",
    "Imprimitive",
    "Exceptional",
    "Product",
    "Cyclic",
    "Sym",
    "TRIVIAL",
    "FeasibleTriple",
    "AugmentedPartition",
    "order",
    "order_factorization",
    "order_factored",
    "is_feasible",
    "conjugacy_modulus",
    "alpha_class_count",
    "degrees_imprimitive",
    "parse_group",
    "format_group",
    "irreducible_factors",
    "product_of",
]


class Imprimitive(Frozen):
    """G(m,p,n): monomial n x n matrices with m-th root of unity phases whose
    phase exponents sum to 0 mod p, extended by coordinate permutations."""

    _fields = ("m", "p", "n")

    def __init__(self, m: int, p: int, n: int):
        check_parameters(m, p, n)
        self._store(m, p, n)

    def __repr__(self):
        return f"G({self.m},{self.p},{self.n})"


def check_parameters(m: int, p: int, n: int) -> None:
    """The one test of G(m,p,n) parameters: ValueError unless m, p, n >= 1
    and p | m."""
    if m < 1 or n < 1 or p < 1:
        raise ValueError(f"bad parameters G({m},{p},{n})")
    if m % p:
        raise ValueError(f"p must divide m in G({m},{p},{n})")


class Exceptional(Frozen):
    """An exceptional irreducible group by Shephard-Todd index 4..37."""

    _fields = ("st",)

    def __init__(self, st: int):
        if not 4 <= st <= 37:
            raise ValueError(f"Shephard-Todd index out of range: {st}")
        self._store(st)

    def __repr__(self):
        return f"G{self.st}"


class Product(Frozen):
    """Ordered product of irreducible factors (each non-Product)."""

    _fields = ("factors",)

    def __init__(self, factors: tuple):
        if len(factors) < 2:
            raise ValueError("Product needs at least two factors")
        if any(isinstance(f, Product) for f in factors):
            raise ValueError("Product factors must be irreducible")
        self._store(factors)

    @cached_property
    def _hash(self) -> int:
        return hash(self.factors)

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        """Pickles and copies carry the factors, not the kept hash."""
        return {"factors": self.factors}

    def __repr__(self):
        return " x ".join(map(repr, self.factors))


GroupType = Imprimitive | Exceptional | Product

TRIVIAL = Imprimitive(1, 1, 1)


def Cyclic(m: int) -> Imprimitive:
    """The cyclic group of order m in its canonical form G(m,1,1)."""
    return Imprimitive(m, 1, 1)


def Sym(n: int) -> Imprimitive:
    """Sym(n) in its canonical form G(1,1,n)."""
    return Imprimitive(1, 1, n)


def normalize(g: GroupType) -> GroupType:
    """Canonical form: G(m,p,1) becomes the cyclic G(m/p,1,1); products are
    flattened, trivial factors dropped, singleton products unwrapped.

    The rewrite lives in product_of; normalize only decides whether to call
    it.  A canonical value (an Imprimitive other than G(m,p,1) with p > 1, an
    Exceptional, a Product of canonical non-trivial factors) comes back as
    itself: normalizing what product_of or parse_group built allocates
    nothing."""
    if type(g) is Imprimitive:
        return product_of((g,)) if g.n == 1 and g.p > 1 else g
    if type(g) is Product:
        for f in g.factors:
            if type(f) is Imprimitive and f.n == 1 and (f.p > 1 or f.m == 1):
                return product_of(g.factors)
    return g


def product_of(factors) -> GroupType:
    """Normalized product of arbitrarily many group types; each factor is
    normalized once, and a trivial one is told by its fields."""
    flat = []
    for factor in factors:
        for f in (factor.factors if type(factor) is Product else (factor,)):
            if type(f) is Imprimitive and f.n == 1:
                if f.m == f.p:  # G(m,m,1) is the trivial group
                    continue
                if f.p > 1:
                    f = Imprimitive(f.m // f.p, 1, 1)
            flat.append(f)
    if not flat:
        return TRIVIAL
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def imprimitive_grid(max_m: int, max_n: int, order_cap: int | None = None):
    """Every G(m,p,n) with m <= max_m, p | m and n <= max_n, in (m, p, n)
    order, not normalized: the one walk over the campaign grid.  With an
    order cap, each walk over n stops at the first group past the cap, as
    |G(m,p,n+1)| = m(n+1)|G(m,p,n)| puts every later n past it too."""
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p == 0:
                for n in range(1, max_n + 1):
                    g = Imprimitive(m, p, n)
                    if order_cap is not None and order(g) > order_cap:
                        break
                    yield g


def irreducible_factors(g: GroupType) -> tuple:
    g = normalize(g)
    if isinstance(g, Product):
        return g.factors
    return (g,)


# Orders of G4..G37 (Shephard-Todd numbering).  These agree with the |G|
# column of the embedded parabolic table; tables.check_consistency
# re-verifies that.
EXCEPTIONAL_ORDERS = {
    4: 24, 5: 72, 6: 48, 7: 144, 8: 96, 9: 192, 10: 288, 11: 576,
    12: 48, 13: 96, 14: 144, 15: 288, 16: 600, 17: 1200, 18: 1800,
    19: 3600, 20: 360, 21: 720, 22: 240, 23: 120, 24: 336, 25: 648,
    26: 1296, 27: 2160, 28: 1152, 29: 7680, 30: 14400, 31: 46080,
    32: 155520, 33: 51840, 34: 39191040, 35: 51840, 36: 2903040,
    37: 696729600,
}


def order(g: GroupType) -> int:
    """Exact group order; |G(m,p,n)| = m^n n!/p, which also holds for a
    G(m,p,1) or a product that is not normalized."""
    if isinstance(g, Imprimitive):
        return g.m**g.n * factorial(g.n) // g.p
    if isinstance(g, Exceptional):
        return EXCEPTIONAL_ORDERS[g.st]
    return prod(map(order, g.factors))


Factorization = tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
def order_factorization(g: GroupType) -> Factorization:
    """|G| as ascending (prime, exponent) pairs from the parameters alone:
    n*factor(m) - factor(p) + factor(n!) for G(m,p,n), the factored ledger
    order of an exceptional group, the sum over the factors of a product.
    Like order, it needs no normalized input.

    A G(m,p,n) starts from a copy of the memoized pairs of n! and changes
    only the primes of m, each found by bisection: every prime q <= n is
    already there, a prime above n is inserted in its place, and one whose
    exponent comes to 0 (n = 1 and q divides p as often as m) is left
    out."""
    if isinstance(g, Imprimitive):
        pairs = list(factorial_factorization(g.n))
        # p | m, so every prime of p is a prime of m
        p_exponents = dict(factorization(g.p))
        for q, e in factorization(g.m):
            e = g.n * e - p_exponents.get(q, 0)
            i = bisect_left(pairs, (q,))
            if i < len(pairs) and pairs[i][0] == q:
                pairs[i] = (q, pairs[i][1] + e)
            elif e:
                pairs.insert(i, (q, e))
        return tuple(pairs)
    if isinstance(g, Exceptional):
        return factorization(EXCEPTIONAL_ORDERS[g.st])
    return factorization_product(map(order_factorization, g.factors))


def factorization_product(factorizations) -> Factorization:
    """Factorization of a product of factored integers (exponents added;
    every exponent is positive).  The longest factor seeds the exponents in
    its ascending order; the result is sorted only when another factor
    brings a prime the longest lacks."""
    factorizations = sorted(factorizations, key=len)
    if not factorizations:
        return ()
    exponents = dict(factorizations.pop())
    size = len(exponents)
    for pairs in factorizations:
        for q, e in pairs:
            exponents[q] = exponents.get(q, 0) + e
    pairs = tuple(exponents.items())
    return pairs if len(pairs) == size else tuple(sorted(pairs))


def has_prime(pairs: Factorization, q: int) -> bool:
    """Whether q is a prime of the integer factored as ascending pairs, by
    bisection: has_prime(order_factorization(g), ell) is the one test that
    a prime ell divides |G|."""
    i = bisect_left(pairs, (q,))
    return i < len(pairs) and pairs[i][0] == q


def group_primes(g: GroupType) -> list[int]:
    """Ascending prime divisors of |G|."""
    return [q for q, _ in order_factorization(g)]


def order_factored(g: GroupType) -> str:
    """Order as a factorization string like 2^7*3^2."""
    return format_factorization(order_factorization(g))


def format_factorization(pairs: Factorization) -> str:
    """(prime, exponent) pairs as a string like 2^7*3^2; "1" when empty."""
    if not pairs:
        return "1"
    return "*".join([f"{q}^{e}" if e > 1 else str(q) for q, e in pairs])


@total_ordering
class FeasibleTriple(Frozen):
    """(m',p',n') with p' | m'; feasible for an ambient G(m,p,n) when
    n' <= n, m' | m and (m'/p') | (m/p)."""

    _fields = ("m", "p", "n")

    def __init__(self, m: int, p: int, n: int):
        check_parameters(m, p, n)
        self._store(m, p, n)

    def __lt__(self, other):
        # The one order of triples, by (n, m, p); a decreasing sequence
        # puts larger n first, then larger m, then larger p.
        return (self.n, self.m, self.p) < (other.n, other.m, other.p)

    def __repr__(self):
        return f"({self.m},{self.p},{self.n})"


def is_feasible(t, ambient: tuple[int, int, int]) -> bool:
    """Whether (m',p',n') labels a reflection subgroup of G(m,p,n).

    Accepts a FeasibleTriple or a raw (m',p',n') tuple; a raw tuple with
    p' not dividing m' is simply infeasible rather than an error.
    """
    if not isinstance(t, FeasibleTriple):
        try:
            t = FeasibleTriple(*t)
        except ValueError:
            return False
    m, p, n = ambient
    return t.n <= n and m % t.m == 0 and (m // p) % (t.m // t.p) == 0


class AugmentedPartition(Frozen):
    """Decreasing sequence of feasible triples whose ranks partition n;
    labels a reflection subgroup class of the ambient G(m,p,n)."""

    _fields = ("triples", "ambient")

    def __init__(self, triples: tuple[FeasibleTriple, ...],
                 ambient: tuple[int, int, int]):
        check_parameters(*ambient)
        for t in triples:
            if not is_feasible(t, ambient):
                raise ValueError(f"triple {t} not feasible for {ambient}")
        for a, b in zip(triples, triples[1:]):
            if a < b:
                raise ValueError("triples not decreasing")
        if sum(t.n for t in triples) != ambient[2]:
            raise ValueError("ranks do not partition n")
        self._store(triples, ambient)

    def group(self) -> GroupType:
        """The standard reflection subgroup as a group type, trivial
        factors dropped."""
        return product_of(Imprimitive(t.m, t.p, t.n) for t in self.triples)

    def __repr__(self):
        return "[" + ",".join(map(repr, self.triples)) + "]"


def augmented_partition(triples, ambient) -> AugmentedPartition:
    trips = tuple(
        sorted((FeasibleTriple(*t) for t in triples), reverse=True)
    )
    return AugmentedPartition(trips, tuple(ambient))


def conjugacy_modulus(delta: AugmentedPartition) -> int:
    """The modulus k with G_Delta^alpha ~ G_Delta^beta iff alpha/beta lies in
    the k-th roots of unity: k = m / gcd(p, n_1..n_d, m/m_1..m/m_d)."""
    m, p, _ = delta.ambient
    g = gcd(p, *(t.n for t in delta.triples), *(m // t.m for t in delta.triples))
    return m // g


def alpha_class_count(delta: AugmentedPartition) -> int:
    """Number of conjugacy classes among the twists of G_Delta: m / k."""
    m, _, _ = delta.ambient
    return m // conjugacy_modulus(delta)


def degrees_imprimitive(m: int, p: int, n: int) -> tuple[int, ...]:
    """Invariant degrees m, 2m, ..., (n-1)m, nm/p of G(m,p,n), with trivial
    degree-1 entries dropped (they correspond to fixed coordinates of a
    non-essential action).  The product equals the group order."""
    check_parameters(m, p, n)
    degs = [i * m for i in range(1, n)] + [n * m // p]
    return tuple(sorted(d for d in degs if d > 1))


# ---------------------------------------------------------------------------
# Group spec grammar


_CLASSICAL = {
    "H3": 23, "H4": 30, "F4": 28, "E6": 35, "E7": 36, "E8": 37,
    "L2": 4, "L3": 25, "L4": 32, "M3": 26, "K5": 33, "K6": 34,
    "N4": 29, "O4": 31, "J3(4)": 24, "J3(5)": 27,
}
# Reverse preference for display of exceptional groups.
_CLASSICAL_NAMES = {v: k for k, v in _CLASSICAL.items()}

_G_MPN = re.compile(r"G\((\d+),(\d+),(\d+)\)", re.ASCII)
# Every other atom: a letter, a rank or index n, an optional decoration (k).
_SERIES = re.compile(r"([A-Z])(\d+)(?:\((\d+)\))?", re.ASCII)
# The irreducible factors one spec may hold, counted before any is built.
MAX_FACTORS = 10000


class GroupParseError(ValueError):
    pass


class TableLookupError(KeyError):
    """No table row for the requested (table, group, ell).

    Raised by the tables module, which re-exports it; it lives here so that
    the command line can map it to its exit code without importing the
    tables."""


def _parse_atom(token: str) -> GroupType:
    if m := _G_MPN.fullmatch(token):
        return Imprimitive(*map(int, m.groups()))
    if token in _CLASSICAL:
        return Exceptional(_CLASSICAL[token])
    if m := _SERIES.fullmatch(token):
        letter, n, k = m[1], int(m[2]), m[3]
        if k is None:
            if letter == "G":
                if n in (1, 2, 3):
                    raise GroupParseError(
                        f"G{n} is a family; use G(m,p,n) with explicit parameters")
                return Exceptional(n)
            if letter == "A":
                return Sym(n + 1)
            if letter in "BD":
                return Imprimitive(2, 2 if letter == "D" else 1, n)
            if letter == "C":
                return Cyclic(n)
            if letter == "L" and n == 1:
                return Cyclic(3)
        elif letter == "B":
            k = int(k)
            if k == 3:
                return Imprimitive(3, 1, n)
            if k % 2 == 0:
                # B_n^(2j) = G(2j, j, n); only the (3) and (4) decorations occur
                # in the embedded tables.
                return Imprimitive(k, k // 2, n)
            raise GroupParseError(f"unknown decoration in {token}")
        elif letter == "D":
            return Imprimitive(int(k), int(k), n)
    raise GroupParseError(f"cannot parse group spec {token!r}")


def parse_group(spec: str) -> GroupType:
    """Parse a group spec string (see module docstring for the grammar)."""
    text = spec.replace("×", "x").replace(" ", "")
    if not text:
        raise GroupParseError("empty group spec")
    # Splitting on "x" must not break atoms; no atom contains a bare "x".
    factors = []
    count = 0
    for token in text.split("x"):
        if not token:
            raise GroupParseError(f"empty factor in {spec!r}")
        power = 1
        base, caret, exponent = token.rpartition("^")
        if caret and exponent.isascii() and exponent.isdecimal():
            token = base
            try:
                power = int(exponent)
            except ValueError:  # past int()'s digit limit, so past the cap
                power = MAX_FACTORS + 1
            if power < 1:
                raise GroupParseError(f"bad power in {spec!r}")
        count += power
        if count > MAX_FACTORS:
            raise GroupParseError(
                f"a group spec holds at most {MAX_FACTORS} irreducible factors")
        try:
            atom = _parse_atom(token)
        except GroupParseError:
            raise
        except ValueError as exc:  # the group constructor rejected the parameters
            raise GroupParseError(f"invalid group {token!r}: {exc}") from exc
        factors.extend([normalize(atom)] * power)  # one rewrite per token, not per power
    return product_of(factors)


def format_group(g: GroupType, classical: bool = False) -> str:
    """Render a group type in the spec grammar.

    With classical=True, exceptional groups get their classical alias
    (H3, E8, ...) when one exists.
    """
    g = normalize(g)
    if type(g) is not Product:
        return _format_irreducible(g, classical)
    parts = []
    for f, run in groupby(g.factors):
        base = _format_irreducible(f, classical)
        count = len(list(run))
        parts.append(base if count == 1 else f"{base}^{count}")
    return " x ".join(parts)


def _format_irreducible(g: GroupType, classical: bool) -> str:
    if classical and type(g) is Exceptional and g.st in _CLASSICAL_NAMES:
        return _CLASSICAL_NAMES[g.st]
    return repr(g)
