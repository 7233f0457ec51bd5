"""An independent check of the G(m,p,n) invariant degrees, from the elements.

Every G(m,p,n) of the campaign grid with 2 <= |G| <= 5000 is enumerated in
plain Python, reading nothing from the oracle: an element is a phase vector
a in (Z/m)^n whose sum is 0 mod p, times a permutation w of the n
coordinates, so there are m^n * n! / p of them.  On each cycle of w the
element multiplies its coordinates by z^s, where z = exp(2 pi i / m) and s
is the cycle's phase sum, so a cycle of length k has the k eigenvalues
exp(2 pi i (s/m + j) / k), each once.  Hence

- the cycle fixes a nonzero vector exactly when s = 0 mod m, and then a
  line; dim Fix(x) is the number of such cycles;
- exp(2 pi i / d) is an eigenvalue on the cycle exactly when k/d - s/m is
  an integer, and then once.

groups.degrees_imprimitive, padded with 1s up to rank n, is checked by two
theorems on these numbers:

- Shephard-Todd (1954): sum over x in G of t^dim Fix(x) equals the product
  of (t + d_i - 1);
- Springer (Invent. Math. 1974): for d >= 2 the largest exp(2 pi i / d)
  eigenspace of an element has dimension #{i : d | d_i}.

A disagreement is a finding about the degrees; it is reported, never
patched.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from sylowclass.groups import degrees_imprimitive
from sylowclass.limits import DEFAULT_MAX_M, DEFAULT_MAX_N

MAX_ORDER = 5000


def _grid():
    """(m, p, n) of every grid group with 2 <= m^n * n! / p <= MAX_ORDER."""
    return [(m, p, n)
            for m in range(1, DEFAULT_MAX_M + 1)
            for p in range(1, m + 1) if m % p == 0
            for n in range(1, DEFAULT_MAX_N + 1)
            if 2 <= m ** n * factorial(n) // p <= MAX_ORDER]


def _cycles(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen, out = set(), []
    for start in range(len(w)):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = w[i]
        if cycle:
            out.append(tuple(cycle))
    return out


@lru_cache(maxsize=None)
def cycle_types(m: int, p: int, n: int) -> Counter:
    """How many elements of G(m,p,n) have each cycle type: the sorted
    (length, phase sum mod m) of the cycles of an element."""
    phases = [a for a in product(range(m), repeat=n) if sum(a) % p == 0]
    types: Counter = Counter()
    for w in permutations(range(n)):
        cycles = _cycles(w)
        for a in phases:
            types[tuple(sorted((len(c), sum(a[i] for i in c) % m) for c in cycles))] += 1
    return types


def _degrees(m: int, p: int, n: int) -> tuple[int, ...]:
    degrees = degrees_imprimitive(m, p, n)
    return (1,) * (n - len(degrees)) + degrees


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_the_grid_and_the_element_count():
    grid = _grid()
    assert len(grid) == 134
    for m, p, n in grid:
        assert sum(cycle_types(m, p, n).values()) == m ** n * factorial(n) // p, (m, p, n)


def test_shephard_todd_fixed_space_polynomial():
    differences = []
    for m, p, n in _grid():
        counted = [0] * (n + 1)
        for cycles, count in cycle_types(m, p, n).items():
            counted[sum(s == 0 for _, s in cycles)] += count
        expected = [1]
        for d in _degrees(m, p, n):
            expected = _poly_mul(expected, [d - 1, 1])
        if counted != expected:
            differences.append(((m, p, n), counted, expected))
    assert differences == []


def test_springer_largest_eigenspaces():
    differences = []
    pairs = 0
    for m, p, n in _grid():
        degrees = _degrees(m, p, n)
        types = cycle_types(m, p, n)
        for d in range(2, max(degrees) + 2):
            largest = max(sum((k * m - s * d) % (d * m) == 0 for k, s in cycles)
                          for cycles in types)
            expected = sum(di % d == 0 for di in degrees)
            pairs += 1
            if largest != expected:
                differences.append(((m, p, n), d, largest, expected))
    assert differences == []
    assert pairs == 1622
