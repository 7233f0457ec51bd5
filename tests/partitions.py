"""Partitions and a literal carry count, the test oracles of Kummer's
theorem: test_valuation and acceptance criterion 5 check
valuation.kummer_carries and minimal_factorial_partition against them."""


def carries_by_addition(ell: int, parts) -> int:
    """Literal carry count of column-wise base-ell addition of the parts.

    Multi-addend columns may carry more than 1; the total of all carried
    amounts is what Kummer's theorem counts.  Independent of kummer_carries
    and used to cross-check it.
    """
    cols: list[int] = []
    for part in parts:
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
