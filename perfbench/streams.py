"""Seeded request streams for the query workloads.

A request is a string key, so that answers can be recorded and compared:

    report|<kind>|<group spec>|<prime or all>   cli.classification_report
    sylow|<group spec>|<prime>                  structure.sylow_structure + render_term
    table|<table id>                            cli.render_table(id, "json")

This module is plain Python and never imports sylowclass: the program only
receives the keys (and the group specs inside them) that it generates.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from math import gcd

TABLE_IDS = ("parabolic", "cuspidal", "reflection", "supercuspidal", "nonunique")

# query_mix proportions.  No record of real use exists to take them from:
# they are assumptions, chosen so that every request type occurs and the
# seed barely moves the workload's cost.  Read query_mix results as this
# mix, not as measured user traffic.
#
# One table render every TABLE_EVERY requests, round robin over the tables.
# A table render costs about 100 catalog queries, so leaving it to the Zipf
# draw would let the seed decide the workload's cost; at this rate table
# renders are about 30 % of the in-process work.
TABLE_EVERY = 250
# Zipf exponent inside each request class.  Lower is flatter: the hottest
# key of a class gets a small share, so the seed moves the cost little while
# keys still recur thousands of times per run.
MIX_ZIPF_S = 0.7

# query_huge: every block of HUGE_BLOCK requests covers HUGE_RANGE in
# HUGE_BLOCK strata, and m and n come from the same stratum.  The order's
# size, which sets the cost, then spreads the same way in every block and
# for every seed; the seed only moves values inside the strata.
HUGE_RANGE = (200, 2000)
HUGE_BLOCK = 10
HUGE_PRIMES = (2, 3, 5, 7, 11, 13)
# When ell divides p, G(m,p,n) has up to gcd(p, n) minimal reflection
# classes and a report factors the order of each; p shares at most this
# factor with n, or one request can cost minutes.
HUGE_MAX_GCD = 3
# Second factors for products, with their orders, so that checks of the
# answers do not ask the program for them.
HUGE_PARTNERS = (("G4", 24), ("G23", 120), ("G28", 1152), ("G(3,1,2)", 18),
                 ("G(4,2,3)", 192), ("G(1,1,5)", 120))
# Per stratum, smallest orders first: the request kind, whether the group
# is a product, the number of prime factors of m with multiplicity, and
# whether ell divides m.  Factoring m^n n!/p costs about n big-integer
# divisions per prime factor of m, and a parabolic report costs about twice
# as much when ell divides m, so fixing both per stratum keeps the seed from
# moving the cost while primes, semiprimes and smooth m, and both cases of
# ell, all occur.  Parabolic and reflection reports dominate, so the median
# latency sits inside the factoring-bound reports and not between two modes.
HUGE_STRATA = (("parabolic", False, 2, True), ("reflection", False, 3, True),
               ("sylow", False, 1, False), ("parabolic", False, 4, False),
               ("reflection", True, 2, False), ("parabolic", False, 3, True),
               ("reflection", False, 1, False), ("sylow", False, 2, True),
               ("parabolic", False, 4, True), ("reflection", True, 3, False))


def report_key(kind: str, spec: str, ell) -> str:
    return f"report|{kind}|{spec}|{ell}"


def sylow_key(spec: str, ell: int) -> str:
    return f"sylow|{spec}|{ell}"


def table_key(table_id: str) -> str:
    return f"table|{table_id}"


def cli_argv(key: str) -> list[str]:
    """The sylowclass command line that answers the same request."""
    parts = key.split("|")
    if parts[0] == "report":
        _, kind, spec, ell = parts
        return ["classify", "--group", spec, "--ell", ell, "--kind", kind,
                "--format", "json"]
    if parts[0] == "sylow":
        _, spec, ell = parts
        return ["sylow", "--group", spec, "--ell", ell, "--format", "json"]
    return ["tables", "--id", parts[1], "--format", "json"]


def key_class(key: str) -> str:
    """Request class used to balance the mix: request type and group shape."""
    parts = key.split("|")
    if parts[0] == "table":
        return "table"
    spec = parts[2] if parts[0] == "report" else parts[1]
    shape = "product" if " x " in spec or "^" in spec else (
        "imprimitive" if spec.startswith("G(") else "exceptional")
    kind = "report_all" if parts[0] == "report" and parts[3] == "all" else parts[0]
    return f"{kind}:{shape}"


# ---------------------------------------------------------------------------
# query_mix


def _zipf_sampler(n: int, s: float):
    cumulative = list(accumulate(1.0 / (rank + 1) ** s for rank in range(n)))
    total = cumulative[-1]
    return lambda rng: min(bisect_right(cumulative, rng.random() * total), n - 1)


def mix_stream(universe, seed: int, tag: str = "inproc"):
    """Endless query_mix stream over the recorded universe of keys.

    Each class of keys (see key_class) gets a fixed share of the requests,
    its share of the universe, in a fixed interleaving.  Inside a class the
    seed shuffles the keys and a Zipf draw picks one, so the same keys
    recur.  Tables come in on a fixed schedule, every TABLE_EVERY requests.
    """
    rng = random.Random(f"query_mix:{tag}:{seed}")
    classes: dict[str, list[str]] = {}
    for key in sorted(universe):
        classes.setdefault(key_class(key), []).append(key)
    tables = classes.pop("table", [])
    rng.shuffle(tables)
    names = sorted(classes)
    for name in names:
        rng.shuffle(classes[name])
    samplers = {name: _zipf_sampler(len(classes[name]), MIX_ZIPF_S) for name in names}
    sizes = [len(classes[name]) for name in names]
    total = sum(sizes)
    # Smooth weighted round robin: deterministic, exact class shares.
    credit = [0] * len(names)
    count = 0
    while True:
        count += 1
        if tables and count % TABLE_EVERY == 0:
            yield tables[(count // TABLE_EVERY) % len(tables)]
            continue
        for i, size in enumerate(sizes):
            credit[i] += size
        pick = max(range(len(names)), key=credit.__getitem__)
        credit[pick] -= total
        keys = classes[names[pick]]
        yield keys[samplers[names[pick]](rng)]


def mix_cli_lines(universe, seed: int, count: int, window: int) -> list[str]:
    """Keys answered through the sylowclass command line, one process each.

    The last line of every `window` lines is a table, round robin over the
    tables from a seeded start; the others come from the query_mix stream
    without its tables.  Every window then runs each command
    (classify, sylow, tables) and costs about the same.
    """
    stream = (k for k in mix_stream(universe, seed, tag="cli") if key_class(k) != "table")
    tables = sorted(k for k in universe if key_class(k) == "table")
    first = random.Random(f"query_mix:cli-tables:{seed}").randrange(len(tables))
    return [tables[(first + i // window) % len(tables)] if i % window == window - 1
            else next(stream) for i in range(count)]


# ---------------------------------------------------------------------------
# query_huge


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _omega(x: int) -> int:
    """Number of prime factors of x, with multiplicity."""
    count, d = 0, 2
    while d * d <= x:
        while x % d == 0:
            x //= d
            count += 1
        d += 1
    return count + (x > 1)


def huge_stream(seed: int, tag: str = "inproc"):
    """Endless query_huge stream; no key repeats.

    Yields (key, (m, p, n), partner order): the checks compute |G| from
    these, m^n n!/p times the partner's order, without the program.
    """
    rng = random.Random(f"query_huge:{tag}:{seed}")
    seen = set()
    lo, hi = HUGE_RANGE
    width = (hi - lo + 1) / HUGE_BLOCK
    while True:
        block = []
        for i, (kind, product, omega, ell_divides_m) in enumerate(HUGE_STRATA):
            stratum = range(lo + int(i * width), lo + int((i + 1) * width))
            m = rng.choice([x for x in stratum if _omega(x) == omega
                            and any(x % ell == 0 for ell in HUGE_PRIMES) >= ell_divides_m])
            n = rng.choice(stratum)
            p = rng.choice([d for d in _divisors(m) if gcd(d, n) <= HUGE_MAX_GCD])
            spec = f"G({m},{p},{n})"
            partner_order = 1
            if product:
                partner, partner_order = rng.choice(HUGE_PARTNERS)
                spec = f"{spec} x {partner}"
            ell = rng.choice([ell for ell in HUGE_PRIMES if (m % ell == 0) == ell_divides_m])
            key = (sylow_key(spec, ell) if kind == "sylow"
                   else report_key(kind, spec, ell))
            block.append((key, (m, p, n), partner_order))
        rng.shuffle(block)
        for item in block:
            if item[0] not in seen:
                seen.add(item[0])
                yield item


def huge_cli_lines(seed: int, count: int) -> list:
    stream = huge_stream(seed, tag="cli")
    return [next(stream) for _ in range(count)]
