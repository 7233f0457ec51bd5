"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s
or -rA to see them all).  All comparisons are exact integer equalities;
the stated time budgets are asserted with wide margins.
"""

import json
import math
import time
from pathlib import Path

import pytest

from sylowclass import cli, oracle, verify
from sylowclass.classify import (
    catalog_irreducibles,
    degrees_criterion,
    is_cuspidal,
    verify_observation,
)
from sylowclass.groups import (
    Imprimitive,
    Sym,
    alpha_class_count,
    augmented_partition,
    order,
)
from sylowclass.structure import structure_order, sylow_structure
from sylowclass.tables import KNOWN_ANOMALY_IDS, check_consistency, load_tables
from sylowclass.valuation import (
    kummer_carries,
    minimal_factorial_partition,
    nu,
    nu_factorial,
    prime_factors,
)

from partitions import iter_partitions

PRIMES = (2, 3, 5, 7)


def report(num: int, description: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: {status}{timing} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def timed_campaign():
    """The default campaign on 2 workers, and the seconds it took."""
    started = time.monotonic()
    rep = verify.run_campaign(jobs=2)
    return rep, time.monotonic() - started


@pytest.fixture(scope="module")
def campaign(timed_campaign):
    return timed_campaign[0]


def grid(max_m=12, max_n=6, cap=None):
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p == 0:
                for n in range(1, max_n + 1):
                    size = order(Imprimitive(m, p, n))
                    if size >= 2 and (cap is None or size <= cap):
                        yield m, p, n


def test_criterion_1_oracle_theorem_equivalence(timed_campaign):
    """Every G(m,p,n) of order <= 20000 on the default grid, every prime:
    oracle minimal parabolic class and minimal reflection classes equal
    the closed-form answers (order, count, labels)."""
    campaign, elapsed = timed_campaign
    enough_groups = len(campaign.reports) >= 150
    none_skipped = campaign.counts["skipped"] == 0
    checks = [c for r in campaign.reports for c in r.checks
              if c.name in ("parabolic", "reflection")]
    all_ok = all(c.passed for c in checks)
    in_budget = elapsed < 600
    report(1, f"oracle equivalence on {len(campaign.reports)} groups, "
              f"{len(checks)} classification checks",
           enough_groups and none_skipped and all_ok and in_budget,
           elapsed)


def test_criterion_2_class_count_reproduction():
    """Oracle conjugacy on G(12,6,3) yields exactly 3 classes of type
    G(4,2,3) at ell=2, matching gcd(p/2^v2(p), n) and m/k."""
    started = time.monotonic()
    conc = oracle.enumerate_group(12, 6, 3)
    classes = oracle.minimal_full_valuation(
        conc, oracle.reflection_subgroup_classes(conc), 2)
    labels_ok = all(
        oracle.identify_class(conc, c.representative).group() ==
        Imprimitive(4, 2, 3) and c.order == 192
        for c in classes)
    gcd_formula = math.gcd(6 // 2 ** nu(2, 6), 3)
    delta = augmented_partition([(4, 2, 3)], (12, 6, 3))
    modulus_formula = alpha_class_count(delta)
    elapsed = time.monotonic() - started
    ok = (len(classes) == 3 == gcd_formula == modulus_formula
          and labels_ok and elapsed < 30)
    report(2, "G(12,6,3) at ell=2 has exactly 3 classes of G(4,2,3)",
           ok, elapsed)


def test_criterion_3_table_regeneration():
    """cmd_tables reproduces all rows of the five tables and the
    consistency checker reports exactly the three documented anomalies."""
    tabs = load_tables()
    key_of = {"t1": "parabolic", "t2": "cuspidal", "t3": "reflection",
              "t3b": "reflection", "t4": "supercuspidal", "t5": "nonunique"}
    generated = {k: cli.generate_table(k) for k in cli.TABLE_NAMES}
    missing = []
    for table_id, key in key_of.items():
        for row in tabs.concrete(table_id):
            want_ell = ",".join(map(str, row.ell_list))
            hits = [g for g in generated[key]
                    if g["group"].split("=")[0] == f"G{row.group.st}"
                    and str(g["ell"]) == want_ell]
            if table_id in ("t1", "t3", "t3b", "t5"):
                want_members = " and ".join(m.display() for m in row.members)
                hits = [g for g in hits if g["members"] == want_members
                        or g["members"] == row.members[0].label]
            if not hits:
                missing.append((table_id, row.group_label, row.ell_list))
    # family rows are rendered too
    family_ok = all(
        any(g["group"] == row.group_label for g in generated[key_of[tid]])
        for tid in ("t1", "t2", "t3", "t4", "t5")
        for row in tabs.family(tid))
    anomalies = check_consistency()
    anomalies_ok = (sorted(anomalies.known_ids) == sorted(KNOWN_ANOMALY_IDS)
                    and anomalies.unexpected == [])
    # renders are kept on the loaded tables: compare the kept text with a
    # render made after dropping it
    kept = {(k, fmt): cli.render_table(k, fmt)
            for k in cli.TABLE_NAMES for fmt in ("markdown", "json")}
    load_tables.cache_clear()
    stable = all(cli.render_table(*key) == text for key, text in kept.items())
    report(3, f"all table rows regenerate ({sum(len(v) for v in generated.values())} "
              f"rows) and exactly 3 documented anomalies",
           not missing and family_ok and anomalies_ok and stable)


def test_campaign_matches_recorded_grid(campaign):
    """The groups of order <= 5000 in the default campaign are, check for
    check, the benchmark's recorded verify_grid answer (recorded at cap 5000
    by perfbench/make_reference.py)."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    recorded = json.loads((reference / "verify_grid.json").read_text())["groups"]
    ours = [g for g in campaign.as_dict()["groups"] if g["order"] <= 5000]
    assert ours == recorded


def test_criterion_4_sylow_order_identity(campaign):
    """structure_order(sylow_structure(G, ell)) equals the ell-part of |G|
    on the grid and on every supercuspidal table row, and the oracle
    realizes that order concretely on every enumerable grid group."""
    started = time.monotonic()
    symbolic_ok = True
    for m, p, n in grid(12, 6):
        g = Imprimitive(m, p, n)
        for ell in prime_factors(order(g)):
            term = sylow_structure(g, ell)
            if structure_order(term) != ell ** nu(ell, order(g)):
                symbolic_ok = False

    # all supercuspidal rows: exceptional ones plus instantiated families
    table4_ok = True
    tabs = load_tables()
    for row in tabs.concrete("t4"):
        for ell in row.ell_list:
            term = sylow_structure(row.group, ell)
            if structure_order(term) != ell ** nu(ell, order(row.group)):
                table4_ok = False
    family_instances = [
        (Sym(ell**i), ell) for ell in (2, 3) for i in (1, 2, 3)
    ] + [
        (Imprimitive(ell**i, ell**j, n), ell)
        for ell in (2, 3) for i in (1, 2) for j in range(1, i + 1)
        for n in (2, 3, 4)
    ] + [
        (Imprimitive(ell**i, 1, ell**j), ell)
        for ell in (2, 3) for i in (1, 2) for j in (1, 2)
    ] + [
        (Imprimitive(ell**i, 1, 1), ell) for ell in (2, 3, 5) for i in (1, 2, 3)
    ]
    for g, ell in family_instances:
        if structure_order(sylow_structure(g, ell)) != ell ** nu(ell, order(g)):
            table4_ok = False

    concrete_ok = True
    built = 0
    for m, p, n in grid(12, 6, cap=oracle.DEFAULT_ORDER_CAP):
        conc = oracle.enumerate_group(m, p, n)
        for ell in prime_factors(conc.size):
            expected = ell ** nu(ell, conc.size)
            if oracle.sylow_construct(conc, ell).order != expected:
                concrete_ok = False
            built += 1
    elapsed = time.monotonic() - started
    report(4, f"Sylow order identity (symbolic grid + table rows, "
              f"{built} concrete constructions)",
           symbolic_ok and table4_ok and concrete_ok and elapsed < 300,
           elapsed)


def _partitions_ascending(n):
    # Kelleher's ascending-composition generator (fast, allocation-light).
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield a[:k + 1]


FIELD_BITS = 64  # one field per prime in a packed value
FIELD = (1 << FIELD_BITS) - 1
COLUMNS = (1 << 56) - 1  # digit columns of a field; byte 7 is the valuation


def _packed_digit_table(nmax):
    """packed[x] holds one 64-bit field per prime of PRIMES, in order: the
    base-ell digits of x in byte fields 0..6 and nu_ell(x!) in byte 7.
    Summing packed values over the parts of a partition accumulates every
    prime's digit columns and factorial valuations in one pass.  No byte
    overflows into the next, because every column sum and every
    valuation sum is at most n <= nmax < 256."""
    packed = [0] * (nmax + 1)
    for k, ell in enumerate(PRIMES):
        for x in range(nmax + 1):
            value, shift, acc = x, 0, 0
            while value:
                value, digit = divmod(value, ell)
                acc |= digit << shift
                shift += 8
            acc |= nu_factorial(ell, x) << 56
            packed[x] |= acc << (FIELD_BITS * k)
    return packed


def _carries_from_columns(cols: int, ell: int) -> int:
    carries = 0
    carry = 0
    while cols or carry:
        carry = ((cols & 0xFF) + carry) // ell
        carries += carry
        cols >>= 8
    return carries


class _Mismatches(dict):
    """Verdicts for one prime and one n, memoized on that prime's field of
    a packed sum: 1 when the literal carries of the digit columns differ
    from nu(n!) minus the valuation sum, else 0."""

    def __init__(self, ell, n):
        super().__init__()
        self.ell = ell
        self.nu_n = nu_factorial(ell, n)

    def __missing__(self, field):
        verdict = int(_carries_from_columns(field & COLUMNS, self.ell)
                      != self.nu_n - (field >> 56))
        self[field] = verdict
        return verdict


def test_criterion_5_valuation_suite():
    """Kummer carries equal literal base-ell carries on all partitions of
    every n <= 60; the minimal factorial partition is unbeaten among
    carry-free partitions up to n = 30."""
    started = time.monotonic()
    nmax = 60
    packed = _packed_digit_table(nmax)
    mismatches = 0
    partitions = 0
    for n in range(1, nmax + 1):
        v0, v1, v2, v3 = (_Mismatches(ell, n) for ell in PRIMES)
        for parts in _partitions_ascending(n):
            partitions += 1
            t = sum(map(packed.__getitem__, parts))
            mismatches += (v0[t & FIELD] + v1[t >> 64 & FIELD]
                           + v2[t >> 128 & FIELD] + v3[t >> 192])
    checked = partitions * len(PRIMES)
    # tie the fast tables back to the public functions on a sample
    sample_ok = all(
        kummer_carries(ell, parts) ==
        _carries_from_columns(
            sum(map(packed.__getitem__, parts)) >> (FIELD_BITS * k) & COLUMNS,
            ell)
        for k, ell in enumerate(PRIMES)
        for parts in [(7, 5, 3, 1), (32, 16, 8, 4), (13, 13, 13), (60,)]
    )

    minimal_ok = True
    for ell in PRIMES:
        for n in range(1, 31):
            ours = minimal_factorial_partition(ell, n)
            ours_prod = math.prod(math.factorial(a) for a in ours)
            if kummer_carries(ell, ours) != 0:
                minimal_ok = False
            best = min(
                math.prod(math.factorial(a) for a in parts)
                for parts in iter_partitions(n)
                if kummer_carries(ell, parts) == 0)
            if best != ours_prod:
                minimal_ok = False
    elapsed = time.monotonic() - started
    report(5, f"Kummer dual computation on {checked} (partition, prime) "
              f"pairs; minimal partition unbeaten to n=30",
           mismatches == 0 and sample_ok and minimal_ok and elapsed < 60,
           elapsed)


def test_criterion_6_observation():
    """Whenever ell is not cuspidal for an irreducible G in the catalog,
    it is supercuspidal for the parabolic answer; zero violations."""
    violations = verify_observation(catalog_irreducibles(12, 6))
    count = sum(1 for _ in catalog_irreducibles(12, 6))
    report(6, f"observation holds across {count} catalog groups "
              f"({len(violations)} violations)", violations == [])


def test_criterion_7_degrees_criterion_soundness():
    """degrees_criterion implies cuspidality on the whole grid, and the
    converse fails at the recorded witness Sym(3), ell = 3."""
    sound = True
    for m, p, n in grid(12, 6):
        g = Imprimitive(m, p, n)
        for ell in prime_factors(order(g)):
            if degrees_criterion(g, ell) and not is_cuspidal(g, ell):
                sound = False
    witness = (not degrees_criterion(Sym(3), 3)) and is_cuspidal(Sym(3), 3)
    report(7, "degrees criterion sound on grid; converse fails at "
              "(G(1,1,3), 3)", sound and witness)
