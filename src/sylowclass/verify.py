"""Oracle-versus-theorem verification campaign.

For every grid point G(m,p,n) under the order cap and every prime dividing
the order, the brute-force oracle's minimal parabolic class and minimal
reflection classes are compared against the closed-form answers (orders,
class counts, and augmented-partition labels), and a concretely generated
Sylow subgroup is checked against the structure-term order.  Grid points
run independently, so the campaign parallelizes across processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import classify, groups, oracle, structure
from .groups import Exceptional, GroupType, Imprimitive, normalize
# perfbench/tracing.py wraps verify.prime_factors, so the name stays here.
from .valuation import nu, prime_factors  # noqa: F401

DEFAULT_MAX_M = 16
DEFAULT_MAX_N = 8


def grid_points(max_m: int = DEFAULT_MAX_M, max_n: int = DEFAULT_MAX_N,
                order_cap: int = oracle.DEFAULT_ORDER_CAP) -> list[tuple[int, int, int]]:
    """All (m,p,n) with p | m, nontrivial order at most the cap."""
    points = []
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p:
                continue
            for n in range(1, max_n + 1):
                size = groups.order(Imprimitive(m, p, n))
                if 2 <= size <= order_cap:
                    points.append((m, p, n))
    return points


def _sort_key(g: GroupType):
    if isinstance(g, Imprimitive):
        return (0, g.m, g.p, g.n)
    if isinstance(g, Exceptional):
        return (1, g.st)
    return (2, tuple(_sort_key(f) for f in g.factors))


def _label_multiset(gs) -> list:
    return sorted(_sort_key(normalize(g)) for g in gs)


@dataclass
class Check:
    name: str
    ell: int
    passed: bool
    detail: str = ""


@dataclass
class GroupReport:
    m: int
    p: int
    n: int
    order: int
    checks: list[Check] = field(default_factory=list)
    skipped: bool = False
    skip_reason: str = ""

    @property
    def label(self) -> str:
        return f"G({self.m},{self.p},{self.n})"

    @property
    def passed(self) -> bool:
        return self.skipped or all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        if self.skipped:
            return [f"SKIP {self.label}: {self.skip_reason}"]
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail and not c.passed else ""
            out.append(f"{status} {self.label} ell={c.ell} {c.name}{detail}")
        return out


@dataclass
class CampaignReport:
    reports: list[GroupReport]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def counts(self) -> dict[str, int]:
        checks = [c for r in self.reports for c in r.checks]
        return {
            "groups": len(self.reports),
            "skipped": sum(r.skipped for r in self.reports),
            "checks": len(checks),
            "failed": sum(not c.passed for c in checks),
        }

    def summary(self) -> str:
        c = self.counts
        return (f"{c['groups']} groups ({c['skipped']} skipped), "
                f"{c['checks']} checks, {c['failed']} failed")

    def as_dict(self) -> dict:
        return {
            "groups": [
                {
                    "group": r.label,
                    "order": r.order,
                    "skipped": r.skipped,
                    "skip_reason": r.skip_reason,
                    "checks": [
                        {"name": c.name, "ell": c.ell, "passed": c.passed,
                         "detail": c.detail}
                        for c in r.checks
                    ],
                }
                for r in self.reports
            ],
            "summary": self.counts,
            "all_passed": self.all_passed,
        }


def verify_group(m: int, p: int, n: int, ells=None,
                 order_cap: int = oracle.DEFAULT_ORDER_CAP) -> GroupReport:
    """Run the oracle-vs-theorem checks for one grid point."""
    size = groups.order(Imprimitive(m, p, n))
    report = GroupReport(m, p, n, size)
    ambient = normalize(Imprimitive(m, p, n))
    try:
        conc = oracle.enumerate_group(m, p, n, order_cap)
    except oracle.ResourceLimitError as exc:
        report.skipped = True
        report.skip_reason = str(exc)
        return report

    primes = groups.group_primes(ambient) if ells is None else [
        ell for ell in ells if size % ell == 0]
    parab = oracle.parabolic_classes(conc)
    refl = oracle.reflection_subgroup_classes(conc)

    for ell in primes:
        report.checks.extend(_check_prime(conc, ambient, parab, refl, ell))
    return report


def _check_prime(conc, ambient, parab, refl, ell) -> list[Check]:
    checks = []

    theorem = classify.classify_parabolic(ambient, ell)
    minimal = oracle.minimal_full_valuation(conc, parab, ell)
    ok = len(minimal) == 1
    detail = f"{len(minimal)} minimal parabolic classes"
    if ok:
        cls = minimal[0]
        want = _label_multiset(theorem.member_groups())
        got = _label_multiset(
            [oracle.identify_class(conc, cls.representative).group()])
        ok = cls.order == theorem.member_order and want == got
        detail = (f"oracle order {cls.order} vs {theorem.member_order}")
    checks.append(Check("parabolic", ell, ok, detail))

    theorem = classify.classify_reflection(ambient, ell)
    minimal = oracle.minimal_full_valuation(conc, refl, ell)
    ok = len(minimal) == theorem.class_count
    detail = f"oracle {len(minimal)} classes vs theorem {theorem.class_count}"
    if ok:
        got_orders = sorted(c.order for c in minimal)
        want_orders = sorted(theorem.orders)
        got_labels = _label_multiset(
            oracle.identify_class(conc, c.representative).group()
            for c in minimal)
        want_labels = _label_multiset(theorem.member_groups())
        ok = got_orders == want_orders and got_labels == want_labels
        detail = f"orders {got_orders} vs {want_orders}"
        if ok and theorem.class_count > 1:
            # twisted copies of one type are normalizer-translates, so
            # their conjugacy classes must have equal sizes
            sizes = {c.size for c in minimal}
            ok = len(sizes) == 1
            detail = f"unequal class sizes {sorted(sizes)}" if not ok else detail
    checks.append(Check("reflection", ell, ok, detail))

    expected = ell ** nu(ell, conc.size)
    term_order = structure.structure_order(
        structure.sylow_structure(ambient, ell))
    try:
        built = oracle.sylow_construct(conc, ell).order
    except oracle.OracleConsistencyError as exc:
        checks.append(Check("sylow", ell, False, str(exc)))
        return checks
    checks.append(Check(
        "sylow", ell, built == expected == term_order,
        f"built {built}, term {term_order}, expected {expected}"))
    return checks


def _verify_point(args) -> GroupReport:
    (m, p, n), ells, cap = args
    return verify_group(m, p, n, ells, cap)


def run_campaign(points=None, ells=None,
                 order_cap: int = oracle.DEFAULT_ORDER_CAP,
                 jobs: int | None = None) -> CampaignReport:
    """Verify every grid point, optionally in parallel processes."""
    if points is None:
        points = grid_points(order_cap=order_cap)
    tasks = [(pt, ells, order_cap) for pt in points]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(tasks) or 1))
    if jobs == 1:
        reports = [_verify_point(t) for t in tasks]
    else:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(jobs) as pool:
            reports = pool.map(_verify_point, tasks, chunksize=1)
    return CampaignReport(reports)


def observation_report(max_m: int = 12, max_n: int = 6):
    """Observation campaign over the full catalog; returns violations."""
    catalog = list(classify.catalog_irreducibles(max_m, max_n))
    return classify.verify_observation(catalog)
