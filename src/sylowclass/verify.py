"""Oracle-versus-theorem verification campaign.

For every grid point G(m,p,n) under the order cap and every prime dividing
the order, the brute-force oracle's minimal parabolic class and minimal
reflection classes are compared against the closed-form answers (orders,
class counts, and augmented-partition labels), and a concretely generated
Sylow subgroup is checked against the structure-term order.  Grid points
run independently, so the campaign parallelizes across processes.

The reports are frozen values (frozen.Frozen), each built once from all
its parts: a Check per comparison, a GroupReport per grid point (its
checks, or the reason it was skipped) and a CampaignReport over them.  The
worker pool pickles each GroupReport back to the parent.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from . import classify, groups, oracle, structure
from .frozen import Frozen
from .groups import Imprimitive, normalize
from .limits import DEFAULT_MAX_M, DEFAULT_MAX_N, DEFAULT_ORDER_CAP
# perfbench/tracing.py wraps verify.prime_factors, so the name stays here.
from .valuation import ell_part, prime_factors  # noqa: F401


def grid_points(max_m: int = DEFAULT_MAX_M, max_n: int = DEFAULT_MAX_N,
                order_cap: int = DEFAULT_ORDER_CAP) -> list[tuple[int, int, int]]:
    """All (m,p,n) of the grid with nontrivial order at most the cap."""
    return [(g.m, g.p, g.n) for g in groups.imprimitive_grid(max_m, max_n, order_cap)
            if groups.order(g) >= 2]


class Check(Frozen):
    """One comparison of the oracle with a closed form at one prime."""

    _fields = ("name", "ell", "passed", "detail")


class GroupReport(Frozen):
    """The checks of one grid point G(m,p,n), or the reason it was skipped
    (never empty)."""

    _fields = ("m", "p", "n", "order", "checks", "skip_reason")

    def __init__(self, m: int, p: int, n: int, order: int, checks=(), skip_reason: str = ""):
        self._store(m, p, n, order, tuple(checks), skip_reason)

    @property
    def skipped(self) -> bool:
        return bool(self.skip_reason)

    @property
    def label(self) -> str:
        return repr(Imprimitive(self.m, self.p, self.n))

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


class CampaignReport(Frozen):
    """The group reports of one campaign, in grid order."""

    _fields = ("reports",)

    def __init__(self, reports):
        self._store(tuple(reports))

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
                 order_cap: int = DEFAULT_ORDER_CAP) -> GroupReport:
    """Run the oracle-vs-theorem checks for one grid point."""
    size = groups.order(Imprimitive(m, p, n))
    ambient = normalize(Imprimitive(m, p, n))
    try:  # the order cap and the lattice's MAX_SUBGROUPS both skip the group
        conc = oracle.enumerate_group(m, p, n, order_cap)
        # the lattice first, so its time shows under its own traced stage;
        # it stays on conc, and parabolic_classes reads its classes there
        refl = oracle.reflection_subgroup_classes(conc)
        parab = oracle.parabolic_classes(conc)
    except oracle.ResourceLimitError as exc:
        return GroupReport(m, p, n, size, skip_reason=str(exc))

    primes = groups.group_primes(ambient) if ells is None else [
        ell for ell in ells if size % ell == 0]
    labels: dict = {}
    return GroupReport(m, p, n, size, [
        check for ell in primes
        for check in _check_prime(conc, ambient, parab, refl, ell, labels)])


def _check_prime(conc, ambient, parab, refl, ell, labels) -> list[Check]:
    """The checks of one prime; labels memoises identify_class by reflection
    mask across the primes of one group."""
    def identify(h):
        if h.refl_key not in labels:
            labels[h.refl_key] = oracle.identify_class(conc, h)
        return labels[h.refl_key]

    checks = []

    theorem = classify.classify_parabolic(ambient, ell)
    minimal = oracle.minimal_full_valuation(conc, parab, ell)
    ok = len(minimal) == 1
    detail = f"{len(minimal)} minimal parabolic classes"
    if ok:
        cls = minimal[0]
        want = Counter(map(normalize, theorem.member_groups()))
        got = Counter([normalize(identify(cls.representative).group())])
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
        got_labels = Counter(
            normalize(identify(c.representative).group()) for c in minimal)
        want_labels = Counter(map(normalize, theorem.member_groups()))
        ok = got_orders == want_orders and got_labels == want_labels
        detail = f"orders {got_orders} vs {want_orders}"
        if ok and theorem.class_count > 1:
            # twisted copies of one type are normalizer-translates, so
            # their conjugacy classes must have equal sizes
            sizes = {c.size for c in minimal}
            ok = len(sizes) == 1
            detail = f"unequal class sizes {sorted(sizes)}" if not ok else detail
    checks.append(Check("reflection", ell, ok, detail))

    expected = ell_part(ell, conc.size)
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


def _verify_point(args) -> tuple[GroupReport, float]:
    (m, p, n), ells, cap = args
    start = time.perf_counter()
    report = verify_group(m, p, n, ells, cap)
    return report, time.perf_counter() - start


def run_campaign(points=None, ells=None,
                 order_cap: int = DEFAULT_ORDER_CAP,
                 jobs: int | None = None, progress=None) -> CampaignReport:
    """Verify every grid point, optionally in parallel processes.

    progress, if given, is called with each GroupReport and the seconds its
    group took, in grid order, as soon as that group and every group
    before it have finished."""
    if points is None:
        points = grid_points(order_cap=order_cap)
    tasks = [(pt, ells, order_cap) for pt in points]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(tasks) or 1))

    def collect(results):
        for report, seconds in results:
            if progress is not None:
                progress(report, seconds)
            yield report

    if jobs == 1:
        return CampaignReport(collect(map(_verify_point, tasks)))
    import multiprocessing as mp

    with mp.get_context("fork").Pool(jobs) as pool:
        return CampaignReport(collect(pool.imap(_verify_point, tasks, chunksize=1)))
