"""Theorem-driven classification of the minimal parabolic class P_ell and
the minimal reflection classes R_ell.

The infinite family G(m,p,n) has closed forms in a = ell^nu(m) and the
ell-adic partition lambda(ell, n) (valuation.lambda_blocks): the parabolic
member is G if ell | m, else the product of Sym(k) over k in lambda; the
reflection members are gcd(p/ell^nu(p), n) twisted G(a, ell^nu(p), n) if
ell | p, else the product of G(a,1,k) over k in lambda.  reflection_blocks
is the one place that turns (m, p, n, ell) into these blocks G(a,q,k); the
reflection member is their product, and structure builds the Sylow term of
G(m,p,n) from the same blocks, since a Sylow subgroup of G is one of the
minimal reflection member.  Exceptional groups are table lookups (their
classifications rest on external subgroup tables and are deliberately not
recomputed; the tables module is imported by the first exceptional query,
so a process that asks none never loads it); products classify
componentwise, with ell-free factors contributing nothing.

classify_parabolic and classify_reflection are memoized per process, at
most 1024 answers each, keyed by (g, ell); a product reaches its factors
through the same memo.  A repeated query returns the same answer object,
which is shared and immutable (frozen values with tuple fields, from the
one base in the frozen module); errors are not memoized, and cache_clear()
on either function frees its answers.  An answer renders its report row
(SubgroupClassResult.report_row: group label, factored orders, twists,
cuspidal and supercuspidal) on first use and keeps it, the one value it
keeps (its members keep none), so a repeated report is one memo lookup and
a copy of the kept row; answers that are never printed, such as the factor
answers inside a product, are never rendered.  A product answer with more
than MAX_PRODUCT_CLASSES classes raises TooManyClassesError instead of
listing them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property, lru_cache
from math import gcd, prod

from . import groups
from .frozen import Frozen
from .groups import (
    Exceptional,
    GroupType,
    Imprimitive,
    Product,
    format_factorization,
    format_group,
    normalize,
    order_factorization,
    product_of,
)
from .valuation import ell_part, factorization, is_prime, lambda_blocks

PARABOLIC = "parabolic"
REFLECTION = "reflection"
# A product answer lists every combination of its factors' classes; above
# this many it lists none (G(6,6,3)^11 has 3^11 reflection classes at 2).
MAX_PRODUCT_CLASSES = 10000


class NotADivisorError(ValueError):
    """The prime does not divide the group order."""


class UnsupportedGroupError(ValueError):
    """The operation has no data for this group type."""


class TooManyClassesError(UnsupportedGroupError):
    """A product has more minimal classes than MAX_PRODUCT_CLASSES."""


class ClassMember(Frozen):
    """One conjugacy class in a classification answer, its order factored.

    It keeps no text: its answer's report_row holds the member's label and
    factored order."""

    _fields = ("group", "factors", "distinguisher", "twist_exponent", "label")

    def __init__(self, group: GroupType, factors: groups.Factorization,
                 distinguisher: int = 0, twist_exponent: int | None = None,
                 label: str | None = None):
        self._store(group, factors, distinguisher, twist_exponent, label)

    @property
    def order(self) -> int:
        return prod(q**e for q, e in self.factors)

    @property
    def display_label(self) -> str:
        """The table label, or the group; "~" marks a second class of one
        type that is not a twist."""
        if self.label:
            return ("~" if self.distinguisher else "") + self.label
        base = format_group(self.group)
        if self.twist_exponent is not None or self.distinguisher == 0:
            return base
        return f"~{base}"


class SubgroupClassResult(Frozen):
    """The minimal classes for one (group, prime, kind) query.

    Parabolic answers always have a single class.  Reflection answers may
    have several classes, of equal or (for a few exceptional groups) of
    different member orders; each member carries its own order.  The one
    value an answer keeps is its report_row, computed on first use;
    equality and hashing read the fields only.
    """

    _fields = ("group", "ell", "kind", "members")

    @property
    def class_count(self) -> int:
        return len(self.members)

    @property
    def equals_whole_group(self) -> bool:
        """One minimal class, and its member has the order of G."""
        return (self.class_count == 1
                and self.members[0].factors == order_factorization(self.group))

    @cached_property
    def report_row(self) -> tuple:
        """The values of one classify report, kept on the answer: the group
        label, |G| factored, a tuple of one (label, order factored, twist)
        triple per class, cuspidal and supercuspidal.  The flag of the
        other kind is read from its memoized answer, once per row; a group
        with more than MAX_PRODUCT_CLASSES minimal reflection classes is
        not supercuspidal.  |G| is formatted once, and a member of the
        order of G (the cuspidal case) reuses its text."""
        if self.kind == PARABOLIC:
            cuspidal = self.equals_whole_group
            try:
                supercuspidal = classify_reflection(self.group, self.ell).equals_whole_group
            except TooManyClassesError:
                supercuspidal = False
        else:
            cuspidal = classify_parabolic(self.group, self.ell).equals_whole_group
            supercuspidal = self.equals_whole_group
        g_factors = order_factorization(self.group)
        g_order = format_factorization(g_factors)
        return (format_group(self.group), g_order,
                tuple([(m.display_label,
                        g_order if m.factors == g_factors else format_factorization(m.factors),
                        m.twist_exponent)
                       for m in self.members]),
                cuspidal, supercuspidal)

    @property
    def member_order(self) -> int:
        return self.members[0].order

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(m.order for m in self.members)

    def member_groups(self) -> tuple[GroupType, ...]:
        return tuple(m.group for m in self.members)


def require_divides(g: GroupType, ell: int) -> groups.Factorization:
    """|G| factored; NotADivisorError unless ell divides it, and a plain
    ValueError for an ell that is not prime."""
    g_factors = order_factorization(g)
    i = bisect_left(g_factors, (ell,))
    if i == len(g_factors) or g_factors[i][0] != ell:
        if not is_prime(ell):  # not "does not divide": 4 divides |G(2,1,2)| = 8
            raise ValueError(f"ell must be prime, got {ell}")
        raise NotADivisorError(f"{ell} does not divide |{format_group(g)}|")
    return g_factors


def _member_of(g: GroupType, distinguisher: int = 0,
               twist_exponent: int | None = None) -> ClassMember:
    return ClassMember(g, order_factorization(g), distinguisher, twist_exponent)


@lru_cache(maxsize=1024)
def classify_parabolic(g: GroupType, ell: int) -> SubgroupClassResult:
    """The unique minimal class of parabolic subgroups containing an
    ell-Sylow subgroup."""
    g = normalize(g)
    require_divides(g, ell)

    if isinstance(g, Product):
        return _classify_product(g, ell, PARABOLIC)

    if isinstance(g, Exceptional):
        return _table_answer(g, ell, PARABOLIC)

    if g.m % ell == 0:
        return SubgroupClassResult(g, ell, PARABOLIC, (_member_of(g),))
    member = _member_of(product_of(lambda_blocks(ell, g.n, groups.Sym, groups.TRIVIAL)))
    return SubgroupClassResult(g, ell, PARABOLIC, (member,))


@lru_cache(maxsize=1024)
def classify_reflection(g: GroupType, ell: int) -> SubgroupClassResult:
    """All minimal classes of reflection subgroups containing an ell-Sylow
    subgroup."""
    g = normalize(g)
    require_divides(g, ell)

    if isinstance(g, Product):
        return _classify_product(g, ell, REFLECTION)

    if isinstance(g, Exceptional):
        return _table_answer(g, ell, REFLECTION)

    member_type = product_of(reflection_blocks(g, ell, Imprimitive, groups.TRIVIAL))
    if g.p % ell:
        return SubgroupClassResult(g, ell, REFLECTION, (_member_of(member_type),))
    return SubgroupClassResult(g, ell, REFLECTION, tuple(
        _member_of(member_type, distinguisher=t, twist_exponent=t)
        for t in range(gcd(g.p // ell_part(ell, g.p), g.n))))


def reflection_blocks(g: Imprimitive, ell: int, block, trivial) -> list:
    """block(a, q, k) for each block G(a,q,k) of the minimal reflection
    member of G(m,p,n) at ell, largest first, with a = ell^nu(m): the one
    place that turns (m, p, n, ell) into blocks.  If ell | p, the one block
    (a, ell^nu(p), n); otherwise (a, 1, k) for each part k of lambda(ell, n),
    leaving out blocks equal to trivial (valuation.lambda_blocks)."""
    a = ell_part(ell, g.m)
    if g.p % ell == 0:
        return [block(a, ell_part(ell, g.p), g.n)]
    return lambda_blocks(ell, g.n, lambda k: block(a, 1, k), trivial)


def _table_answer(g: Exceptional, ell: int, kind: str) -> SubgroupClassResult:
    """An exceptional group's answer, read from its row in t1 (parabolic) or
    in the reflection table that holds it; the n-th class of a label already
    seen in the row has distinguisher n."""
    from . import tables  # the imprimitive family never reads the tables

    table_id = "t1" if kind == PARABOLIC else tables.reflection_table_id(g.st)
    row = tables.lookup(table_id, g, ell)
    labels = [m.label for m in row.members]
    return SubgroupClassResult(g, ell, kind, tuple(
        ClassMember(m.group, factorization(m.order), labels[:i].count(m.label),
                    label=m.label)
        for i, m in enumerate(row.members)))


def _classify_product(g: Product, ell: int, kind: str) -> SubgroupClassResult:
    """Componentwise classification; factors of ell-free order drop out
    (their minimal class is the trivial subgroup).  The classes are the
    combinations of the factors' classes, so their count is the product of
    the factors' counts; above MAX_PRODUCT_CLASSES none are built.  A
    member's distinguisher is its index among the combinations, so every
    member after the first prints "~", even the only class of its type."""
    classify = classify_parabolic if kind == PARABOLIC else classify_reflection
    factor_results = []
    count = 1
    for f in g.factors:
        if ell not in groups.group_primes(f):
            continue
        factor_results.append(classify(f, ell))
        count *= len(factor_results[-1].members)
        if count > MAX_PRODUCT_CLASSES:  # stop before the count grows unbounded
            raise TooManyClassesError(
                f"{format_group(g)} has more than {MAX_PRODUCT_CLASSES} minimal "
                f"{kind} classes at ell = {ell}; at most that many are listed")
    members = []
    for combo in itertools.product(*(r.members for r in factor_results)):
        combined = product_of(c.group for c in combo)
        members.append(ClassMember(
            combined, groups.factorization_product(c.factors for c in combo),
            distinguisher=len(members)))
    return SubgroupClassResult(g, ell, kind, tuple(members))


def is_cuspidal(g: GroupType, ell: int) -> bool:
    """Whether the minimal parabolic class is the whole group."""
    return classify_parabolic(g, ell).equals_whole_group


def is_supercuspidal(g: GroupType, ell: int) -> bool:
    """Whether the minimal reflection class is unique and the whole group."""
    return classify_reflection(g, ell).equals_whole_group


def degrees_criterion(g: GroupType, ell: int) -> bool:
    """Sufficient cuspidality test: ell divides every invariant degree.

    Only the imprimitive family carries degrees data here; a True answer
    implies is_cuspidal, the converse can fail (Sym(3) at ell = 3).
    """
    g = normalize(g)
    if not isinstance(g, Imprimitive):
        raise UnsupportedGroupError(
            "degrees are only available for the imprimitive family")
    require_divides(g, ell)
    degs = groups.degrees_imprimitive(g.m, g.p, g.n)
    return all(d % ell == 0 for d in degs)


def catalog_irreducibles(max_m: int = 12, max_n: int = 6):
    """All in-scope irreducible group types: the imprimitive grid (after
    canonical normalization, deduplicated) and every exceptional index."""
    seen = {groups.TRIVIAL}
    for g in map(normalize, groups.imprimitive_grid(max_m, max_n)):
        if g not in seen:
            seen.add(g)
            yield g
    for st in range(4, 38):
        yield Exceptional(st)


class ObservationViolation(Frozen):
    """A group and prime whose proper parabolic answer is not supercuspidal."""

    _fields = ("group", "ell", "parabolic")


def verify_observation(catalog=None) -> list[ObservationViolation]:
    """Check that whenever ell is not cuspidal for an irreducible G, it is
    supercuspidal for the parabolic answer.  Returns violations (expected
    to be empty)."""
    if catalog is None:
        catalog = catalog_irreducibles()
    violations = []
    for g in catalog:
        for ell in groups.group_primes(g):
            result = classify_parabolic(g, ell)
            if result.equals_whole_group:
                continue
            member = result.members[0].group
            if not is_supercuspidal(member, ell):
                violations.append(ObservationViolation(g, ell, member))
    return violations
