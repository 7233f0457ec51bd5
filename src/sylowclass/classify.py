"""Theorem-driven classification of the minimal parabolic class P_ell and
the minimal reflection classes R_ell.

The infinite family G(m,p,n) has closed forms in a = ell^nu(m) and the
ell-adic partition lambda(ell, n) (valuation.lambda_blocks): the parabolic
member is G if ell | m, else the product of Sym(k) over k in lambda; the
reflection members are gcd(p/ell^nu(p), n) twisted G(a, ell^nu(p), n) if
ell | p, else the product of G(a,1,k) over k in lambda.  Exceptional groups
are table lookups (their classifications rest on external subgroup tables
and are deliberately not recomputed); products classify componentwise,
with ell-free factors contributing nothing.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, prod

from . import groups, tables
from .groups import (
    Exceptional,
    GroupType,
    Imprimitive,
    Product,
    format_group,
    normalize,
    order_factorization,
    product_of,
)
from .valuation import ell_part, factorization, lambda_blocks

PARABOLIC = "parabolic"
REFLECTION = "reflection"


class NotADivisorError(ValueError):
    """The prime does not divide the group order."""


class UnsupportedGroupError(ValueError):
    """The operation has no data for this group type."""


@dataclass(frozen=True)
class ClassMember:
    """One conjugacy class in a classification answer, its order factored."""

    group: GroupType
    factors: groups.Factorization
    distinguisher: int = 0
    twist_exponent: int | None = None
    label: str | None = None

    @property
    def order(self) -> int:
        return prod(q**e for q, e in self.factors)

    def display(self) -> str:
        if self.label:
            return ("~" if self.distinguisher else "") + self.label
        base = format_group(self.group)
        if self.twist_exponent is not None or self.distinguisher == 0:
            return base
        return f"~{base}"


@dataclass(frozen=True)
class SubgroupClassResult:
    """The minimal classes for one (group, prime, kind) query.

    Parabolic answers always have a single class.  Reflection answers may
    have several classes, of equal or (for a few exceptional groups) of
    different member orders; each member carries its own order.
    """

    group: GroupType
    ell: int
    kind: str
    members: tuple[ClassMember, ...]
    equals_whole_group: bool
    twist_modulus: int | None = None

    @property
    def class_count(self) -> int:
        return len(self.members)

    @property
    def is_whole_single_class(self) -> bool:
        """One minimal class, and it is the whole group."""
        return self.class_count == 1 and self.equals_whole_group

    @property
    def member_order(self) -> int:
        return self.members[0].order

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(m.order for m in self.members)

    def member_groups(self) -> tuple[GroupType, ...]:
        return tuple(m.group for m in self.members)

    def twist_descriptors(self) -> list[dict]:
        """Twist coset data for imprimitive multi-class answers: member t
        is conjugation by the diagonal phase alpha = zeta_m^t."""
        if self.twist_modulus is None:
            return []
        return [
            {"alpha_exponent": m.twist_exponent, "modulus": self.twist_modulus}
            for m in self.members
            if m.twist_exponent is not None
        ]


def require_divides(g: GroupType, ell: int) -> groups.Factorization:
    """|G| factored; NotADivisorError unless ell divides it."""
    g_factors = order_factorization(g)
    i = bisect_left(g_factors, (ell,))
    if i == len(g_factors) or g_factors[i][0] != ell:
        raise NotADivisorError(f"{ell} does not divide |{format_group(g)}|")
    return g_factors


def _member_of(g: GroupType, distinguisher: int = 0,
               twist_exponent: int | None = None) -> ClassMember:
    return ClassMember(normalize(g), order_factorization(g), distinguisher, twist_exponent)


def classify_parabolic(g: GroupType, ell: int) -> SubgroupClassResult:
    """The unique minimal class of parabolic subgroups containing an
    ell-Sylow subgroup."""
    g = normalize(g)
    g_factors = require_divides(g, ell)

    if isinstance(g, Product):
        return _classify_product(g, ell, PARABOLIC)

    if isinstance(g, Exceptional):
        row = tables.lookup("t1", g, ell)
        member = row.members[0]
        result_member = ClassMember(
            normalize(member.group), factorization(member.order), label=member.label)
        return SubgroupClassResult(
            g, ell, PARABOLIC, (result_member,),
            equals_whole_group=result_member.group == g)

    if g.m % ell == 0:
        return SubgroupClassResult(
            g, ell, PARABOLIC, (_member_of(g),), equals_whole_group=True)
    member = _member_of(product_of(lambda_blocks(ell, g.n, groups.Sym, groups.TRIVIAL)))
    return SubgroupClassResult(
        g, ell, PARABOLIC, (member,),
        equals_whole_group=member.factors == g_factors)


def classify_reflection(g: GroupType, ell: int) -> SubgroupClassResult:
    """All minimal classes of reflection subgroups containing an ell-Sylow
    subgroup."""
    g = normalize(g)
    g_factors = require_divides(g, ell)

    if isinstance(g, Product):
        return _classify_product(g, ell, REFLECTION)

    if isinstance(g, Exceptional):
        table_id = "t3" if g.st >= 23 else "t3b"
        row = tables.lookup(table_id, g, ell)
        members = []
        seen: dict[str, int] = {}
        for member in row.members:
            idx = seen.get(member.label, 0)
            seen[member.label] = idx + 1
            members.append(ClassMember(
                normalize(member.group), factorization(member.order),
                distinguisher=idx, label=member.label))
        single = len(members) == 1
        return SubgroupClassResult(
            g, ell, REFLECTION, tuple(members),
            equals_whole_group=single and members[0].group == g)

    m, p, n = g.m, g.p, g.n
    if p % ell == 0:
        member_type = Imprimitive(ell_part(ell, m), ell_part(ell, p), n)
        count = gcd(p // ell_part(ell, p), n)
        modulus = m // count
        members = tuple(
            _member_of(member_type, distinguisher=t, twist_exponent=t)
            for t in range(count)
        )
        return SubgroupClassResult(
            g, ell, REFLECTION, members,
            equals_whole_group=count == 1 and members[0].factors == g_factors,
            twist_modulus=modulus)

    a = ell_part(ell, m)
    member = _member_of(product_of(
        lambda_blocks(ell, n, lambda k: Imprimitive(a, 1, k), groups.TRIVIAL)))
    return SubgroupClassResult(
        g, ell, REFLECTION, (member,),
        equals_whole_group=member.factors == g_factors)


def _classify_product(g: Product, ell: int, kind: str) -> SubgroupClassResult:
    """Componentwise classification; factors of ell-free order drop out
    (their minimal class is the trivial subgroup)."""
    classify = classify_parabolic if kind == PARABOLIC else classify_reflection
    factor_results = [
        classify(f, ell) for f in g.factors if ell in groups.group_primes(f)
    ]
    members = []
    for combo in itertools.product(*(r.members for r in factor_results)):
        combined = product_of(c.group for c in combo)
        members.append(ClassMember(
            combined, groups.factorization_product(c.factors for c in combo),
            distinguisher=len(members)))
    if not members:  # cannot happen: ell divides |G|
        raise NotADivisorError(f"{ell} does not divide any factor order")
    single = len(members) == 1
    return SubgroupClassResult(
        g, ell, kind, tuple(members),
        equals_whole_group=single and members[0].factors == order_factorization(g))


def is_cuspidal(g: GroupType, ell: int) -> bool:
    """Whether the minimal parabolic class is the whole group."""
    return classify_parabolic(g, ell).equals_whole_group


def is_supercuspidal(g: GroupType, ell: int) -> bool:
    """Whether the minimal reflection class is unique and the whole group."""
    return classify_reflection(g, ell).is_whole_single_class


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
    seen = set()
    for m in range(1, max_m + 1):
        for p in range(1, m + 1):
            if m % p:
                continue
            for n in range(1, max_n + 1):
                g = normalize(Imprimitive(m, p, n))
                if g == groups.TRIVIAL or g in seen:
                    continue
                seen.add(g)
                yield g
    for st in range(4, 38):
        yield Exceptional(st)


@dataclass(frozen=True)
class ObservationViolation:
    group: GroupType
    ell: int
    parabolic: GroupType


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
