"""Sylow classes of parabolic and reflection subgroups of finite unitary
reflection groups.

For a prime ell dividing |G|, the library classifies up to conjugacy the
parabolic and reflection subgroups minimal with respect to inclusion among
those containing an ell-Sylow subgroup, describes the ell-Sylow isomorphism
types, and cross-validates the closed-form answers against a brute-force
enumeration oracle for small G(m,p,n).
"""

from .classify import (
    ClassMember,
    NotADivisorError,
    SubgroupClassResult,
    UnsupportedGroupError,
    classify_parabolic,
    classify_reflection,
    degrees_criterion,
    is_cuspidal,
    is_supercuspidal,
    verify_observation,
)
from .groups import (
    AugmentedPartition,
    Cyclic,
    Exceptional,
    FeasibleTriple,
    GroupType,
    Imprimitive,
    Product,
    Sym,
    alpha_class_count,
    conjugacy_modulus,
    degrees_imprimitive,
    format_group,
    order,
    order_factorization,
    parse_group,
)
from .structure import render_term, structure_order, sylow_structure, sylow_symmetric
from .valuation import (
    base_digits,
    kummer_carries,
    minimal_factorial_partition,
    nu,
    nu_factorial,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedPartition",
    "ClassMember",
    "Cyclic",
    "Exceptional",
    "FeasibleTriple",
    "GroupType",
    "Imprimitive",
    "NotADivisorError",
    "Product",
    "SubgroupClassResult",
    "Sym",
    "UnsupportedGroupError",
    "alpha_class_count",
    "base_digits",
    "classify_parabolic",
    "classify_reflection",
    "conjugacy_modulus",
    "degrees_criterion",
    "degrees_imprimitive",
    "format_group",
    "is_cuspidal",
    "is_supercuspidal",
    "kummer_carries",
    "minimal_factorial_partition",
    "nu",
    "nu_factorial",
    "order",
    "order_factorization",
    "parse_group",
    "render_term",
    "structure_order",
    "sylow_structure",
    "sylow_symmetric",
    "verify_observation",
]
