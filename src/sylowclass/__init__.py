"""Sylow classes of parabolic and reflection subgroups of finite unitary
reflection groups.

For a prime ell dividing |G|, the library classifies up to conjugacy the
parabolic and reflection subgroups minimal with respect to inclusion among
those containing an ell-Sylow subgroup, describes the ell-Sylow isomorphism
types, and cross-validates the closed-form answers against a brute-force
enumeration oracle for small G(m,p,n).

The Sylow structure names (render_term, structure_order, sylow_structure,
sylow_symmetric) are served on first access, so that importing the package
does not import the structure module; the embedded tables are likewise
loaded only by the first query on an exceptional group.
"""

from importlib import import_module as _import_module

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
from .valuation import (
    base_digits,
    kummer_carries,
    minimal_factorial_partition,
    nu,
    nu_factorial,
)

__version__ = "0.1.0"

# served on first access (PEP 562), so that `import sylowclass` imports neither
_STRUCTURE_NAMES = ("render_term", "structure_order", "sylow_structure", "sylow_symmetric")
_SUBMODULES = ("structure", "tables")

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


def __getattr__(name):
    if name in _STRUCTURE_NAMES:
        return getattr(_import_module(".structure", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_STRUCTURE_NAMES))
