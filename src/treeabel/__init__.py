"""Canonical Abel-map multidegrees on stable curves of compact type.

The curve is a genus-weighted tree; the library classifies its
components, decides semistability and quasistability of multidegrees in
exact integer arithmetic, builds the canonical quasistable multidegree
sequence of the Abel maps, evaluates pointwise images as formal
per-component divisors, and compares the two constructions available on
half-genus curves.

Importing the package loads ``curves`` and ``classify``; the layers
``stability``, ``abel``, ``compare`` and ``generator`` load on first access
to one of their names, so a CLI command imports only the layers it runs.
"""

import importlib

from .classify import (
    Classification,
    central_components,
    classify,
    is_in_delta_half,
    principal_component,
    semicentral_components,
    small_tail_at_node,
    small_tails,
)
from .curves import (
    Component,
    CurveTree,
    InvalidTreeError,
    Multidegree,
    Node,
    Subcurve,
    Tail,
    ValidationReport,
    validate,
)

# Public names of the layers loaded on first access, each mapped to its module.
_LAZY = {
    name: module
    for module, names in (
        ("abel", "Branch DivisorRep NodePoint Point SmoothPoint TwistDelta abel1 abel_d "
         "big_tails e1 e_sequence multidegree_of twist_delta twist_step"),
        ("compare", "ComparisonReport compare_principals multidegree_difference_support"),
        ("generator", "GenSpec UnsatisfiableSpecError random_tree"),
        ("stability", "Polarization StabilityVerdict chi_form_semistable_at enumerate_quasistable "
         "enumerate_semistable is_quasistable is_semistable is_semistable_at polarization"),
    )
    for name in names.split()
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Classification",
    "Component",
    "ComparisonReport",
    "CurveTree",
    "DivisorRep",
    "GenSpec",
    "InvalidTreeError",
    "Multidegree",
    "Node",
    "NodePoint",
    "Point",
    "Polarization",
    "SmoothPoint",
    "StabilityVerdict",
    "Subcurve",
    "Tail",
    "TwistDelta",
    "UnsatisfiableSpecError",
    "ValidationReport",
    "abel1",
    "abel_d",
    "big_tails",
    "central_components",
    "chi_form_semistable_at",
    "classify",
    "compare_principals",
    "e1",
    "e_sequence",
    "enumerate_quasistable",
    "enumerate_semistable",
    "is_in_delta_half",
    "is_quasistable",
    "is_semistable",
    "is_semistable_at",
    "multidegree_difference_support",
    "multidegree_of",
    "polarization",
    "principal_component",
    "random_tree",
    "semicentral_components",
    "small_tail_at_node",
    "small_tails",
    "twist_delta",
    "twist_step",
    "validate",
]
