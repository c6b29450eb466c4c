"""Twists of elliptic curves over small finite fields.

Exact arithmetic in GF(p^n), Weierstrass curves with point counts by
baby-step giant-step in the Hasse interval (a walk of x on small
fields), automorphism groups including the non-abelian characteristic 2
and 3 cases, Frobenius-twisted conjugacy classes with induced-map and
capitulation reports, canonical models that decide isomorphism over the
ground field, and explicit twist enumeration.
"""

from .gf import (
    LimitExceededError,
    field_create,
    element_from_str,
    element_to_str,
    enumerate_field,
)
from .curve import WeierstrassCurve, from_short
from .autmap import (
    AutGroup,
    CurveIsomorphism,
    automorphism_group,
    find_isomorphisms,
    group_structure,
    isomorphism_to_str,
    minimal_isomorphism_degree,
)
from .twistcoh import (
    Cocycle,
    FrobClass,
    capitulation_report,
    cocycle_order,
    frobenius_action,
    frobenius_classes,
    induced_map,
    resolve_subgroup,
    splitting_degree,
)
from .twists import (
    TwistReport,
    artin_schreier_twist,
    canonical_model,
    enumerate_twists,
    j_zero_class_census,
    quadratic_twist,
    unit_twist,
    verify_twist_tables,
)

__version__ = "0.1.0"

__all__ = [
    "LimitExceededError", "field_create", "element_from_str", "element_to_str",
    "enumerate_field", "WeierstrassCurve", "from_short", "AutGroup",
    "CurveIsomorphism", "automorphism_group", "find_isomorphisms",
    "group_structure", "isomorphism_to_str", "minimal_isomorphism_degree",
    "Cocycle", "FrobClass", "capitulation_report", "cocycle_order",
    "frobenius_action", "frobenius_classes", "induced_map", "resolve_subgroup",
    "splitting_degree", "TwistReport", "artin_schreier_twist",
    "canonical_model", "enumerate_twists", "j_zero_class_census",
    "quadratic_twist", "unit_twist", "verify_twist_tables", "__version__",
]
