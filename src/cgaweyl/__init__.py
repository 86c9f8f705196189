"""Exact Weyl-algebra engine for the exotic centrally extended conformal
Galilei algebras: operator realizations, structure-constant verification,
on-shell invariant operators, and lowest-weight ladder spectra."""

from .scalar import Coef, coef
from .weyl import (
    INT,
    NAT,
    RAT,
    VarTable,
    WeylElement,
    anticommutator,
    apply_to,
    commutator,
    degree_of,
    element_to_text,
    free_to_osc,
    mul,
    parse_element,
    remap,
    substitute,
)
from .realizations import (
    GeneratorFamily,
    InvariantTriplet,
    LadderSet,
    build_H,
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_triplet,
    build_xi0,
)

__all__ = [
    "Coef", "coef",
    "NAT", "INT", "RAT", "VarTable", "WeylElement",
    "mul", "commutator", "anticommutator", "apply_to", "substitute",
    "free_to_osc", "degree_of", "element_to_text", "parse_element", "remap",
    "GeneratorFamily", "InvariantTriplet", "LadderSet",
    "build_free_l1", "build_osc_l1", "build_free_general", "build_ladder",
    "build_xi0", "build_triplet", "build_H",
]

__version__ = "0.1.0"
