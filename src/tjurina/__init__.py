"""Exact invariants of plane curve singularities.

A small exact-arithmetic toolkit: sparse polynomials over Q, reduced
Groebner bases, lengths of zero-dimensional schemes, local Tjurina and
Milnor numbers, symmetry orders, A_n classification of double points, and
closed-form predictions for the three-term family x^a + y^a + x^b y^c.
"""

__version__ = "0.1.0"

from .analyzer import (
    Classification,
    DoubleA,
    MultiplicityAtLeastThree,
    SimplePoint,
    SingularityReport,
    analyze,
    classify_double_point,
    embedding_dimension,
    is_ordinary,
    is_slci,
    k_symmetry_order,
    local_milnor,
    local_tjurina,
    multiplicity_at,
    nodes_only_check,
)
from .binforms import binary_form_resultant, discriminant, squarefree_binary_form
from .exprio import AMBIENTS, ExprSyntaxError, parse_poly, render_poly
from .family import (
    FamilyCase,
    FamilyParams,
    FamilyVerification,
    admissible_params,
    family_case,
    min_tjurina,
    predicted_gb,
    predicted_lt_gens,
    tjurina_formula,
    verify_params,
)
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    MonomialRangeError,
    buchberger,
    divide,
    is_zero_dimensional,
    leading_term_ideal,
    s_polynomial,
)
from .lengths import (
    INFINITE,
    Infinite,
    StabilizationError,
    TruncationTrace,
    VERTICAL,
    global_tjurina,
    hilbert_function,
    line_restriction_length,
    local_length_at_origin,
    local_length_oracle,
    staircase_length,
)
from .poly import (
    DEGREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    homogeneous_component,
    partial_derivative,
    translate_to_origin,
)

__all__ = [
    "AMBIENTS", "Classification", "DEGREVLEX", "DoubleA", "ExprSyntaxError",
    "FamilyCase", "FamilyParams", "FamilyVerification", "GRLEX",
    "GroebnerBasis", "INFINITE", "Infinite", "LEX", "MonomialIdeal",
    "MonomialOrder", "MonomialRangeError", "MultiplicityAtLeastThree",
    "Polynomial", "SimplePoint", "SingularityReport", "StabilizationError",
    "TruncationTrace", "VERTICAL",
    "admissible_params", "analyze", "binary_form_resultant", "buchberger",
    "classify_double_point", "discriminant", "divide", "embedding_dimension",
    "family_case", "global_tjurina", "hilbert_function",
    "homogeneous_component", "is_ordinary", "is_slci", "is_zero_dimensional",
    "k_symmetry_order", "leading_term_ideal", "line_restriction_length",
    "local_length_at_origin", "local_length_oracle", "local_milnor",
    "local_tjurina", "min_tjurina", "multiplicity_at", "nodes_only_check",
    "parse_poly", "partial_derivative", "predicted_gb", "predicted_lt_gens",
    "render_poly", "s_polynomial", "squarefree_binary_form",
    "staircase_length", "tjurina_formula", "translate_to_origin",
    "verify_params",
]
