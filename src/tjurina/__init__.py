"""Exact invariants of plane curve singularities.

A small exact-arithmetic toolkit: sparse polynomials over Q, reduced
Groebner bases, lengths of zero-dimensional schemes, local Tjurina and
Milnor numbers, symmetry orders, A_n classification of double points, and
closed-form predictions for the three-term family x^a + y^a + x^b y^c.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported on
# its first access (PEP 562) and read from its submodule on every access, so
# ``import tjurina`` loads no submodule and the engine a caller never uses is
# never loaded.
_EXPORTS = {
    # analyzer
    "Classification": "analyzer", "DoubleA": "analyzer", "OffCurveError": "analyzer",
    "MultiplicityAtLeastThree": "analyzer", "SimplePoint": "analyzer",
    "SingularityReport": "analyzer", "analyze": "analyzer",
    "classify_double_point": "analyzer", "embedding_dimension": "analyzer",
    "is_ordinary": "analyzer", "is_slci": "analyzer", "k_symmetry_order": "analyzer",
    "local_milnor": "analyzer", "local_tjurina": "analyzer",
    "multiplicity_at": "analyzer", "nodes_only_check": "analyzer",
    # binforms
    "squarefree_binary_form": "binforms",
    # exprio
    "AMBIENTS": "exprio", "ExprSyntaxError": "exprio", "parse_poly": "exprio",
    "render_poly": "exprio",
    # family
    "FamilyCase": "family", "FamilyParams": "family", "FamilyVerification": "family",
    "admissible_params": "family", "family_case": "family", "min_tjurina": "family",
    "predicted_gb": "family", "predicted_lt_gens": "family", "tjurina_formula": "family",
    "verify_params": "family",
    # groebner
    "GroebnerBasis": "groebner", "MonomialIdeal": "groebner",
    "MonomialRangeError": "groebner", "buchberger": "groebner",
    "is_zero_dimensional": "groebner", "leading_term_ideal": "groebner",
    # lengths
    "INFINITE": "lengths", "Infinite": "lengths", "StabilizationError": "lengths",
    "TruncationTrace": "lengths", "global_tjurina": "lengths",
    "hilbert_function": "lengths", "local_length_at_origin": "lengths",
    "staircase_length": "lengths",
    # poly
    "DEGREVLEX": "poly", "GRLEX": "poly", "LEX": "poly", "MonomialOrder": "poly",
    "Polynomial": "poly", "translate_to_origin": "poly",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
