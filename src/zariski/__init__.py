"""Exact divisorial Zariski decompositions on Lorentzian lattices.

The package computes, certifies, and serializes decompositions
``alpha = Z(alpha) + N(alpha)`` of divisor classes against a finite list
of prime classes, entirely in exact arithmetic, together with the
exceptional-family combinatorics, volumes, and a projective-bundle
construction whose tautological class has irrational volume.

Each public name is imported from its submodule on first use, so a
process loads only the submodules it touches.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bundle": """BaseSurface BundleClass IrrationalClassError decompose_bundle
        intersect3 is_rational mu_candidates mu_L volume_L""",
    "cone": "ConeModel InvalidModelError PrimeClass ValidationReport cone_model",
    "engine": """Certificate Decomposition InternalInconsistencyError
        NotPseudoEffectiveError OracleUniquenessError UnknownPrimeError
        brute_force_decompose decompose enumerate_exceptional_families is_big
        is_exceptional_family verify_certificate volume""",
    "exact": """CanonicalizationWarning DegeneratePolynomialError
        DimensionMismatchError MixedRadicandError QuadExt SymmetricForm Vector
        as_vector gram_matrix inner is_negative_definite quadratic_roots
        signature solve_symmetric split_square symmetric_form""",
    "fixtures": """FixtureSpec GenerationExhaustedError del_pezzo gen_model
        gen_pseudoeffective_class spec_grid""",
    "serialize": """DecompositionDocument FormatError decimal_approx
        decomposition_from_json decomposition_to_json dump_model load_model
        model_from_json model_to_json""",
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's submodule on first use and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
