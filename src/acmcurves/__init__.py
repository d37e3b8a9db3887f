"""Exact tools for determinantal space curves over prime fields.

Construction of codimension-3 arithmetically Gorenstein schemes as
intersections of determinantal curves, Hilbert functions through the
inverse-system lift, Pfaffian generator sets, and the closed-form
intersection-count bounds, all verified by exact linear algebra over F_p.
"""

from .construct import (ConstructionPair, DegenerateSample, build_linear_pair,
                        build_uniform_pair, embed_pair, gorenstein_generators,
                        skew_matrix_G, union_matrix)
from .formulas import (BettiShape, binom, bound_linear, bound_uniform, deg_acm,
                       expected_betti, h_vector_gorenstein, hilbert_from_resolution)
from .harness import (SCENARIO_SEEDS, TensorViews, VerificationReport,
                      conjecture_evidence, intersect_count, pfaffian_span_check,
                      perturbed_pfaffian_span_check,
                      rational_point_oracle, run_scenario, tensor_views,
                      verify_construction)
from .hilbert import (HilbertProfile, IdealPresentation, graded_piece_spans_equal,
                      h_vector_from_profile, hilbert_function, ideal_piece_dim,
                      macaulay_matrix, minimal_generator_degrees)
from .linalg import echelon_basis, rank_modp
from .matforms import (FormMatrix, SkewFormMatrix, determinant, maximal_minors, minor,
                       pfaffian, principal_pfaffians)
from .ring import DEFAULT_PRIME, Form, PolyRing, is_prime, random_form

__version__ = "0.1.0"

__all__ = [
    "BettiShape", "ConstructionPair", "DEFAULT_PRIME", "DegenerateSample", "Form",
    "FormMatrix", "HilbertProfile", "IdealPresentation",
    "PolyRing", "SCENARIO_SEEDS", "SkewFormMatrix", "TensorViews",
    "VerificationReport", "binom", "bound_linear", "bound_uniform",
    "build_linear_pair", "build_uniform_pair", "conjecture_evidence", "deg_acm",
    "determinant", "echelon_basis", "embed_pair",
    "expected_betti", "gorenstein_generators",
    "graded_piece_spans_equal", "h_vector_from_profile", "h_vector_gorenstein",
    "hilbert_from_resolution", "hilbert_function", "ideal_piece_dim",
    "intersect_count", "is_prime", "macaulay_matrix", "maximal_minors",
    "minimal_generator_degrees", "minor", "pfaffian",
    "perturbed_pfaffian_span_check", "pfaffian_span_check", "principal_pfaffians",
    "random_form", "rank_modp",
    "rational_point_oracle", "run_scenario", "skew_matrix_G", "tensor_views",
    "union_matrix", "verify_construction",
]
