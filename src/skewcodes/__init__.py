"""Exact arithmetic in twisted polynomial, power series and Laurent series
rings over finite-dimensional algebras over finite fields, together with the
convolutional codes cyclic for the twisted module action.

The layers build on each other: finite fields (lookup tables over numpy
index arrays), structure-constant algebras with verified axioms, a checked
(sigma, delta) pair driving the commutation rule X a = sigma(a) X +
delta(a), the three twisted rings, right-module actions on vector
polynomials and their series/Laurent extensions, exact F[X] matrix
algorithms, and the code layer connecting pure stable submodules of Fn[X]
with cyclic convolutional codes.
"""

from .errors import (AxiomError, MixedStructureError, PrecisionError,
                     RingUnavailableError)
from .fields import FieldElement, FieldSpec, field
from .algebra import (Algebra, AlgebraElement, LinearMap, ScalarRestriction,
                      group_algebra_cyclic, inner_derivation, matrix_algebra,
                      quotient_algebra_tn, quotient_algebra_yz,
                      verify_algebra)
from .skewmap import (NOperatorTable, SkewDerivation, n_operator,
                      nilpotency_index, verify_skew_derivation)
from .skewpoly import (SkewPoly, left_from_right, poly_mul,
                       poly_mul_iterative, right_from_left, xn_times)
from .skewseries import (OreWitness, TruncSeries, ore_left, q_bound,
                         series_mul, series_times_scalar, x_times_series,
                         xn_times_series)
from .skewlaurent import (LaurentAvailability, TruncLaurent, laurent_mul,
                          laurent_ring_exists, require_laurent_ring,
                          xinv_times, xnegn_direct, xnegn_times)
from .modact import (RightModuleSpec, VecLaurent, VecPoly, VecSeries,
                     check_module, flsx_scalar_action, module_verify,
                     natural_module, regular_module, restrict_module,
                     veclaurent_times_ring, veclaurent_times_scalar,
                     vecpoly_times_scalar, vecseries_times_ring)
from .fxlinalg import (EchelonSolver, Poly, PolyMatrix, SmithDecomposition,
                       closure, det_poly, hermite_form, hermite_pivots,
                       is_direct_summand, is_unimodular, rank, rank_rational,
                       smith_form)
from .codes import (ConvCodeBasis, RoundtripReport, code_from_generators,
                    correspondence_roundtrip, cyclic_closure, decode, encode,
                    is_codeword, is_cyclic_submodule, matrix_to_vecpolys,
                    polyrow_to_vecpoly, stable_under_ring_samples,
                    vecpoly_to_polyrow, vecpolys_to_matrix)
from .presets import ExampleBundle, PRESETS, load_preset

__version__ = "1.0.0"

__all__ = [
    "AxiomError", "MixedStructureError", "PrecisionError",
    "RingUnavailableError",
    "FieldElement", "FieldSpec", "field",
    "Algebra", "AlgebraElement", "LinearMap", "ScalarRestriction",
    "group_algebra_cyclic", "inner_derivation", "matrix_algebra",
    "quotient_algebra_tn", "quotient_algebra_yz", "verify_algebra",
    "NOperatorTable", "SkewDerivation", "n_operator", "nilpotency_index",
    "verify_skew_derivation",
    "SkewPoly", "left_from_right", "poly_mul", "poly_mul_iterative",
    "right_from_left", "xn_times",
    "OreWitness", "TruncSeries", "ore_left", "q_bound", "series_mul",
    "series_times_scalar", "x_times_series", "xn_times_series",
    "LaurentAvailability", "TruncLaurent", "laurent_mul",
    "laurent_ring_exists", "require_laurent_ring", "xinv_times",
    "xnegn_direct", "xnegn_times",
    "RightModuleSpec", "VecLaurent", "VecPoly", "VecSeries", "check_module",
    "flsx_scalar_action", "module_verify", "natural_module", "regular_module",
    "restrict_module", "veclaurent_times_ring", "veclaurent_times_scalar",
    "vecpoly_times_scalar", "vecseries_times_ring",
    "EchelonSolver", "Poly", "PolyMatrix", "SmithDecomposition", "closure",
    "det_poly", "hermite_form", "hermite_pivots", "is_direct_summand",
    "is_unimodular", "rank", "rank_rational", "smith_form",
    "ConvCodeBasis", "RoundtripReport", "code_from_generators",
    "correspondence_roundtrip", "cyclic_closure", "decode", "encode",
    "is_codeword", "is_cyclic_submodule", "matrix_to_vecpolys",
    "polyrow_to_vecpoly", "stable_under_ring_samples", "vecpoly_to_polyrow",
    "vecpolys_to_matrix",
    "ExampleBundle", "PRESETS", "load_preset",
]
