"""Exact invariants of the Veech-Ward-Bouw-Moller Teichmuller curves T(n, m)."""

from .exact import (IntPolynomial, chebyshev_c, cyclotomic_poly, euler_phi,
                    subfield_degree)
from .generators import (GeneratorEquation, generator_equation,
                         verify_equation_numeric)
from .invariants import (CurveReport, admissible_triangle_group,
                         algebraically_primitive, covers, curve_report, genus,
                         hecke_scalars, is_arithmetic, trace_degrees,
                         trace_degrees_oracle, verify_cover)
from .rowspan import CurveParams, Summand, row_span, summands
from .surface import (CombSurface, Square, SymmetryLift, build_surface,
                      cylinder_preservation_check, lift_class_count,
                      lift_sigma2, lift_sigma4, surface_genus)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial", "chebyshev_c", "cyclotomic_poly", "euler_phi",
    "subfield_degree",
    "GeneratorEquation", "generator_equation", "verify_equation_numeric",
    "CurveReport", "admissible_triangle_group", "algebraically_primitive",
    "covers", "curve_report", "genus",
    "hecke_scalars", "is_arithmetic", "trace_degrees", "trace_degrees_oracle",
    "verify_cover",
    "CurveParams", "Summand", "row_span", "summands",
    "CombSurface", "Square", "SymmetryLift", "build_surface",
    "cylinder_preservation_check", "lift_class_count", "lift_sigma2",
    "lift_sigma4", "surface_genus",
    "__version__",
]
