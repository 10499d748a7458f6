"""Exact arithmetic for Dehn fillings, tangle replacements, and their
double-branched-cover dictionary, with verifiable claim tables and a
diagram-level determinant oracle.

Everything is computed over the integers: slopes and continued
fractions, lens-space and Seifert normal forms, first homology, a
three-valued manifold comparator, a finite-type classifier, cable-space
filling rules, ten parametric filling families with machine-checked
claims, and an independent Goeritz-matrix route to link determinants.
"""

from .slopes import (INFINITY, Slope, apply_unimodular, continued_fraction,
                     distance, format_slope, from_continued_fraction,
                     parse_slope)
from .manifolds import (BASE_D2, BASE_M2, BASE_S2, CableSpace, Comparison,
                        ConnSum, FiniteType, H1Result, IllFormedClaimError,
                        IndeterminateError, Lens, Manifold, OpaqueTag, S3,
                        S1xS2, SfsOrdersOnly, SfsS2, SolidTorus, T2xI,
                        TorusUnion, ZxS1, classify_finite_type, connected_sum,
                        h1, is_reducible, lens_homeomorphic,
                        lens_parameter_orbit, lens_space, manifold_compare,
                        manifold_equal, sfs_orders, torus_union)
from .links import (ConnSumLink, Link, MontesinosLink, TwoBridge, Unknot,
                    Unlink, link_connected_sum, link_determinant, montesinos,
                    numerator_closure, two_bridge, unlink)
from .cover import double_branched_cover
from .cables import (cable_fill, meridian_distance_cabled,
                     meridian_distance_squared, winding_bound)
from .families import (Check, CheckResult, Claim, DomainError, Edge,
                       FamilySpec, SweepReport, VerificationReport,
                       evaluate_filling, family_catalog, get_family,
                       scan_icosahedral_pairs, sweep_point_reports,
                       sweep_verify, verify_family)
from .diagrams import (Checkerboard, CombinatorialMap, OracleReport,
                       build_standard_diagram, checkerboard,
                       goeritz_determinant, goeritz_matrix, montesinos_diagram,
                       oracle_cross_check, random_montesinos,
                       two_bridge_diagram)
from .parsing import ParseError, parse_link_expr, parse_manifold_expr
from .reports import (Report, SCHEMA_VERSION, Status, combine_status,
                      emit_report, exit_code)

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "Slope", "apply_unimodular", "continued_fraction", "distance",
    "format_slope", "from_continued_fraction", "parse_slope",
    "BASE_D2", "BASE_M2", "BASE_S2", "CableSpace", "Comparison", "ConnSum",
    "FiniteType", "H1Result", "IllFormedClaimError", "IndeterminateError",
    "Lens", "Manifold", "OpaqueTag", "S3", "S1xS2", "SfsOrdersOnly", "SfsS2",
    "SolidTorus", "T2xI", "TorusUnion", "ZxS1", "classify_finite_type",
    "connected_sum", "h1", "is_reducible", "lens_homeomorphic",
    "lens_parameter_orbit", "lens_space", "manifold_compare", "manifold_equal",
    "sfs_orders", "torus_union",
    "ConnSumLink", "Link", "MontesinosLink", "TwoBridge", "Unknot", "Unlink",
    "link_connected_sum", "link_determinant", "montesinos",
    "numerator_closure", "two_bridge", "unlink",
    "double_branched_cover",
    "cable_fill", "meridian_distance_cabled", "meridian_distance_squared",
    "winding_bound",
    "Check", "CheckResult", "Claim", "DomainError", "Edge", "FamilySpec",
    "Status", "SweepReport", "VerificationReport", "evaluate_filling",
    "family_catalog", "get_family", "scan_icosahedral_pairs",
    "sweep_point_reports", "sweep_verify", "verify_family",
    "Checkerboard", "CombinatorialMap", "OracleReport",
    "build_standard_diagram", "checkerboard", "goeritz_determinant",
    "goeritz_matrix", "montesinos_diagram", "oracle_cross_check",
    "random_montesinos", "two_bridge_diagram",
    "ParseError", "parse_link_expr", "parse_manifold_expr",
    "Report", "SCHEMA_VERSION", "combine_status", "emit_report", "exit_code",
]
