"""Exact arithmetic for Dehn fillings, tangle replacements, and their
double-branched-cover dictionary, with verifiable claim tables and a
diagram-level determinant oracle.

Everything is computed over the integers: slopes and continued
fractions, lens-space and Seifert normal forms, first homology, a
three-valued manifold comparator, a finite-type classifier, cable-space
filling rules, ten parametric filling families with machine-checked
claims, and an independent Goeritz-matrix route to link determinants.
"""

import importlib

__version__ = "0.1.0"

# Each exported name is imported from its module on first read (PEP 562).
_EXPORTS = {
    "slopes": ("INFINITY", "Slope", "apply_unimodular", "continued_fraction",
               "distance", "format_slope", "from_continued_fraction",
               "parse_slope"),
    "manifolds": ("BASE_D2", "BASE_M2", "BASE_S2", "CableSpace", "Comparison",
                  "ConnSum", "FiniteType", "H1Result", "IllFormedClaimError",
                  "IndeterminateError", "Lens", "Manifold", "OpaqueTag", "S3",
                  "S1xS2", "SfsOrdersOnly", "SfsS2", "SolidTorus", "T2xI",
                  "TorusUnion", "ZxS1", "classify_finite_type",
                  "connected_sum", "h1", "is_reducible", "lens_homeomorphic",
                  "lens_parameter_orbit", "lens_space", "manifold_compare",
                  "manifold_equal", "sfs_orders", "torus_union"),
    "links": ("ConnSumLink", "Link", "MontesinosLink", "TwoBridge", "Unknot",
              "Unlink", "link_connected_sum", "link_determinant",
              "montesinos", "numerator_closure", "two_bridge", "unlink"),
    "cover": ("double_branched_cover",),
    "cables": ("cable_fill", "meridian_distance_cabled",
               "meridian_distance_squared", "winding_bound"),
    "families": ("Check", "CheckResult", "Claim", "DomainError", "Edge",
                 "FamilySpec", "SweepReport", "VerificationReport",
                 "evaluate_filling", "family_catalog", "get_family",
                 "scan_icosahedral_pairs", "sweep_point_reports",
                 "sweep_verify", "verify_family"),
    "diagrams": ("Checkerboard", "CombinatorialMap", "OracleReport",
                 "build_standard_diagram", "checkerboard",
                 "goeritz_determinant", "goeritz_matrix",
                 "montesinos_diagram", "oracle_cross_check",
                 "random_montesinos", "two_bridge_diagram"),
    "parsing": ("ParseError", "parse_link_expr", "parse_manifold_expr"),
    "reports": ("RowWriter", "SCHEMA_VERSION", "Status", "combine_status",
                "emit_report", "exit_code"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
