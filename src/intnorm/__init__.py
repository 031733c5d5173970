"""intnorm: intersection-form norms on surfaces.

The homology intersection form pairs two closed curves on a surface; the
ratio of an intersection number to the product of the curves' lengths is
a metric invariant of the surface.  This package computes that ratio
exactly on flat tori (lattice enumeration plus a straight-line crossing
oracle) and verifies the winding-number calculus of crossings inside
hyperbolic collars (a geodesic oracle in Fermi coordinates), alongside every
closed-form bound the two regimes support.  Each formula ships with the
brute-force check that re-derives it.
"""

from .bounds import (
    BoundReport,
    CollarCheckReport,
    HyperbolicBounds,
    ProfileRow,
    SurfaceParams,
    asymptotic_profile,
    collar_constants_check,
    default_collar_grid,
    default_monotonicity_grid,
    full_bound_report,
    general_bounds,
    hyperbolic_bounds,
    parse_grid,
)
from .cylinder import (
    ArcSpec,
    Cylinder,
    RewindReport,
    WindingBounds,
    arc_length,
    count_crossings_cyl,
    crossing_count_oracle_cyl,
    dehn_twist_winding,
    halfplane_to_fermi,
    intersection_bounds,
    make_collar,
    rewind_shift,
    rewind_suite_check,
    winding_from_endpoints,
)
from .errors import (
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    GeometryError,
    ModeError,
    RejectedInputError,
    RetrySignal,
)
from .flat_torus import (
    CrossingReport,
    IntegerClass,
    Lattice,
    RealClass,
    best_ratio_search,
    class_length,
    count_crossings,
    crossing_count_oracle,
    enumerate_classes,
    intersection_number,
    k_real,
    min_length_product,
    norm_comparison_report,
    reduced_basis,
    segment_bound_check,
    systole,
    torus_diameter,
)
from .hyptrig import (
    TWO_ARSINH_ONE,
    boundary_length,
    collar_width,
    crossing_arc_length,
    fermi_distance,
)
from .seeding import named_stream
from .suites import (
    SuiteReport,
    bounds_suite,
    cylinder_suite,
    lemma_sweep,
    run_suites,
    torus_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSpec", "BoundReport", "CollarCheckReport", "CrossingReport",
    "CutoffTooSmallError", "Cylinder", "DegenerateInputError",
    "DomainError", "EmptySearchError", "GeometryError", "HyperbolicBounds",
    "IntegerClass", "Lattice", "ModeError", "ProfileRow", "RealClass",
    "RejectedInputError", "RetrySignal", "RewindReport",
    "SuiteReport", "SurfaceParams", "TWO_ARSINH_ONE",
    "WindingBounds", "arc_length", "asymptotic_profile",
    "best_ratio_search", "boundary_length", "bounds_suite", "class_length",
    "collar_constants_check", "collar_width", "count_crossings",
    "count_crossings_cyl", "crossing_arc_length", "crossing_count_oracle",
    "crossing_count_oracle_cyl", "cylinder_suite",
    "default_collar_grid", "default_monotonicity_grid",
    "dehn_twist_winding", "enumerate_classes", "fermi_distance",
    "full_bound_report", "general_bounds", "halfplane_to_fermi",
    "hyperbolic_bounds", "intersection_bounds",
    "intersection_number", "k_real", "lemma_sweep", "make_collar",
    "min_length_product", "named_stream", "norm_comparison_report",
    "parse_grid", "reduced_basis", "rewind_shift", "rewind_suite_check",
    "run_suites", "segment_bound_check", "systole", "torus_diameter",
    "torus_suite", "winding_from_endpoints",
]
