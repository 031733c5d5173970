"""intnorm: intersection-form norms on surfaces.

The homology intersection form pairs two closed curves on a surface; the
ratio of an intersection number to the product of the curves' lengths is
a metric invariant of the surface.  This package computes that ratio
exactly on flat tori (lattice enumeration plus a straight-line crossing
oracle) and verifies the winding-number calculus of crossings inside
hyperbolic collars (a geodesic oracle in Fermi coordinates), alongside every
closed-form bound the two regimes support.  Each formula ships with the
brute-force check that re-derives it.

``import intnorm`` loads no submodule and not numpy: the first use of an
exported name loads its home module, and the modules that one imports,
then binds the name here (PEP 562).  ``from intnorm import Lattice``
loads ``errors`` and ``flat_torus``; a name of ``bounds`` loads
``bounds``, ``hyptrig`` and ``errors``; one of ``cylinder`` loads
``flat_torus`` and ``hyptrig`` too; ``named_stream`` loads ``seeding``
and ``errors``; an error class loads ``errors`` alone; a name of
``suites`` loads all seven modules, as ``intnorm.cli`` does.
"""

import importlib

__version__ = "0.1.0"

# The exported names of each home module.
_EXPORTS = {
    "bounds": (
        "BoundReport", "CollarCheckReport", "HyperbolicBounds", "ProfileRow",
        "SurfaceParams", "asymptotic_profile", "collar_constants_check",
        "full_bound_report", "hyperbolic_bounds", "parse_grid"),
    "cylinder": (
        "ArcSpec", "Cylinder", "RewindReport", "WindingBounds", "arc_length",
        "count_crossings_cyl", "dehn_twist_winding", "intersection_bounds",
        "make_collar", "rewind_suite_check", "winding_from_endpoints"),
    "errors": (
        "CutoffTooSmallError", "DegenerateInputError", "DomainError",
        "EmptySearchError", "GeometryError", "ModeError",
        "RejectedInputError", "RetrySignal"),
    "flat_torus": (
        "CrossingReport", "IntegerClass", "Lattice", "RealClass",
        "best_ratio_search", "class_length", "count_crossings",
        "enumerate_classes", "intersection_number", "k_real",
        "min_length_product", "norm_comparison_report",
        "segment_bound_check", "systole", "torus_diameter"),
    "hyptrig": (
        "TWO_ARSINH_ONE", "boundary_length", "collar_width",
        "crossing_arc_length"),
    "seeding": ("named_stream",),
    "suites": ("SuiteReport", "lemma_sweep", "run_suites"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name, or one of the seven submodules, loaded on first
    use and bound in the package from then on."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())
