"""Exact minimal invariant sets and simulation for error-diffusion dynamics.

The package computes, over exact rational arithmetic, the smallest sets
that absorb the accumulated quantization error of nearest-point tracking
games on planar point sets, simulates those games in undelayed and
delayed variants, checks the structural claims with exact predicates,
and renders everything as deterministic SVG.
"""
from .geometry import (
    ORIGIN,
    GeometryError,
    Point,
    PointSeed,
    Region,
    dist_sq,
    parse_scalar,
    pt,
    scalar_str,
)
from .voronoi import SiteSet, assumption_report
from .operators import (
    Collection,
    IterationResult,
    apply_operator,
    iterate,
)
from .dynamics import (
    Convex,
    Finite,
    Opponent,
    ScenarioProvider,
    Triangle,
    TriangleFamily,
    check_containment,
    error_bound_from_domain,
    play,
    triangle_bound,
)
from .verify import (
    VerificationReport,
    brute_force_reachable,
    contains_union_of_hulls,
    covers_translated_inner_cells,
    is_invariant_g,
    is_invariant_p,
    is_star_convex_origin,
    reachable_within,
    triangle_family_check,
)
from .scene import (
    ParseError,
    Scene,
    ValidationError,
    load_scene,
    parse_scene,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "ORIGIN",
    "Collection",
    "Convex",
    "Finite",
    "GeometryError",
    "IterationResult",
    "Opponent",
    "ParseError",
    "Point",
    "PointSeed",
    "Region",
    "ScenarioProvider",
    "Scene",
    "SiteSet",
    "Triangle",
    "TriangleFamily",
    "ValidationError",
    "VerificationReport",
    "apply_operator",
    "assumption_report",
    "brute_force_reachable",
    "check_containment",
    "contains_union_of_hulls",
    "covers_translated_inner_cells",
    "dist_sq",
    "error_bound_from_domain",
    "is_invariant_g",
    "is_invariant_p",
    "is_star_convex_origin",
    "iterate",
    "load_scene",
    "parse_scalar",
    "parse_scene",
    "play",
    "pt",
    "reachable_within",
    "render_svg",
    "scalar_str",
    "triangle_bound",
    "triangle_family_check",
]
