"""Homotopy invariants of tangent unit-vector fields on convex polyhedra.

The library truncates a convex polyhedron at its vertices, represents
tangent unit-vector fields on the truncated boundary, extracts their
complete homotopy-invariant set (edge orientations, kink numbers,
wrapping numbers, trapped areas), verifies the sum rules that constrain
admissible sets, and synthesizes a representative boundary field for
any admissible set.
"""

__version__ = "0.1.0"

from . import errors
from .fields import (
    AnalyticField,
    SampledField,
    antipodal,
    load_field,
    sample_field,
    save_field,
    save_mesh_obj,
    validate_tangency,
)
from .geometry import (
    BUILTIN_NAMES,
    ConvexPolyhedron,
    PolarChart,
    TruncatedPolyhedron,
    TruncationSpec,
    builtin_polyhedron,
    load_polyhedron,
    truncate,
)
from .invariants import (
    InvariantReport,
    InvariantSet,
    check_sum_rules,
    choose_reference_s,
    extract_all,
    extract_edge_orientations,
    extract_kink,
    extract_wrapping_integral,
    invariants_equal,
    trapped_area_direct,
    trapped_area_from_invariants,
)
from .sphere import ImageMesh, mesh_degree
from .synthesis import (
    AdmissibleInvariants,
    random_admissible_invariants,
    representative_boundary,
)

__all__ = [
    "AdmissibleInvariants",
    "AnalyticField",
    "BUILTIN_NAMES",
    "ConvexPolyhedron",
    "ImageMesh",
    "InvariantReport",
    "InvariantSet",
    "PolarChart",
    "SampledField",
    "TruncatedPolyhedron",
    "TruncationSpec",
    "antipodal",
    "builtin_polyhedron",
    "check_sum_rules",
    "choose_reference_s",
    "errors",
    "extract_all",
    "extract_edge_orientations",
    "extract_kink",
    "extract_wrapping_integral",
    "invariants_equal",
    "load_field",
    "load_polyhedron",
    "mesh_degree",
    "random_admissible_invariants",
    "representative_boundary",
    "sample_field",
    "save_field",
    "save_mesh_obj",
    "trapped_area_direct",
    "trapped_area_from_invariants",
    "truncate",
    "validate_tangency",
]
