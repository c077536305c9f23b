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
    boundary_trace,
    field_from_dict,
    field_to_dict,
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
    polar_chart,
    truncate,
)
from .invariants import (
    InvariantReport,
    InvariantSet,
    antipodal_invariants,
    check_sum_rules,
    choose_reference_s,
    extract_all,
    extract_edge_orientations,
    extract_kink,
    extract_wrapping_integral,
    extract_wrapping_preimage,
    invariants_equal,
    trapped_area_direct,
    trapped_area_from_invariants,
)
from .sphere import (
    ImageMesh,
    SphericalPath,
    mesh_degree,
    reference_frame,
    spherical_triangle_area,
    triangle_sigma,
    unwrap_rotation_angle,
)
from .synthesis import (
    AdmissibleInvariants,
    covering_patch,
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
    "SphericalPath",
    "TruncatedPolyhedron",
    "TruncationSpec",
    "antipodal",
    "antipodal_invariants",
    "boundary_trace",
    "builtin_polyhedron",
    "check_sum_rules",
    "choose_reference_s",
    "covering_patch",
    "errors",
    "extract_all",
    "extract_edge_orientations",
    "extract_kink",
    "extract_wrapping_integral",
    "extract_wrapping_preimage",
    "field_from_dict",
    "field_to_dict",
    "invariants_equal",
    "load_field",
    "load_polyhedron",
    "mesh_degree",
    "polar_chart",
    "random_admissible_invariants",
    "reference_frame",
    "representative_boundary",
    "sample_field",
    "save_field",
    "save_mesh_obj",
    "spherical_triangle_area",
    "trapped_area_direct",
    "trapped_area_from_invariants",
    "triangle_sigma",
    "truncate",
    "unwrap_rotation_angle",
    "validate_tangency",
]
