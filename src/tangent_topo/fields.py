"""Tangent unit-vector fields on the boundary of a truncated polyhedron.

A field evaluates to unit vectors in face-chart coordinates.  Two
representations are provided: analytic (a callable evaluator) and
sampled (structured per-face grids with geodesic interpolation, which
keeps values on the sphere and keeps in-plane values in their plane).
Fields are immutable.

Integral extraction routes require piecewise-differentiable evaluators;
the winding and preimage routes only need continuity plus adequate
sampling density.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from . import geometry
from .errors import CoarseSampling, FieldError
from .geometry import (
    CLEAVED,
    TRUNCATED,
    FaceKey,
    PolarChart,
    TruncatedPolyhedron,
    polar_chart,
)
from .sphere import SphericalPath, geodesic_interpolate, normalized_rows

TOL_TANGENCY = 1e-8
TOL_CONTINUITY = 1e-6

FIELD_FORMAT = "tangentfield/1"


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for quadrature and refinement budgets."""

    depth: int = 6
    tol_tangency: float = TOL_TANGENCY
    tol_continuity: float = TOL_CONTINUITY
    max_refinement: int = 24

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("quadrature depth must be at least 1")


def charts_for(phat: TruncatedPolyhedron) -> Dict[FaceKey, PolarChart]:
    """Deterministic centroid-based charts for every face."""
    return {key: polar_chart(phat, key) for key in phat.face_keys()}


def _grid_step_bound_ok(grid: np.ndarray) -> bool:
    # Neighboring samples within a quarter turn, radially and around
    # the (periodic) rings; geodesic interpolation is then unambiguous.
    radial = np.einsum("ijk,ijk->ij", grid[:-1], grid[1:])
    around = np.einsum("ijk,ijk->ij", grid, np.roll(grid, -1, axis=1))
    return min(float(radial.min()), float(around.min())) > 0.0


@dataclass(frozen=True)
class AnalyticField:
    """Field given by a closed-form evaluator in chart coordinates."""

    host: TruncatedPolyhedron
    charts: Mapping[FaceKey, PolarChart]
    evaluator: Callable[[FaceKey, np.ndarray, np.ndarray], np.ndarray]

    def evaluate(self, key: FaceKey, rho, phi) -> np.ndarray:
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        rho, phi = np.broadcast_arrays(rho, phi)
        return normalized_rows(self.evaluator(key, rho, phi))


@dataclass(frozen=True)
class SampledField:
    """Field stored on per-face (rho, phi) grids.

    ``values[key]`` has shape (R + 1, K, 3) for R radial steps and K
    boundary samples (phi-periodic); K is a multiple of the face's side
    count so corners land on nodes.  Interpolation is geodesic, first in
    phi at the two bracketing rings, then radially, in that fixed order.
    """

    host: TruncatedPolyhedron
    charts: Mapping[FaceKey, PolarChart]
    values: Mapping[FaceKey, np.ndarray]

    def __post_init__(self):
        for key, grid in self.values.items():
            m = self.charts[key].n_segments
            if grid.ndim != 3 or grid.shape[2] != 3 or grid.shape[1] % m:
                raise FieldError(f"bad grid shape {grid.shape} for face {key}")
            if not _grid_step_bound_ok(grid):
                raise CoarseSampling(
                    f"grid on face {key} has neighbors a quarter turn or "
                    "more apart; sample at a higher depth"
                )

    def evaluate(self, key: FaceKey, rho, phi) -> np.ndarray:
        grid = self.values[key]
        R = grid.shape[0] - 1
        K = grid.shape[1]
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        rho, phi = np.broadcast_arrays(rho, phi)
        rpos = np.clip(rho, 0.0, 1.0) * R
        i0 = np.minimum(rpos.astype(int), R - 1)
        tr = rpos - i0
        ppos = np.mod(phi, 2.0 * np.pi) / (2.0 * np.pi) * K
        j0 = np.minimum(ppos.astype(int), K - 1)
        tp = ppos - j0
        j1 = (j0 + 1) % K
        low = geodesic_interpolate(grid[i0, j0], grid[i0, j1], tp)
        high = geodesic_interpolate(grid[i0 + 1, j0], grid[i0 + 1, j1], tp)
        return geodesic_interpolate(low, high, tr)


TangentField = AnalyticField | SampledField


def antipodal(field: TangentField) -> TangentField:
    """Pointwise negation; tangency is sign-invariant, so the result is
    again a valid field."""
    if isinstance(field, SampledField):
        return SampledField(
            host=field.host,
            charts=field.charts,
            values={k: -v for k, v in field.values.items()},
        )
    inner = field.evaluator
    return AnalyticField(
        host=field.host,
        charts=field.charts,
        evaluator=lambda key, rho, phi: -inner(key, rho, phi),
    )


def _segment_tracer(field: TangentField, key: FaceKey, seg_index: int,
                    reverse: bool = False):
    chart = field.charts[key]
    phi0, phi1 = chart.segment_span(seg_index)

    def evaluate(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        local = 1.0 - t if reverse else t
        return field.evaluate(key, np.ones_like(t), phi0 + (phi1 - phi0) * local)

    return evaluate


def _owner_for_cleaved(field: TangentField, ac: Tuple[int, int]) -> Tuple[FaceKey, int, bool]:
    a, c = ac
    key = (TRUNCATED, c)
    seg = field.charts[key].segment_index("cleaved", (a, c))
    return key, seg, False


def _owner_for_edge(field: TangentField, b: int, side: int = 0) -> Tuple[FaceKey, int, bool]:
    c = int(field.host.parent.edge_faces[b, side])
    key = (TRUNCATED, c)
    seg = field.charts[key].segment_index("edge", b)
    forward = field.charts[key].segments[seg].forward
    return key, seg, not forward


def boundary_trace(
    field: TangentField,
    curve,
    samples: int = 65,
    reverse: bool = False,
    max_rounds: int = 24,
) -> SphericalPath:
    """Sample the field along an oriented curve on the boundary.

    ``curve`` is ``("cleaved", (a, c))`` for the border of corner ``a``
    on face ``c`` in its stored direction, ``("edge", b)`` for a
    truncated edge from its low-index endpoint, or
    ``("boundary", face_key)`` for a full face boundary in chart order.
    The returned path carries a refinement callback, so downstream
    unwrapping can bisect it adaptively.
    """
    kind = curve[0]
    if kind == "cleaved":
        key, seg, rev = _owner_for_cleaved(field, curve[1])
        rev ^= reverse
        evaluate = _segment_tracer(field, key, seg, rev)
    elif kind == "edge":
        key, seg, rev = _owner_for_edge(field, curve[1])
        rev ^= reverse
        evaluate = _segment_tracer(field, key, seg, rev)
    elif kind == "boundary":
        face_key = curve[1]

        def evaluate(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            local = 1.0 - t if reverse else t
            return field.evaluate(face_key, np.ones_like(t),
                                  2.0 * np.pi * local)
    else:
        raise FieldError(f"unknown curve kind {kind!r}")

    if samples < 2:
        raise FieldError("need at least two samples")
    t = np.linspace(0.0, 1.0, samples)
    path = SphericalPath(samples=evaluate(t), params=t, refine=evaluate)
    path.ensure_step_bound(max_rounds=max_rounds)
    return path


@dataclass(frozen=True)
class TangencyReport:
    """Worst-case tangency, edge alignment, and seam continuity."""

    face_normal_dots: Dict[int, float]
    worst_normal_dot: float
    edge_misalignment: Dict[int, float]
    worst_edge_misalignment: float
    worst_continuity: float
    tol_tangency: float
    tol_continuity: float

    @property
    def ok(self) -> bool:
        return (
            self.worst_normal_dot <= self.tol_tangency
            and self.worst_edge_misalignment <= self.tol_tangency
            and self.worst_continuity <= self.tol_continuity
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst_normal_dot": self.worst_normal_dot,
            "worst_edge_misalignment": self.worst_edge_misalignment,
            "worst_continuity": self.worst_continuity,
            "face_normal_dots": {str(k): v for k, v in sorted(self.face_normal_dots.items())},
            "edge_misalignment": {str(k): v for k, v in sorted(self.edge_misalignment.items())},
        }


def _face_grid(chart: PolarChart, depth: int):
    m = chart.n_segments
    R = 2 ** depth
    K = m * 2 ** depth
    rho = np.linspace(0.0, 1.0, R + 1)
    phi = np.arange(K) * (2.0 * np.pi / K)
    return rho, phi


def validate_tangency(
    field: TangentField,
    depth: int = 4,
    cfg: Optional[QuadratureConfig] = None,
) -> TangencyReport:
    """Diagnostic scan of the tangency and continuity invariants.

    Never raises on a violation; callers inspect the report and decide.
    """
    cfg = cfg or QuadratureConfig(depth=depth)
    phat = field.host
    face_dots = {}
    worst_face = 0.0
    for c in range(len(phat.trunc_faces)):
        key = (TRUNCATED, c)
        rho, phi = _face_grid(field.charts[key], depth)
        rr, pp = np.meshgrid(rho, phi, indexing="ij")
        vals = field.evaluate(key, rr.ravel(), pp.ravel())
        dot = float(np.max(np.abs(vals @ phat.face_normal(c))))
        face_dots[c] = dot
        worst_face = max(worst_face, dot)

    t = np.linspace(0.0, 1.0, 2 ** depth + 1)
    worst_edge = 0.0
    edge_mis = {}
    for b in range(phat.parent.n_edges):
        direction = phat.parent.edge_direction(b)
        traces = []
        for side in (0, 1):
            key, seg, rev = _owner_for_edge(field, b, side)
            traces.append(_segment_tracer(field, key, seg, rev)(t))
        mis = max(
            float(np.max(1.0 - np.abs(tr @ direction))) for tr in traces
        )
        mis = max(mis, float(np.max(np.linalg.norm(traces[0] - traces[1], axis=1))))
        # constancy along the edge
        for tr in traces:
            mis = max(mis, float(np.max(np.linalg.norm(tr - tr[0], axis=1))))
        edge_mis[b] = mis
        worst_edge = max(worst_edge, mis)

    worst_cont = 0.0
    for (a, c) in phat.cleaved_edges:
        key_f, seg_f, _ = _owner_for_cleaved(field, (a, c))
        from_f = _segment_tracer(field, key_f, seg_f, False)(t)
        key_c = (CLEAVED, a)
        seg_c = field.charts[key_c].segment_index("cleaved", (a, c))
        from_c = _segment_tracer(field, key_c, seg_c, True)(t)
        worst_cont = max(worst_cont, float(np.max(np.linalg.norm(from_f - from_c, axis=1))))

    return TangencyReport(
        face_normal_dots=face_dots,
        worst_normal_dot=worst_face,
        edge_misalignment=edge_mis,
        worst_edge_misalignment=worst_edge,
        worst_continuity=worst_cont,
        tol_tangency=cfg.tol_tangency,
        tol_continuity=cfg.tol_continuity,
    )


def _grid_triangles(R: int, K: int):
    """Index triples for the two triangles of every grid cell, oriented
    with the chart (counterclockwise about the outward normal)."""
    i, j = np.meshgrid(np.arange(R), np.arange(K), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    j1 = (j + 1) % K

    def node(ii, jj):
        return ii * K + jj

    t1 = np.stack([node(i, j), node(i + 1, j), node(i + 1, j1)], axis=1)
    t2 = np.stack([node(i, j), node(i + 1, j1), node(i, j1)], axis=1)
    return np.concatenate([t1, t2], axis=0)


def face_quadrature_nodes(chart: PolarChart, depth: int):
    """Grid nodes and their chart coordinates for one face."""
    rho, phi = _face_grid(chart, depth)
    rr, pp = np.meshgrid(rho, phi, indexing="ij")
    return rr.ravel(), pp.ravel(), rho.size, phi.size


def frank_energy_surface(field: TangentField, cfg: Optional[QuadratureConfig] = None) -> float:
    """Surface Dirichlet energy of the field over all boundary faces.

    This is the two-dimensional restriction of the one-constant director
    energy: the squared surface gradient of the unit vector integrated
    over every face by piecewise-linear quadrature on the chart grid.
    It is a proxy for the volumetric functional, which would need an
    interior extension; nonnegative, and zero only for locally constant
    fields.  Face contributions are accumulated in face order, so the
    reduction is deterministic.
    """
    cfg = cfg or QuadratureConfig()
    total = 0.0
    for key in field.host.face_keys():
        chart = field.charts[key]
        rr, pp, nr, nph = face_quadrature_nodes(chart, cfg.depth)
        vals = field.evaluate(key, rr, pp)
        pos = chart.point(rr, pp)
        tris = _grid_triangles(nr - 1, nph)
        p0, p1, p2 = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]
        n0, n1, n2 = vals[tris[:, 0]], vals[tris[:, 1]], vals[tris[:, 2]]
        e1 = p1 - p0
        e2 = p2 - p0
        a11 = np.einsum("ij,ij->i", e1, e1)
        a12 = np.einsum("ij,ij->i", e1, e2)
        a22 = np.einsum("ij,ij->i", e2, e2)
        det = a11 * a22 - a12 * a12
        good = det > 1e-24
        d1 = n1 - n0
        d2 = n2 - n0
        g11 = np.einsum("ij,ij->i", d1, d1)
        g12 = np.einsum("ij,ij->i", d1, d2)
        g22 = np.einsum("ij,ij->i", d2, d2)
        density = np.zeros_like(det)
        density[good] = (
            a22[good] * g11[good] - 2.0 * a12[good] * g12[good] + a11[good] * g22[good]
        ) / det[good]
        area = np.zeros_like(det)
        area[good] = 0.5 * np.sqrt(det[good])
        total += float(np.sum(density * area))
    return total


def sample_field(field: TangentField, depth: int,
                 max_extra_depth: int = 3) -> SampledField:
    """Freeze a field onto per-face grids at the given depth.

    Faces whose values turn faster than a quarter turn per cell at the
    requested depth are refined individually, up to ``max_extra_depth``
    extra levels; beyond that CoarseSampling is raised.
    """
    values = {}
    for key in field.host.face_keys():
        chart = field.charts[key]
        for d in range(depth, depth + max_extra_depth + 1):
            rho, phi = _face_grid(chart, d)
            rr, pp = np.meshgrid(rho, phi, indexing="ij")
            vals = field.evaluate(key, rr.ravel(), pp.ravel())
            grid = vals.reshape(rho.size, phi.size, 3)
            if _grid_step_bound_ok(grid):
                values[key] = grid
                break
        else:
            raise CoarseSampling(
                f"face {key} still under-sampled {max_extra_depth} levels "
                f"above depth {depth}"
            )
    return SampledField(host=field.host, charts=field.charts, values=values)


def _truncation_to_dict(spec) -> dict:
    return {
        "normals": [[float(x) for x in row] for row in spec.normals],
        "points": [[float(x) for x in row] for row in spec.points],
    }


def truncation_from_dict(poly, data: dict):
    if "lambda" in data:
        return geometry.TruncationSpec.from_fraction(poly, float(data["lambda"]))
    return geometry.TruncationSpec(
        normals=np.asarray(data["normals"], dtype=float),
        points=np.asarray(data["points"], dtype=float),
    )


def field_to_dict(field: TangentField, depth: int = 4,
                  poly_source: Optional[dict] = None) -> dict:
    """Serializable description of the field, sampled at ``depth``.

    Node positions are included for external tools; the loader checks
    them against the reconstructed charts.
    """
    sampled = field if isinstance(field, SampledField) else sample_field(field, depth)
    phat = field.host
    faces = []
    for key in phat.face_keys():
        grid = sampled.values[key]
        chart = sampled.charts[key]
        R = grid.shape[0] - 1
        K = grid.shape[1]
        rho = np.linspace(0.0, 1.0, R + 1)
        phi = np.arange(K) * (2.0 * np.pi / K)
        rr, pp = np.meshgrid(rho, phi, indexing="ij")
        pos = chart.point(rr.ravel(), pp.ravel())
        faces.append({
            "kind": key[0],
            "index": int(key[1]),
            "rho_steps": int(R),
            "phi_steps": int(K),
            "positions": [[float(x) for x in row] for row in pos],
            "vectors": [[float(x) for x in row] for row in grid.reshape(-1, 3)],
        })
    return {
        "format": FIELD_FORMAT,
        "polyhedron": poly_source or phat.parent.to_dict(),
        "truncation": _truncation_to_dict(phat.spec),
        "faces": faces,
    }


def field_from_dict(data: dict) -> Tuple[SampledField, TangencyReport]:
    """Rebuild a sampled field; returns it with its tangency diagnostics.

    Vectors are renormalized on load.  Raises FieldError for structural
    problems, including a missing or mistyped entry; tangency violations
    are reported, not raised.
    """
    try:
        if data.get("format") != FIELD_FORMAT:
            raise FieldError(f"unsupported field format {data.get('format')!r}")
        poly_data = data["polyhedron"]
        if "builtin" in poly_data:
            poly = geometry.builtin_polyhedron(poly_data["builtin"])
        else:
            poly = geometry.polyhedron_from_dict(poly_data)
        spec = truncation_from_dict(poly, data["truncation"])
        phat = geometry.truncate(poly, spec)
        charts = charts_for(phat)
        values = {}
        scale = float(np.linalg.norm(poly.vertices.max(0) - poly.vertices.min(0)))
        for entry in data["faces"]:
            key = (entry["kind"], int(entry["index"]))
            if key not in charts:
                raise FieldError(f"unknown face {key} in field file")
            R = int(entry["rho_steps"])
            K = int(entry["phi_steps"])
            if R < 1 or K < 1:
                raise FieldError(f"face {key} needs at least one rho and one phi step")
            vecs = np.asarray(entry["vectors"], dtype=float)
            if vecs.shape != ((R + 1) * K, 3):
                raise FieldError(f"vector block shape mismatch on face {key}")
            pos = np.asarray(entry["positions"], dtype=float)
            rho = np.linspace(0.0, 1.0, R + 1)
            phi = np.arange(K) * (2.0 * np.pi / K)
            rr, pp = np.meshgrid(rho, phi, indexing="ij")
            expected = charts[key].point(rr.ravel(), pp.ravel())
            if (pos.shape != expected.shape
                    or np.max(np.linalg.norm(pos - expected, axis=1)) > 1e-6 * scale):
                raise FieldError(f"node positions disagree with the chart on face {key}")
            values[key] = normalized_rows(vecs).reshape(R + 1, K, 3)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        what = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        raise FieldError(f"malformed field document: {what}") from exc
    missing = set(phat.face_keys()) - set(values)
    if missing:
        raise FieldError(f"field file misses faces {sorted(missing)}")
    sampled = SampledField(host=phat, charts=charts, values=values)
    return sampled, validate_tangency(sampled)


def save_field(field: TangentField, path, depth: int = 4,
               poly_source: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_dict(field, depth, poly_source), fh, sort_keys=True)
        fh.write("\n")


def load_field(path) -> Tuple[SampledField, TangencyReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return field_from_dict(json.load(fh))


def save_mesh_obj(field: TangentField, path, depth: int = 4) -> None:
    """Write a Wavefront OBJ mesh with the field as vertex normals."""
    lines = ["# tangent unit-vector field mesh"]
    offset = 1
    face_lines = []
    for key in field.host.face_keys():
        chart = field.charts[key]
        rr, pp, nr, nph = face_quadrature_nodes(chart, depth)
        pos = chart.point(rr, pp)
        vals = field.evaluate(key, rr, pp)
        for p, n in zip(pos, vals):
            lines.append("v {:.17g} {:.17g} {:.17g}".format(*p))
            lines.append("vn {:.17g} {:.17g} {:.17g}".format(*n))
        for tri in _grid_triangles(nr - 1, nph):
            i, j, k = (int(x) + offset for x in tri)
            face_lines.append(f"f {i}//{i} {j}//{j} {k}//{k}")
        offset += pos.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + face_lines))
        fh.write("\n")
