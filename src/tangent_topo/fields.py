"""Tangent unit-vector fields on the boundary of a truncated polyhedron.

A field evaluates to unit vectors in face-chart coordinates.  Two
representations are provided: analytic (a callable evaluator) and
sampled (structured per-face grids with geodesic interpolation, which
keeps values on the sphere and keeps in-plane values in their plane).
Fields are immutable.

``save_field`` writes a SampledField and ``load_field`` reads it back,
in the one field format, ``tangentfield/2``: each face grid as base64 of
its float64 bytes.

Integral extraction routes require piecewise-differentiable evaluators;
the winding and preimage routes only need continuity plus adequate
sampling density.  Evaluators work point by point: a node's value does
not depend on the other points of the call, which ``FaceGrid`` relies on,
nor, for the representative's evaluator, which takes the corner faces
of a level together, on the other faces in it (``_build_levels``).

``evaluate(key, rho, phi)`` is the one entry point of both field types,
and it broadcasts: ``rho`` and ``phi`` broadcast against each other and
the values have their broadcast shape + (3,).  Scattered points are
equal-length 1-D arrays; a face grid block is rings ``rho[:, None]``
(shape (n, 1)) against angles ``phi`` (shape (k,)), which ``FaceGrid``
passes, so an analytic evaluator takes a factor of rho alone once per
ring and a factor of phi alone once per angle, and a SampledField
interpolates each stored ring it reads once per block.
Values may come in any layout; both field types return moved-axis views
of x, y, z planes.  Rows that reach einsum or matmul, whose sums follow
the layout, are C-contiguous (``face_grid``, ``FaceGrid`` and boundary
rings).  A face's boundary is read as one ring, one ``evaluate`` call
(``_boundary_ring``), whose rows are bit for bit the field along its
segments; a ring read on chosen spans at finer parameters gives finer
rows of the same segments.  ``validate_tangency`` reads every seam from
the rings of both faces, and ``extract_all`` reads kinks and edge
orientations from the rings of the trimmed faces.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from . import geometry
from .errors import (ResolutionTooCoarse, TangentTopoError, integer_entry, load_document,
                     reading_document)
from .geometry import (
    CLEAVED,
    TRUNCATED,
    FaceKey,
    PolarChart,
    TruncatedPolyhedron,
)
from .sphere import (_dot, _signed_areas, cross, geodesic_interpolate, normalized_rows,
                     triangle_areas)

TOL_TANGENCY = 1e-8
TOL_CONTINUITY = 1e-6
# Depth of the face grids and edge samples that validate_tangency scans.
TANGENCY_DEPTH = 4
# Deepest face grid that sampling and the extraction routes refine to.
MAX_DEPTH = 9

FIELD_FORMAT = "tangentfield/2"


def _grid_axes(R: int, K: int) -> Tuple[np.ndarray, np.ndarray]:
    # Ring radii and ring angles of the nodes of ``grid_nodes(R, K)``.
    return np.linspace(0.0, 1.0, R + 1), np.arange(K) * (2.0 * np.pi / K)


def grid_nodes(R: int, K: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chart coordinates ``(rho, phi)`` of the nodes of a face grid with
    ``R`` rings and ``K`` samples per ring, flattened row-major from
    shape (R + 1, K).

    Ring i sits at rho = linspace(0, 1, R + 1)[i], exactly 0 and 1 at
    the ends (i / R differs from it in the last bit for most R that are
    not powers of two, and a field file may have any R); sample j sits
    at phi = 2 pi j / K.
    """
    rr, pp = np.meshgrid(*_grid_axes(R, K), indexing="ij")
    return rr.ravel(), pp.ravel()


def face_grid(field: TangentField, key: FaceKey, depth: int) -> np.ndarray:
    """Field values on the whole depth-``depth`` grid of a face,
    C-contiguous of shape (R + 1, K, 3) with R = 2**depth rings and
    K = m 2**depth samples per ring on a face of m sides, so every corner
    lands on a node; the first level of a ``FaceGrid``."""
    return FaceGrid(field, key).values(depth)


# Entries per band of grid rows in the whole-grid kernels: the
# temporaries of a band stay in cache, and the allocator reuses them
# instead of mapping fresh pages for every whole-grid temporary.
BAND_ENTRIES = 8192


def _bands(rows: int, K: int):
    # Row ranges [i, j) of about BAND_ENTRIES entries of K per row.
    step = max(1, BAND_ENTRIES // K)
    return [(i, min(i + step, rows)) for i in range(0, rows, step)]


def _grid_planes(grid: np.ndarray) -> np.ndarray:
    """The x, y, z planes of an (R + 1, K, 3) grid with the first sample
    of each (periodic) ring repeated as column K, shape (3, R + 1, K + 1)."""
    planes = np.empty((3, grid.shape[0], grid.shape[1] + 1))
    planes[:, :, :-1] = np.moveaxis(grid, -1, 0)
    planes[:, :, -1] = planes[:, :, 0]
    return planes


def _level_pass(planes: np.ndarray, widths, s=None, sums: bool = True) -> list:
    """One pass in bands of BAND_ENTRIES over the planes (3, R + 1, C) of
    faces side by side, face f's (``_grid_planes``) on the ``widths[f]``
    columns after the faces before it.  Per face ``(radial, around, area,
    top, cap)``: its neighbor dots along its columns and its rings; if
    ``sums``, its image-area sum over ``_grid_triangles``, None where it
    breaks the quarter-turn bound or a triangle is invalid; at a unit
    ``s``, its largest boundary dot with ``s`` and its cap sum over the
    triangles (u, v, -s) of its boundary steps, None where one is invalid.
    Each sum is bit for bit the ``np.sum`` of ``triangle_areas`` over the
    face's gathered triangles: the same operands in the same order, and
    one ``np.sum`` over its steps or its contiguous (2, R, K) areas.
    """
    R1, C = planes.shape[1:]
    widths = np.asarray(widths)
    starts = np.cumsum(widths) - widths
    radial, around = np.empty((R1 - 1, C)), np.empty((R1, C))
    for i, j in _bands(R1 - 1, C):
        _dot(planes[:, i:j], planes[:, i + 1:j + 1], out=radial[i:j])
    for i, j in _bands(R1, C):
        _dot(planes[:, i:j, :-1], planes[:, i:j, 1:], out=around[i:j, :-1])
    around[:, starts + widths - 1] = np.inf  # no face's pairs
    areas = [None] * len(widths)
    if sums:
        low = np.minimum(np.minimum.reduceat(radial.min(axis=0), starts),
                         np.minimum.reduceat(around.min(axis=0), starts))
        areas = [np.empty((2, R1 - 1, w - 1)) if m > 0.0 else None for w, m in zip(widths, low)]
    for i, j in _bands(R1 - 1, C - 1) if any(a is not None for a in areas) else ():
        rings = planes[:, i:j + 1]
        c00, c10 = rings[:, :-1, :-1], rings[:, 1:, :-1]
        c01, c11 = rings[:, :-1, 1:], rings[:, 1:, 1:]
        # The triangles of cell (i, j) are (c00, c10, c11) and (c00, c11,
        # c01); radial[:, 1:] is the radial dot of the next sample, and
        # second starts as the diagonal dot.
        re, im = np.empty((2, 2, j - i, C - 1))
        first, second = re
        _dot(c11, c00, out=second)
        np.add(1.0, radial[i:j, :-1], out=first)
        first += around[i + 1:j + 1, :-1]
        first += second
        second += 1.0
        second += radial[i:j, 1:]
        second += around[i:j, :-1]
        _dot(cross(c00, c10, axis=0), c11, out=im[0])
        _dot(cross(c00, c11, axis=0), c01, out=im[1])
        band, valid = _signed_areas(re, im)
        for f, (o, w) in enumerate(zip(starts, widths)):
            cells = (slice(None), slice(None), slice(o, o + w - 1))
            if areas[f] is not None and valid[cells].all():
                areas[f][:, i:j] = band[cells]
            else:
                areas[f] = None
    tops = caps = [None] * len(widths)
    if s is not None:
        ring = np.ascontiguousarray(planes[:, -1].T)
        tops = np.maximum.reduceat(ring @ s, starts).tolist()
        gamma, valid = triangle_areas(ring[:-1], ring[1:], np.broadcast_to(-s, (C - 1, 3)))
        valid[starts[1:] - 1] = True
        caps = [float(np.sum(gamma[o:o + w - 1])) if whole else None
                for o, w, whole in zip(starts, widths, np.logical_and.reduceat(valid, starts))]
    return [(radial[:, o:o + w], around[:, o:o + w - 1],
             None if area is None else float(np.sum(area)), top, cap)
            for o, w, area, top, cap in zip(starts, widths, areas, tops, caps)]


def _within_quarter_turn(radial: np.ndarray, around: np.ndarray) -> bool:
    # Neighboring samples within a quarter turn; geodesic interpolation
    # is then unambiguous.
    return min(float(radial.min()), float(around.min())) > 0.0


def _grid_dots(grid: np.ndarray) -> tuple:
    # The radial and around dots of an (R + 1, K, 3) grid (``_level_pass``).
    return _level_pass(_grid_planes(grid), [grid.shape[1] + 1], sums=False)[0][:2]


@dataclass(frozen=True)
class AnalyticField:
    """Field given by a closed-form evaluator in chart coordinates.

    ``evaluator(key, rho, phi)`` receives float arrays of at least one
    dimension that broadcast against each other, equal-length 1-D arrays
    for scattered points or rings ``rho[:, None]`` against angles ``phi``
    for a grid block, and returns values of their broadcast shape + (3,).
    The values need not be unit vectors: ``evaluate`` normalizes each
    row once, in the layout the evaluator returns: a moved-axis view of
    x, y, z planes reaches ``FaceGrid``'s planes in one contiguous copy,
    C-ordered rows in one strided copy.  It works point by point: a
    node's value must not depend on the other points in the call
    (``FaceGrid`` relies on this), nor on whether it is reached as a
    scattered point or in a block.
    """

    host: TruncatedPolyhedron
    charts: Mapping[FaceKey, PolarChart]
    evaluator: Callable[[FaceKey, np.ndarray, np.ndarray], np.ndarray]

    def evaluate(self, key: FaceKey, rho, phi) -> np.ndarray:
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        return normalized_rows(self.evaluator(key, rho, phi))


@dataclass(frozen=True)
class SampledField:
    """Field stored on per-face (rho, phi) grids.

    ``values[key]`` has shape (R + 1, K, 3) for R radial steps and K
    boundary samples (phi-periodic); K is a multiple of the face's side
    count so corners land on nodes.  Interpolation is geodesic, first in
    phi at the two bracketing rings, then radially, in that fixed order.
    ``evaluate`` takes a grid block (see the module docstring) ring by
    ring and any other input point by point, bit for bit alike at a node.
    """

    host: TruncatedPolyhedron
    charts: Mapping[FaceKey, PolarChart]
    values: Mapping[FaceKey, np.ndarray]

    def __post_init__(self):
        for key, grid in self.values.items():
            m = self.charts[key].n_segments
            if grid.ndim != 3 or grid.shape[2] != 3 or grid.shape[1] % m:
                raise TangentTopoError(f"bad grid shape {grid.shape} for face {key}")
            if not _within_quarter_turn(*_grid_dots(grid)):
                raise ResolutionTooCoarse(
                    f"grid on face {key} has neighbors a quarter turn or "
                    "more apart; sample at a higher depth"
                )

    def _bracket(self, key: FaceKey, rho: np.ndarray, phi: np.ndarray):
        """Stored ring ``i0`` below each rho with the radial fraction
        ``tr``, and the samples ``j0``, ``j1`` around each phi with the
        fraction ``tp``; rho and phi are read element by element."""
        rings, K = self.values[key].shape[:2]
        R = rings - 1
        rpos = np.clip(rho, 0.0, 1.0) * R
        i0 = np.minimum(rpos.astype(int), R - 1)
        tr = rpos - i0
        ppos = np.mod(phi, 2.0 * np.pi) / (2.0 * np.pi) * K
        j0 = np.minimum(ppos.astype(int), K - 1)
        tp = ppos - j0
        return i0, tr, j0, (j0 + 1) % K, tp

    def evaluate(self, key: FaceKey, rho, phi) -> np.ndarray:
        grid = self.values[key]
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        i0, tr, j0, j1, tp = self._bracket(key, rho, phi)
        if not (rho.ndim == 2 and rho.shape[1] == 1 and phi.ndim == 1):
            low = geodesic_interpolate(grid[i0, j0], grid[i0, j1], tp)
            high = geodesic_interpolate(grid[i0 + 1, j0], grid[i0 + 1, j1], tp)
            return geodesic_interpolate(low, high, tr)
        # A grid block: the phi interpolation of a stored ring is the same
        # for every target ring it brackets, so each stored ring used is
        # interpolated once at the target phis, then every target ring
        # radially between its two, weights broadcast against whole blocks.
        i0 = i0[:, 0]
        used = np.zeros(grid.shape[0], dtype=bool)
        used[i0] = used[i0 + 1] = True
        slot = np.cumsum(used) - 1      # row of each used stored ring
        rows = np.flatnonzero(used)[:, None]
        rings = geodesic_interpolate(grid[rows, j0], grid[rows, j1], tp)
        planes = np.moveaxis(rings, -1, 0)
        low, high = (np.moveaxis(planes[:, slot[i]], 0, -1) for i in (i0, i0 + 1))
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

    def negated(key, rho, phi):
        return -inner(key, rho, phi)

    # The negation batches corner faces wherever ``inner`` does.
    negated._corner_batches = getattr(inner, "_corner_batches", False)
    return AnalyticField(host=field.host, charts=field.charts, evaluator=negated)


def _curve_key(host: TruncatedPolyhedron, curve, side: int) -> FaceKey:
    # The face of side ``side`` of ``curve`` (see ``_seam_rows``): trimmed
    # face c (0) or corner face a (1) of cleaved edge (a, c), and face
    # edge_faces[b, side] of truncated edge b.
    kind, ident = curve
    if kind == "cleaved":
        return ((TRUNCATED, ident[1]), (CLEAVED, ident[0]))[side]
    return (TRUNCATED, int(host.parent.edge_faces[ident, side]))


def _boundary_ring(field: TangentField, key: FaceKey, t: np.ndarray, spans=None) -> np.ndarray:
    """The field on the boundary rho = 1 of face ``key`` in one ``evaluate``
    call, C-contiguous of shape (n, len(t), 3): row k at phi0 + (phi1 -
    phi0) t for the k-th (phi0, phi1) of ``spans``, by default the spans
    of the face's n segments.  For t = linspace(0, 1, 2**n + 1), t is
    exactly i / 2**n, so a row read backward or at every 2**j-th sample
    is bit for bit the row at 1 - t or at the coarser t."""
    chart = field.charts[key]
    t = np.asarray(t, dtype=float)
    ends = np.array([chart.segment_span(k) for k in range(chart.n_segments)]
                    if spans is None else spans, dtype=float)
    phi = (ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * t).ravel()
    values = field.evaluate(key, np.ones_like(phi), phi)
    return np.ascontiguousarray(values).reshape(len(ends), t.size, 3)


def _seam_rows(field: TangentField, rings: Mapping[FaceKey, np.ndarray], curve) -> list:
    """The field along ``curve`` on its sides 0 and 1 (see ``_curve_key``),
    read from their ``rings`` in the curve's own direction, as
    C-contiguous rows.  ``curve`` is ``("cleaved", (a, c))`` for the
    border of corner ``a`` on face ``c`` in its stored direction, or
    ``("edge", b)`` for truncated edge ``b`` from its low-index endpoint."""
    kind, ident = curve
    rows = []
    for side in (0, 1):
        key = _curve_key(field.host, curve, side)
        chart = field.charts[key]
        seg = chart.segment_index(kind, ident)
        row = rings[key][seg]
        rows.append(row if chart.segments[seg].forward else row[::-1].copy())
    return rows


@dataclass(frozen=True)
class TangencyReport:
    """Worst-case tangency, edge alignment, and seam continuity."""

    face_normal_dots: Dict[int, float]
    worst_normal_dot: float
    edge_misalignment: Dict[int, float]
    worst_edge_misalignment: float
    worst_continuity: float

    @property
    def ok(self) -> bool:
        return (
            self.worst_normal_dot <= TOL_TANGENCY
            and self.worst_edge_misalignment <= TOL_TANGENCY
            and self.worst_continuity <= TOL_CONTINUITY
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


def validate_tangency(field: TangentField) -> TangencyReport:
    """Diagnostic scan of the tangency and continuity invariants, on the
    depth-``TANGENCY_DEPTH`` edge samples and face grids.  A SampledField
    is read at every node it stores, whose geodesic interpolation keeps
    in-plane values in their plane: its face-normal dots at every node,
    and every edge and seam also at t = j / k for the k samples per side
    of each face, so at every stored boundary node of both its faces.

    Never raises on a violation; callers inspect the report and decide.
    """
    phat = field.host

    def nodes(key: FaceKey) -> np.ndarray:
        return (field.values[key] if isinstance(field, SampledField)
                else face_grid(field, key, TANGENCY_DEPTH))

    face_dots = {c: float(np.max(np.abs(nodes((TRUNCATED, c)) @ phat.face_normal(c))))
                 for c in range(len(phat.trunc_faces))}

    t = np.linspace(0.0, 1.0, 2 ** TANGENCY_DEPTH + 1)
    if isinstance(field, SampledField):
        t = np.array(sorted(set(t.tolist()).union(*(
            np.linspace(0.0, 1.0, grid.shape[1] // field.charts[key].n_segments + 1).tolist()
            for key, grid in field.values.items()))))
    rings = {key: _boundary_ring(field, key, t) for key in phat.face_keys()}
    edge_mis = {}
    for b in range(phat.parent.n_edges):
        direction = phat.parent.edge_direction(b)
        traces = _seam_rows(field, rings, ("edge", b))
        mis = max(
            float(np.max(1.0 - np.abs(tr @ direction))) for tr in traces
        )
        mis = max(mis, float(np.max(np.linalg.norm(traces[0] - traces[1], axis=1))))
        # constancy along the edge
        for tr in traces:
            mis = max(mis, float(np.max(np.linalg.norm(tr - tr[0], axis=1))))
        edge_mis[b] = mis

    worst_cont = 0.0
    for ac in phat.cleaved_edges:
        from_f, from_c = _seam_rows(field, rings, ("cleaved", ac))
        worst_cont = max(worst_cont, float(np.max(np.linalg.norm(from_f - from_c, axis=1))))

    return TangencyReport(
        face_normal_dots=face_dots,
        worst_normal_dot=max(face_dots.values(), default=0.0),
        edge_misalignment=edge_mis,
        worst_edge_misalignment=max(edge_mis.values(), default=0.0),
        worst_continuity=worst_cont,
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


class FaceGrid:
    """One chain of refinement levels of a face grid, each a tensor grid
    of ring radii and angles built once as x, y, z planes (see
    ``_grid_planes``), whose ``_level_pass`` takes its neighbor dots and
    area sum once, and its cap once per reference direction.

    The first depth asked for is ``face_grid(field, key, depth)``.  Level
    d keeps the integer positions j of its columns at resolution
    M = m 2**d on a face of m sides, its angles at 2 pi j / M.  The round
    to level d + 1 doubles the positions and splits intervals between
    neighboring columns (the last one wraps around) at their midpoints.
    Where level d has a radial dot <= 0, or keeps the quarter-turn bound
    with an invalid area sum, it doubles R, the rings, and splits every
    interval.  Otherwise it splits the intervals in which some ring has an
    around dot <= 0, or every interval when none has, as a resolved level
    whose residual or cap fails needs.  It takes the planes below at their
    columns and evaluates the nodes it adds, the odd rings whole (if R
    doubles), then the held rings at the new columns: bit for bit the
    nodes of the whole grid on its radii and angles, as 2 pi (2 j) / 2M is
    exactly 2 pi j / M and fields work point by point.  ``values`` is a
    C-contiguous row copy, for einsum and matmul.
    ``_build_levels`` builds the levels, of this grid alone or of the
    grids of all corner faces together.
    """

    def __init__(self, field: TangentField, key: FaceKey):
        self.field, self.key = field, key
        self._sides = field.charts[key].n_segments
        self._planes: Dict[int, np.ndarray] = {}
        self._cols: Dict[int, np.ndarray] = {}  # column positions j of each level
        self._dots: Dict[int, tuple] = {}  # (planes, radial, around) of each level
        self._sums: Dict[int, Optional[float]] = {}
        self._caps: Dict[tuple, tuple] = {}  # (top, cap) of each level and s

    def _phi(self, depth: int) -> np.ndarray:
        # The angles 2 pi j / M of the columns of level ``depth``.
        return self._cols[depth] * (2.0 * np.pi / (self._sides * 2 ** depth))

    def planes(self, depth: int) -> np.ndarray:
        if depth not in self._planes:
            if depth < min(self._planes, default=depth):
                raise ValueError(f"depth {depth} is below the first level {min(self._planes)}")
            _build_levels([self], depth)
        return self._planes[depth]

    def nodes(self, depth: int) -> int:
        # Nodes of the top level, or of the whole depth-``depth`` grid
        # before the first level is built.
        if not self._planes:
            return (2 ** depth + 1) * self._sides * 2 ** depth
        return self._planes[max(self._planes)][0].size

    def _next(self, depth: int):
        """The grid blocks (rings ``rho[:, None]``, angles ``phi``) of the
        next level, or of the whole depth-``depth`` grid as the first, the
        store of their values in planes of that level, and its shape."""
        coarse = None
        if self._planes:
            d = max(self._planes)
            coarse, cols = self._planes[d], self._cols[d]
            doubles, split = self._round(d)
            R = (coarse.shape[1] - 1) * (2 if doubles else 1)
            # A split interval's midpoint is the sum of its ends at the
            # doubled resolution; the last interval ends at M.
            mids = (cols + np.append(cols[1:], self._sides * 2 ** d))[split]
            self._cols[d + 1] = np.sort(np.concatenate([2 * cols, mids]))
            held, added = (np.searchsorted(self._cols[d + 1], j) for j in (2 * cols, mids))
            d += 1
        else:
            d, R, doubles = depth, 2 ** depth, False
            self._cols[d] = np.arange(self._sides * R)
            added = slice(0, self._sides * R)
        step = 2 if doubles else 1
        rho, phi = np.linspace(0.0, 1.0, R + 1)[:, None], self._phi(d)
        blocks = [(rho[1::2], phi)] * doubles + [(rho[::step], phi[added])]

        def store(fine, values):
            if coarse is not None:
                fine[:, ::step, held] = coarse[:, :, :-1]
            if doubles:
                fine[:, 1::2, :-1] = np.moveaxis(values[0], -1, 0)
            fine[:, ::step, added] = np.moveaxis(values[-1], -1, 0)
            fine[:, :, -1] = fine[:, :, 0]
            self._planes[d] = fine
        return blocks, store, (R + 1, phi.size + 1)

    def _round(self, depth: int):
        # The round from level ``depth``: whether it doubles the rings, and
        # the intervals it splits.
        _, radial, around = self.neighbor_dots(depth)
        doubles = not radial.min() > 0.0 or (self.resolved(depth) and self.area_sum(depth) is None)
        split = ~(around.min(axis=0) > 0.0)
        return doubles, split if not doubles and split.any() else np.ones_like(split)

    def values(self, depth: int) -> np.ndarray:
        return np.ascontiguousarray(np.moveaxis(self.planes(depth)[:, :, :-1], 0, -1))

    def neighbor_dots(self, depth: int) -> tuple:
        self._take(depth)
        return self._dots[depth]

    def resolved(self, depth: int) -> bool:
        return _within_quarter_turn(*self.neighbor_dots(depth)[1:])

    def area_sum(self, depth: int) -> Optional[float]:
        self._take(depth)
        return self._sums[depth]

    def cap(self, depth: int, s: np.ndarray) -> tuple:
        self._take(depth, s)
        return self._caps[(depth, s.tobytes())]

    def drop_below(self, depth: int) -> None:
        # Free the levels below ``depth``, which a climb no longer reads.
        for levels in (self._planes, self._dots, self._sums):
            for d in [d for d in levels if d < depth]:
                del levels[d]

    def _take(self, depth: int, s=None) -> None:
        # The level pass of this grid alone, unless one took it; a cap on
        # the boundary ring alone once the dots are taken.
        taken = depth in self._sums
        if not taken or s is not None and (depth, s.tobytes()) not in self._caps:
            rows = self.planes(depth)[:, -1:] if taken else self.planes(depth)
            self._keep(depth, _level_pass(rows, [rows.shape[2]], s, not taken)[0], s)

    def _keep(self, depth: int, result: tuple, s) -> None:
        radial, around, area, top, cap = result
        if depth not in self._sums:
            self._dots[depth], self._sums[depth] = (self._planes[depth], radial, around), area
        if s is not None:
            self._caps[(depth, s.tobytes())] = top, cap

    def first_valid(self, depth: int) -> int:
        """The first level from ``depth`` on, up to MAX_DEPTH, whose area
        sum is valid; ResolutionTooCoarse if there is none."""
        for d in range(depth, MAX_DEPTH + 1):
            if self.area_sum(d) is not None:
                return d
        raise ResolutionTooCoarse(f"grid of face {self.key} did not resolve by depth {MAX_DEPTH}")


def _build_levels(grids, depth: int, s=None) -> None:
    """Build the FaceGrids ``grids`` of one field up to level ``depth``, one
    level of each at a time (``FaceGrid._next``), a block per ``evaluate``
    call; but an evaluator marked ``_corner_batches`` (the
    representative's) takes the blocks of the corner faces of a level in
    batches of whole faces of at most BAND_ENTRIES nodes, a batch per call
    (``_corner_batch``).  The new levels of the grids that share a ring
    count sit side by side in one buffer, which takes its ``_level_pass``
    at the unit ``s``, if given."""
    batched = getattr(getattr(grids[0].field, "evaluator", None), "_corner_batches", False)
    while True:
        nexts = [(grid, *grid._next(depth)) for grid in grids
                 if max(grid._planes, default=-1) < depth]
        if not nexts:
            return
        levels, slots = {}, {}
        for grid, _, _, (rings, width) in nexts:
            levels.setdefault(rings, []).append((grid, width))
        for rings, group in levels.items():
            planes = np.empty((3, rings, sum(width for _, width in group)))
            for (grid, width), end in zip(group, np.cumsum([width for _, width in group])):
                slots[grid] = planes[:, :, end - width:end]
        batches, room = [], 0
        for item in nexts:
            # A grid that takes no batch counts as more than a batch holds.
            n = (sum(rho.size * phi.size for rho, phi in item[1])
                 if batched and item[0].key[0] == CLEAVED else BAND_ENTRIES + 1)
            if n > room:
                batches.append([])
                room = BAND_ENTRIES
            batches[-1].append(item)
            room -= n
        for batch in batches:
            if len(batch) == 1:
                grid, blocks, store, _ = batch[0]
                store(slots[grid], [grid.field.evaluate(grid.key, *block) for block in blocks])
            else:
                for (grid, _, store, _), values in zip(batch, _corner_batch(batch)):
                    store(slots[grid], values)
                del values  # a view of the values of the whole batch
        for members, widths in (zip(*group) for group in levels.values() if s is not None):
            # The slots of one level are views of one buffer, their base.
            for grid, result in zip(members, _level_pass(slots[members[0]].base, widths, s)):
                grid._keep(max(grid._planes), result, s)


def _corner_batch(batch) -> list:
    """The values, shape (n, k, 3), of the blocks of the corner faces of
    ``batch``, ``[(grid, blocks, ...)]``, by one ``evaluate`` call with
    key ``(CLEAVED, a)``, ``a`` the face index of each node: the angles of
    all blocks side by side against their rings if they share them, else
    the nodes as equal-length 1-D arrays."""
    blocks = [(np.array(grid.key[1]), rho, phi) for grid, face, *_ in batch for rho, phi in face]
    rings = blocks[0][1]
    if all(np.array_equal(rho, rings) for _, rho, _ in blocks):
        nodes = [np.broadcast_arrays(a, phi) for a, _, phi in blocks]
    else:
        nodes = [[x.ravel() for x in np.broadcast_arrays(a, phi, rho)] for a, rho, phi in blocks]
        rings = np.concatenate([n[2] for n in nodes])
    a, phi = (np.concatenate([n[k] for n in nodes]) for k in (0, 1))
    values = batch[0][0].field.evaluate((CLEAVED, a), rings, phi)
    ends = np.cumsum([n[1].size for n in nodes])[:-1]
    pieces = iter(np.split(values, ends, axis=values.ndim - 2))
    return [[next(pieces).reshape(rho.size, phi.size, 3) for rho, phi in face]
            for _, face, *_ in batch]


def sample_field(field: TangentField, depth: int) -> SampledField:
    """Freeze a field onto per-face grids of evenly spaced samples: the
    whole (R + 1, m 2**d) grid of a face of m sides at each depth d from
    ``depth`` on, to the first that keeps the quarter-turn bound, at most
    ``MAX_DEPTH``, the depth cap of the extraction routes, so a field they
    resolve is never refused here; beyond that ResolutionTooCoarse is
    raised.  R starts at 2**depth and doubles after a depth with a radial
    dot <= 0, as in a ``FaceGrid`` round, so the grids are bit for bit
    the levels of a chain whose every round splits every interval.
    Depth 0 starts at depth 1: one sample per side can keep the bound
    while the boundary turns between the corners.
    """
    start, deepest = max(depth, 1), max(depth, MAX_DEPTH)
    values = {}
    for key in field.host.face_keys():
        R, m = 2 ** start, field.charts[key].n_segments
        for d in range(start, deepest + 1):
            rho, phi = _grid_axes(R, m * 2 ** d)
            grid = field.evaluate(key, rho[:, None], phi)
            radial, around = _grid_dots(grid)
            if _within_quarter_turn(radial, around):
                values[key] = np.ascontiguousarray(grid)
                break
            if not radial.min() > 0.0:
                R *= 2
        else:
            raise ResolutionTooCoarse(f"face {key} still under-sampled at depth {deepest}")
    return SampledField(host=field.host, charts=field.charts, values=values)


def save_field(field: SampledField, path) -> None:
    """Write a SampledField at its stored grids as a ``tangentfield/2``
    file: the bytes of ``json.dump(..., sort_keys=True)`` and a newline,
    one face block at a time through the C encoder of ``json.dumps``.  A
    block's ``vectors`` entry is the standard base64 of the little-endian
    float64 bytes of its (R + 1, K, 3) grid, row-major.  ``field.values``
    is read before the file is opened, so an analytic field fails before
    a byte is written; sample it first (``sample_field``)."""
    values, phat = field.values, field.host
    head = {
        "format": FIELD_FORMAT,
        "polyhedron": phat.parent.entry(),
        "truncation": phat.spec.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # "faces" sorts before every other top-level key.
        fh.write('{"faces": [')
        for i, key in enumerate(phat.face_keys()):
            grid = values[key]
            raw = grid.astype("<f8", copy=False).tobytes()
            block = {
                "kind": key[0],
                "index": int(key[1]),
                "rho_steps": int(grid.shape[0] - 1),
                "phi_steps": int(grid.shape[1]),
                "vectors": base64.b64encode(raw).decode("ascii"),
            }
            fh.write((", " if i else "") + json.dumps(block, sort_keys=True))
            del raw, block  # free this block before the next one is built
        fh.write("]")
        for name in sorted(head):
            fh.write(f", {json.dumps(name)}: {json.dumps(head[name], sort_keys=True)}")
        fh.write("}\n")


def load_field(path) -> Tuple[SampledField, TangencyReport]:
    """Read the ``tangentfield/2`` file that ``save_field`` writes; returns
    the sampled field with its tangency diagnostics.

    Vectors are renormalized on load.  Raises TangentTopoError
    for structural problems, including a document in any other format, a
    missing or mistyped entry or a malformed vector block; tangency
    violations are reported, not raised.
    """
    data = load_document(path, "field")
    with reading_document("field"):
        if data.get("format") != FIELD_FORMAT:
            raise TangentTopoError(f"unsupported field format {data.get('format')!r}")
        phat = geometry.truncated_solid(data["polyhedron"], data["truncation"])
        charts = phat.charts
        values = {}
        for entry in data["faces"]:
            key = (entry["kind"], integer_entry(entry["index"], "face index"))
            if key not in charts or key in values:
                raise TangentTopoError(f"unknown or repeated face {key} in field file")
            R = integer_entry(entry["rho_steps"], f"rho_steps of face {key}")
            K = integer_entry(entry["phi_steps"], f"phi_steps of face {key}")
            if R < 1 or K < 1:
                raise TangentTopoError(f"face {key} needs at least one rho and one phi step")
            raw = base64.b64decode(entry["vectors"], validate=True)  # the "<f8" bytes
            if len(raw) != (R + 1) * K * 24:
                raise TangentTopoError(f"vector block of face {key} has {len(raw)} bytes")
            vecs = np.frombuffer(raw, "<f8").reshape(-1, 3)
            values[key] = normalized_rows(vecs).reshape(R + 1, K, 3)
    missing = set(phat.face_keys()) - set(values)
    if missing:
        raise TangentTopoError(f"field file misses faces {sorted(missing)}")
    sampled = SampledField(host=phat, charts=charts, values=values)
    return sampled, validate_tangency(sampled)


def save_mesh_obj(field: TangentField, path, depth: int = 4) -> None:
    """Write a Wavefront OBJ mesh with the field as vertex normals."""
    lines = ["# tangent unit-vector field mesh"]
    offset = 1
    face_lines = []
    for key in field.host.face_keys():
        grid = face_grid(field, key, depth)
        R, K = grid.shape[0] - 1, grid.shape[1]
        pos = field.charts[key].point(*grid_nodes(R, K))
        for p, n in zip(pos, grid.reshape(-1, 3)):
            lines.append("v {:.17g} {:.17g} {:.17g}".format(*p))
            lines.append("vn {:.17g} {:.17g} {:.17g}".format(*n))
        for tri in _grid_triangles(R, K):
            i, j, k = (int(x) + offset for x in tri)
            face_lines.append(f"f {i}//{i} {j}//{j} {k}//{k}")
        offset += pos.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + face_lines))
        fh.write("\n")
