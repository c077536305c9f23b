"""Extraction and bookkeeping of the homotopy invariants.

The complete invariant set of a tangent field consists of the edge
orientations (constant field values on truncated edges), the kink
numbers (integer excess windings along cleaved edges, measured about
the adjacent trimmed-face normal), the wrapping numbers (integer face
degrees relative to a geodesic cap closure toward the antipode of a
reference direction ``s``), and the reference direction itself.  The
wrapping numbers are computed twice on one face grid: by the area/cap
integral on a resolved level, and one level up by a signed count of the
image triangles that contain a direction next to ``s``.  Trapped
areas, derived reals, come from two independent routes: direct
quadrature of the image area, and a closed form in the other invariants.

Orientation convention used throughout: surface integrals over a corner
face run with the boundary direction that traverses every cleaved edge
positively about its trimmed-face normal.  This is the direction in
which the kink spirals wind forward, and it makes the closed-form
trapped area, the covering-patch degree, and the wrapping sum rule
mutually consistent; all chart-based sums below are computed in chart
(counterclockwise) order and flipped once.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import fields as fields_mod
from . import geometry
from .errors import (DualRouteMismatch, NotRegularValue, ResolutionTooCoarse, SOnTriangleBoundary,
                     TangentTopoError, integer_entry, numbers_entry, reading_document)
from .fields import CLEAVED, MAX_DEPTH, TRUNCATED, FaceGrid, TangentField
from .geometry import TruncatedPolyhedron
from .sphere import (
    DEGREE_RESIDUAL_TOL,
    _rowdots,
    cross,
    normalized,
    normalized_rows,
    triangle_areas,
    triangle_sigmas,
    unwrap_rotation_angle,
)

MARGIN_S = 0.05
KINK_RESIDUAL_TOL = 1e-6
PREIMAGE_ATTEMPTS = 3
# The preimage check turns off s by multiples of a quarter of its margin, at
# most of MARGIN_S, so no turn crosses a boundary image of a face: this
# angle for every s that the library picks, whose margin is MARGIN_S or more.
PREIMAGE_TURN = MARGIN_S / (PREIMAGE_ATTEMPTS + 1)
# The corner faces climb in lockstep while the top levels of their grids
# hold at most this many nodes together, about 1.3 MB of planes and
# neighbor dots; past it, the lowest face climbs alone.
LOCKSTEP_NODES = 2 ** 15
# Samples per boundary segment of the trimmed-face rings that kinks
# unwrap, 2**7 + 1; edge orientations read every EDGE_STRIDE-th, 9.
RING_SAMPLES = 129
EDGE_STRIDE = 16
# Most samples a kink row is refined to, 2**16 + 1: a row in the
# quarter-turn bound then winds up to about 16k turns.
MAX_ROW_SAMPLES = 2 ** 16 + 1

INVARIANTS_FORMAT = "invariants/1"
REPORT_FORMAT = "invariant-report/1"

# Which endpoint of a cleaved edge is t = 0: the crossing on the edge
# that *enters* the corner in the trimmed face's cycle, so the trace
# runs positively about the trimmed-face normal.
CLEAVED_EDGE_START_RULE = (
    "t=0 at the crossing on the entering parent edge of the face cycle; "
    "traces run counterclockwise about the trimmed-face normal"
)


@dataclass(frozen=True)
class InvariantSet:
    """Edge orientations, kink numbers, wrapping numbers, and ``s``."""

    s: np.ndarray
    edge_orientations: np.ndarray          # (e, 3), each parallel to its edge
    kink_numbers: Dict[Tuple[int, int], int]
    wrapping_numbers: np.ndarray           # (v,) integers

    def __post_init__(self):
        object.__setattr__(self, "s", normalized(self.s))
        object.__setattr__(
            self, "edge_orientations",
            np.asarray(self.edge_orientations, dtype=float),
        )
        object.__setattr__(
            self, "wrapping_numbers",
            np.asarray(self.wrapping_numbers, dtype=int),
        )


def invariants_equal(a: InvariantSet, b: InvariantSet, eps_tol: float = 1e-9) -> bool:
    """Exact integer equality plus edge vectors within ``eps_tol``.

    Both sets must have been extracted with the same reference
    direction for the comparison to certify homotopy equivalence.
    """
    if a.kink_numbers != b.kink_numbers:
        return False
    if not np.array_equal(a.wrapping_numbers, b.wrapping_numbers):
        return False
    if a.edge_orientations.shape != b.edge_orientations.shape:
        return False
    return float(np.max(np.abs(a.edge_orientations - b.edge_orientations))) <= eps_tol


def antipodal_invariants(inv: InvariantSet) -> InvariantSet:
    """Invariant image of the pointwise field negation.

    Edge orientations and wrapping numbers change sign, kink numbers do
    not.  The wrapping identity holds when the negated field is read
    against the opposite reference direction (see ``extract_all``).
    """
    return InvariantSet(
        s=inv.s,
        edge_orientations=-inv.edge_orientations,
        kink_numbers=dict(inv.kink_numbers),
        wrapping_numbers=-inv.wrapping_numbers,
    )


def _sphere_sequence(n: int = 997) -> np.ndarray:
    golden = (1.0 + 5.0 ** 0.5) / 2.0
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    theta = 2.0 * np.pi * k / golden
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


_SPIRAL = _sphere_sequence()
_SPIRAL.flags.writeable = False


def s_margin(phat: TruncatedPolyhedron, s) -> float:
    """Smallest |s . F| over the trimmed-face normals."""
    s = normalized(s)
    return float(np.min(np.abs(phat.parent.face_normals @ s)))


def choose_reference_s(phat: TruncatedPolyhedron, seed: int = 0) -> np.ndarray:
    """Deterministic reference direction clearing every face normal.

    Walks a golden-spiral sequence on the sphere from a seed-dependent
    offset and returns the first point with margin at least MARGIN_S.
    The spiral is built once, at import; each call returns a fresh array.
    """
    n = _SPIRAL.shape[0]
    start = (int(seed) * 131) % n
    for k in range(n):
        cand = _SPIRAL[(start + k) % n]
        if s_margin(phat, cand) >= MARGIN_S:
            return cand.copy()
    raise TangentTopoError(
        "face normals blanket the sphere beyond the margin"
    )


def _trimmed_rings(field: TangentField) -> dict:
    # The boundary ring of each trimmed face, RING_SAMPLES per segment:
    # one ``evaluate`` call per face.
    t = np.linspace(0.0, 1.0, RING_SAMPLES)
    return {(TRUNCATED, c): fields_mod._boundary_ring(field, (TRUNCATED, c), t)
            for c in range(len(field.host.trunc_faces))}


def extract_edge_orientations(field: TangentField, rings=None) -> np.ndarray:
    """Constant field value on each truncated edge, snapped to the edge line.

    Checks constancy along the edge and agreement between the two
    adjacent faces within the continuity tolerance, then returns the
    exactly edge-parallel unit vector with the observed sign.  Each side
    of an edge is read at 9 samples, every EDGE_STRIDE-th of its trimmed
    face's ring in ``rings`` (by default evaluated here, one ``evaluate``
    call per face), all edges stacked, checked at once edge by edge.
    """
    phat = field.host
    rings = _trimmed_rings(field) if rings is None else rings
    directions = np.array([phat.parent.edge_direction(b) for b in range(phat.parent.n_edges)])
    stacked = np.array([np.concatenate([row[::EDGE_STRIDE] for row in
                                        fields_mod._seam_rows(field, rings, ("edge", b))])
                        for b in range(phat.parent.n_edges)])
    spreads = np.max(np.linalg.norm(stacked - stacked[:, :1], axis=2), axis=1)
    aligns = _rowdots(stacked.mean(axis=1), directions)
    varies = spreads > fields_mod.TOL_CONTINUITY
    failing = np.flatnonzero(varies | (np.abs(aligns) < 1.0 - 1e-6))
    if failing.size and varies[failing[0]]:
        raise TangentTopoError(f"edge {failing[0]} value varies by {spreads[failing[0]]:.3g}")
    if failing.size:
        raise TangentTopoError(f"edge {failing[0]} value is not edge-parallel")
    return np.where((aligns > 0)[:, None], directions, -directions)


def extract_kink(field: TangentField, a: int, c: int) -> int:
    """Integer winding of the field along cleaved edge ``(a, c)`` in
    excess of the minimal rotation between its endpoint values."""
    k, _ = _kink_details(field, [(a, c)])[(a, c)]
    return k


def _kink_details(field, edges, rings=None) -> dict:
    """``{(a, c): (kink, residual)}`` of the cleaved edges ``edges``, checked
    in their order.  Each edge's row of RING_SAMPLES samples is read from
    its trimmed face's ring in ``rings`` or evaluated alone (one
    ``evaluate`` call per face), and a face's rows are unwrapped together.
    The rows that break the quarter-turn bound are evaluated again on
    their own spans at twice the steps, t = i / 256, then i / 512 and so
    on, and unwrapped again, up to MAX_ROW_SAMPLES samples; a row still
    past the bound raises ResolutionTooCoarse, and one that leaves the
    great circle TangentTopoError."""
    phat = field.host
    rows = {}
    for c in dict.fromkeys(c for _, c in edges):
        group = [ac for ac in edges if ac[1] == c]
        key, axis = (TRUNCATED, c), normalized(phat.face_normal(c))
        chart = field.charts[key]
        segs = [chart.segment_index("cleaved", ac) for ac in group]
        # A trimmed face runs its cleaved segments forward (see
        # geometry.polar_chart), so no row is read backward.
        assert all(chart.segments[k].forward for k in segs)
        spans = np.array([chart.segment_span(k) for k in segs])
        t = np.linspace(0.0, 1.0, RING_SAMPLES)
        raw = rings[key][segs] if rings is not None else fields_mod._boundary_ring(
            field, key, t, spans)
        unit = normalized_rows(raw)  # once more, as kink residuals have always read it
        angles, bound, in_plane = unwrap_rotation_angle(unit, axis)
        while not bound.all() and t.size < MAX_ROW_SAMPLES:
            t, bad = np.linspace(0.0, 1.0, 2 * t.size - 1), np.flatnonzero(~bound)
            fine = normalized_rows(fields_mod._boundary_ring(field, key, t, spans[bad]))
            angles[bad], bound[bad], in_plane[bad] = unwrap_rotation_angle(fine, axis)
        rows.update(zip(group, zip(unit[:, 0], unit[:, -1], angles.tolist(), bound, in_plane)))
    details = {}
    for (a, c) in edges:
        axis = phat.face_normal(c)
        n0, n1, xi1, bound, in_plane = rows[(a, c)]
        if not bound:
            raise ResolutionTooCoarse(f"cleaved edge ({a},{c}) breaks the quarter-turn bound "
                                      f"at {MAX_ROW_SAMPLES} samples")
        if not in_plane:
            raise TangentTopoError(
                f"field on cleaved edge ({a},{c}) leaves the plane of face {c}")
        sin_eta = float(cross(n0, n1) @ axis)
        cos_eta = float(n0 @ n1)
        if abs(sin_eta) < 1e-9:
            raise TangentTopoError(
                f"endpoint values on cleaved edge ({a},{c}) are parallel"
            )
        eta = float(np.arctan2(sin_eta, cos_eta))
        raw = (xi1 - eta) / (2.0 * np.pi)
        nearest = round(raw)
        residual = abs(raw - nearest)
        if residual >= KINK_RESIDUAL_TOL:
            raise ResolutionTooCoarse(
                f"kink residual {residual:.3g} on cleaved edge ({a},{c})"
            )
        details[(a, c)] = (int(nearest), residual)
    return details


def _integral_at(grid: FaceGrid, s: np.ndarray, d: int):
    """``(w, residual)`` of a corner face by the area/cap integral at the
    unit direction ``s`` on level ``d`` of its FaceGrid ``grid`` (whose
    area sums serve every ``s``), or None where that level is unresolved."""
    top, cap = grid.cap(d, s)
    if top >= 1.0 - 1e-12:
        raise TangentTopoError(f"reference direction on the boundary image of "
                               f"face {grid.key[1]}")
    area_sum = grid.area_sum(d)
    # The cap term integrates the reference one-form along the
    # boundary image by exact geodesic steps: each step contributes
    # the signed area of the triangle (u, v, -s), which makes area
    # sum minus cap sum an exact multiple of 4*pi for any resolved
    # grid (the face sheet plus the cone over its boundary is a
    # closed surface cycle).  Both sums run in chart order.
    if area_sum is None or cap is None:
        return None
    raw = (cap - area_sum) / (4.0 * np.pi)
    nearest = round(raw)
    residual = abs(raw - nearest)
    return (int(nearest), residual) if residual < DEGREE_RESIDUAL_TOL else None


def extract_wrapping_integral(field: TangentField, a: int, s, depth: int = 4) -> int:
    """Wrapping number of corner face ``a`` by the area/cap integral, by
    ``extract_all``'s checked climb without the preimage route."""
    return _checked_climb(field, [a], normalized(s), depth, None)[0][0]


def _near_cells(node_dots: np.ndarray, radial: np.ndarray, around: np.ndarray):
    """Row-major indices ``(ii, jj)`` of the cells whose image can come
    near ``s``: a corner dot with ``s`` (``node_dots``) of at least
    ``cos(min(2 arccos(m) + 1e-3, pi))``, ``m`` the cell's least neighbor
    dot clipped to [-1, 1].  The arccos runs only where the lower bound
    ``2 max(m, 0)**2 - 1 - (1e-3 + 1e-9)`` of that threshold admits the
    cell (``cos(2 h + d) >= cos(2 h) - d`` for m >= 0, and -1 for m <= 0),
    so no cell is lost.
    """
    # Maxima and minima are exact: taken pairwise, they are the same.
    best = np.maximum(node_dots[:-1], node_dots[1:])
    best = np.maximum(best[:, :-1], best[:, 1:])
    m = np.minimum(radial[:, :-1], radial[:, 1:])
    np.minimum(m, np.minimum(around[1:], around[:-1]), out=m)
    cells = np.flatnonzero(best >= 2.0 * np.clip(m, 0.0, 1.0) ** 2 - 1.0 - (1e-3 + 1e-9))
    h = np.arccos(np.clip(m.ravel()[cells], -1.0, 1.0))
    cells = cells[best.ravel()[cells] >= np.cos(np.minimum(2.0 * h + 1e-3, np.pi))]
    return np.divmod(cells, best.shape[1])


def _grid_count(dots: tuple, s: np.ndarray) -> int:
    """Signed number of the image triangles of ``_grid_triangles`` that
    contain ``s``: the degree at ``s`` of the piecewise-geodesic map of
    an (R + 1, K, 3) grid, read from ``dots`` (``FaceGrid.neighbor_dots``),
    closed off by the cap of the integral route.

    A proximity filter over the whole grid runs first: only cells whose
    image comes near ``s`` can contain it, and it discards antipodal
    slivers, whose edge signs are rounding noise.  On the cells that
    pass, a triangle contains ``s`` when all three of its sides
    ``orient * cross(t_i, t_j) . s`` are positive.  The signs are exact:
    ``cross(b, a)`` is bit for bit ``-cross(a, b)``, so the two triangles
    that share an edge agree on which side of it ``s`` lies, and no
    image triangle is counted twice or missed.  Triangles with
    ``orient == 0`` are skipped, and so is one with two equal nodes (on
    the collapsed rho = 0 ring), whatever its rounded ``orient``: it has
    no interior, and its exact-zero side refuses nothing.  The count is
    negated: chart order runs against the invariant convention.  Raises
    NotRegularValue where ``s`` is the image of a grid node or of an edge.
    """
    planes, radial, around = dots
    node_dots = fields_mod._dot(planes, s)
    if node_dots.max() >= 1.0 - 1e-12:
        raise NotRegularValue("reference direction is the image of a grid node")
    ii, jj = _near_cells(node_dots, radial, around)
    # The corners of the near cells' triangles (c00, c10, c11), then (c00,
    # c11, c01), as (3, 2n) planes; column K repeats column 0.
    row = planes.shape[2]
    c00 = ii * row + jj
    t0, t1, t2 = (planes.reshape(3, -1).take(np.concatenate([c00 + p, c00 + q]), axis=1)
                  for p, q in ((0, 0), (row, row + 1), (row + 1, 1)))
    edges = cross(t0, t1, axis=0), cross(t1, t2, axis=0), cross(t2, t0, axis=0)
    orient = np.sign(fields_mod._dot(edges[0], t2))
    orient[(t0 == t1).all(0) | (t1 == t2).all(0) | (t2 == t0).all(0)] = 0
    side = np.minimum.reduce([orient * fields_mod._dot(edge, s) for edge in edges])
    if np.any((orient != 0) & (side == 0.0)):
        raise NotRegularValue("reference direction on an image triangle edge")
    return -int(orient[side > 0.0].sum())


def extract_wrapping_preimage(field: TangentField, a: int, s, grid_depth: int = 6,
                              cache: Optional[FaceGrid] = None) -> int:
    """Wrapping number of corner face ``a`` as a signed count of the image
    triangles that contain ``s``, on the first resolved grid from
    ``grid_depth`` on (from the face's FaceGrid ``cache``, if given).

    A second degree computation on the grid of the integral route, by
    edge-sign tests in place of area sums; it does not look at the field
    between grid nodes.  Raises NotRegularValue where ``s`` is the image
    of a grid node or of a triangle edge, as it is at the base ring of a
    covering patch for the ``s`` of its own representative;
    ``extract_all`` therefore counts at slightly rotated directions only.
    """
    grid = cache or FaceGrid(field, (CLEAVED, a))
    return _grid_count(grid.neighbor_dots(grid.first_valid(grid_depth)), normalized(s))


def trapped_area_direct(field: TangentField, a: int, depth: int = 7) -> float:
    """Signed spherical area swept over corner face ``a``, by quadrature
    on the first resolved level of its ``FaceGrid`` from the whole
    depth-``depth`` grid on: an independent check of the closed form at
    a depth of the caller's choice.

    Same image-area sum as the integral wrapping route (first term
    only), with the invariant orientation convention.  ``extract_all``
    does not call it: it reads the same sum from the face's FaceGrid at
    the depth where that route resolved.
    """
    grid = FaceGrid(field, (CLEAVED, a))
    return -grid.area_sum(grid.first_valid(depth))


def trapped_area_from_invariants(
    inv: InvariantSet,
    phat: TruncatedPolyhedron,
    a: int,
) -> float:
    """Closed-form trapped area from the invariants alone.

    Evaluates 4*pi*w minus the kink corrections, plus the fan sum of
    signed triangle areas (with pole corrections) over the polygon of
    edge-orientation vectors, anchored at the lowest edge index.
    """
    return _closed_form(inv, phat, a, _fans(phat, inv.edge_orientations, inv.s, [a])[0])


def _fans(phat: TruncatedPolyhedron, eps: np.ndarray, s: np.ndarray, faces) -> list:
    """Each corner face's fan term at the unit ``s``: the sum in order of
    the signed area minus 4 pi times the membership indicator of ``s``
    over the triangles (e_0, e_j, e_j+1) of ``eps`` around its
    ``fan_edge_cycle``, by one ``triangle_areas`` call and one
    ``triangle_sigmas`` pass.  Raises as the terms one by one, after a
    parallel pair check, face by face, each face then checking ``s`` off
    its face planes."""
    cycles = [phat.fan_edge_cycle(a) for a in faces]
    abc = eps[np.array([(cycle[0], cycle[j], cycle[j + 1])
                        for cycle in cycles for j in range(1, len(cycle) - 1)]).T]
    parallel = np.abs(_rowdots(abc, abc[[1, 2, 0]])).max(axis=0) >= 1.0 - 1e-9
    areas, valid = triangle_areas(*abc)
    sigmas, on_boundary = triangle_sigmas(*abc, s)
    first_bad = np.flatnonzero(parallel | ~valid | on_boundary).tolist() + [len(areas)]
    terms, fans, end = areas - 4.0 * np.pi * sigmas, [], 0
    for face, cycle in zip(faces, cycles):
        start, end, k = end, end + len(cycle) - 2, first_bad[0]
        if k < end and parallel[k]:
            raise TangentTopoError(f"fan triangle on face {face} has parallel edge "
                                   "orientations")
        if k < end and not valid[k]:
            raise TangentTopoError("triangle has an antipodal or degenerate vertex pair")
        if k < end:
            raise SOnTriangleBoundary("reference direction is on a triangle boundary")
        for plane in phat.cleaved_faces[face].face_chain:
            if abs(float(phat.face_normal(plane) @ s)) < 1e-12:
                raise SOnTriangleBoundary(f"reference direction orthogonal to face normal {plane}")
        fans.append(float(np.cumsum(terms[start:end])[-1]))
    return fans


def _closed_form(inv: InvariantSet, phat: TruncatedPolyhedron, a: int, fan: float) -> float:
    """``trapped_area_from_invariants`` of face ``a`` from its fan term at
    ``inv.s`` (``_fans``, which checks ``s``): adds the other terms."""
    kink_term = 0.0
    for c in phat.cleaved_faces[a].face_chain:
        kink_term += np.sign(float(phat.face_normal(c) @ inv.s)) * inv.kink_numbers[(a, c)]

    w = float(inv.wrapping_numbers[a])
    return 4.0 * np.pi * w - 2.0 * np.pi * kink_term + fan


@dataclass(frozen=True)
class KinkRuleVerdict:
    face: int
    q: int
    required: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.required == self.actual


@dataclass(frozen=True)
class SumRuleVerdicts:
    kink_rules: Tuple[KinkRuleVerdict, ...]
    wrapping_total: int

    @property
    def wrapping_ok(self) -> bool:
        return self.wrapping_total == 0

    @property
    def all_ok(self) -> bool:
        return self.wrapping_ok and all(v.ok for v in self.kink_rules)

    def to_dict(self) -> dict:
        return {
            "kink_rules": [
                {"face": v.face, "q": v.q, "required": v.required,
                 "actual": v.actual, "ok": v.ok}
                for v in self.kink_rules
            ],
            "wrapping_rule": {"total": self.wrapping_total, "ok": self.wrapping_ok},
            "all_ok": self.all_ok,
        }


def face_opposition_count(eps: np.ndarray, phat: TruncatedPolyhedron, c: int) -> int:
    """Number of consecutive truncated-edge pairs of face ``c`` whose
    orientations ``eps[b]`` point opposite ways along the face cycle.

    Each edge orientation either follows or opposes the direction in
    which the face cycle traverses its edge; the count is the number of
    sign flips around the cycle (always even).  Comparing raw dot
    products of the vectors themselves degenerates on square faces,
    where consecutive edge directions are perpendicular.
    """
    tf = phat.trunc_faces[c]
    aligns = []
    for seg in tf.segments:
        if seg.kind != "edge":
            continue
        b = seg.key
        d = phat.parent.edge_direction(b) * (1.0 if seg.forward else -1.0)
        dot = float(eps[b] @ d)
        if abs(dot) < 0.5:
            raise TangentTopoError(f"edge orientation {b} not parallel to its edge")
        aligns.append(1 if dot > 0 else -1)
    q = sum(
        1 for k in range(len(aligns)) if aligns[k] != aligns[(k + 1) % len(aligns)]
    )
    if q % 2:
        raise TangentTopoError(f"odd opposition count on face {c}")
    return q


def check_sum_rules(inv: InvariantSet, phat: TruncatedPolyhedron) -> SumRuleVerdicts:
    """Per-face kink identities and the global wrapping identity."""
    verdicts = []
    for c in range(len(phat.trunc_faces)):
        q = face_opposition_count(inv.edge_orientations, phat, c)
        required = q // 2 - 1
        actual = sum(
            inv.kink_numbers[seg.key]
            for seg in phat.trunc_faces[c].segments
            if seg.kind == "cleaved"
        )
        verdicts.append(KinkRuleVerdict(face=c, q=q, required=required, actual=actual))
    total = int(np.sum(inv.wrapping_numbers))
    return SumRuleVerdicts(kink_rules=tuple(verdicts), wrapping_total=total)


@dataclass(frozen=True)
class InvariantReport:
    """Invariants plus verdicts, trapped areas, and diagnostics."""

    invariants: InvariantSet
    verdicts: SumRuleVerdicts
    trapped_closed: np.ndarray
    trapped_direct: np.ndarray
    wrapping_preimage: Tuple[Optional[int], ...]
    wrapping_residuals: np.ndarray
    wrapping_depths: Tuple[int, ...]
    wrapping_grids: Tuple[Tuple[int, int], ...]  # (R, K) of each resolved grid
    wrapping_checks: Tuple[Optional[int], ...]  # levels the check turned down
    kink_residuals: Dict[Tuple[int, int], float]
    seed: int
    s_was_given: bool
    s_attempts: int                        # directions ``_settle_s`` tried
    s_margin: float
    quadrature_depth: int
    tool_version: str

    @property
    def trapped_max_disagreement(self) -> float:
        return float(np.max(np.abs(self.trapped_closed - self.trapped_direct)))


def _rotated(s: np.ndarray, axis_hint: int, angle: float) -> np.ndarray:
    axis = np.zeros(3)
    axis[axis_hint % 3] = 1.0
    axis = normalized(cross(s, axis)) if abs(s[axis_hint % 3]) < 0.9 else normalized(
        cross(s, np.roll(axis, 1))
    )
    return normalized(
        np.cos(angle) * s + np.sin(angle) * cross(axis, s)
    )


def _checked_preimage(grid: FaceGrid, s_ref, used, turn: float = PREIMAGE_TURN):
    """The preimage count of a corner face on level ``used`` of its
    FaceGrid ``grid``, a level with a valid area sum, at the first of
    PREIMAGE_ATTEMPTS directions turned off ``s_ref`` by multiples of
    ``turn`` that is a regular value and that the integral route
    resolves on that same level, checked against that route; None when
    none is.  ``s_ref`` itself is never tried: the covering patch of the
    representative maps the whole base ring of every corner face onto it."""
    a = grid.key[1]
    for k in range(1, PREIMAGE_ATTEMPTS + 1):
        s_k = _rotated(s_ref, k, k * turn)
        try:
            pre = extract_wrapping_preimage(grid.field, a, s_k, used, grid)
        except NotRegularValue:
            continue
        ref = _integral_at(grid, s_k, used)
        if ref is None:
            continue
        if pre != ref[0]:
            raise DualRouteMismatch(f"face {a}: integral route {ref[0]} vs "
                                    f"preimage {pre} at s = {s_k}")
        return pre
    return None


def _climb(grid: FaceGrid, s, depth: int, turn: Optional[float]):
    """``(w, residual, level, preimage, checks)`` of a corner face by the
    integral route at the unit ``s``, climbing the levels of ``grid`` from
    ``depth`` on: a generator that yields where it next needs level u + 1.
    A resolved level u below MAX_DEPTH counts once level u + 1 has a valid
    area sum and gives w: by ``_checked_preimage`` there at the turn
    ``turn``, else (``turn`` None, or no count) by ``_integral_at`` on
    u + 1.  ``checks`` counts the levels turned down, a DualRouteMismatch
    included; None if the climb first resolved at MAX_DEPTH, which counts
    unchecked."""
    checks = None
    for u in range(depth, MAX_DEPTH + 1):
        at = _integral_at(grid, s, u)
        if u < MAX_DEPTH:
            yield
        if at is None:
            continue
        checks = 0 if checks is None else checks + 1
        if u == MAX_DEPTH:
            pre = _checked_preimage(grid, s, u, turn) if turn else None
            return (*at, u, pre, checks or None)
        if grid.area_sum(u + 1) is None:
            continue
        try:
            pre = _checked_preimage(grid, s, u + 1, turn) if turn else None
        except DualRouteMismatch:
            continue
        up = _integral_at(grid, s, u + 1) if pre is None else (pre,)
        if up is not None and up[0] == at[0]:
            return (*at, u, pre, checks)
    raise ResolutionTooCoarse(f"wrapping quadrature on face {grid.key[1]} did not "
                              f"resolve by depth {MAX_DEPTH}")


def _checked_climb(field: TangentField, faces, s, depth: int, turn: Optional[float]) -> list:
    """``(w, residual, level, preimage, checks, (R, K), direct)`` of each
    corner face of ``faces``: the ``_climb`` of its FaceGrid, with the
    (R, K) and the direct trapped area of its level.  The faces climb in
    lockstep, each level of all of them built and passed at ``s`` at once
    (``fields._build_levels``), while their top levels hold at most
    LOCKSTEP_NODES nodes; past that, the lowest face climbs alone.  A
    lockstep grid drops the levels below the one it checks, and is
    dropped once its face finishes.  The exception raised is that of a
    climb face by face: the lowest failing face's, once every lower face
    has finished."""
    grids = [FaceGrid(field, (CLEAVED, a)) for a in faces]
    climbs = {i: _climb(grid, s, depth, turn) for i, grid in enumerate(grids)}
    done, failed, level = {}, {}, depth
    while climbs:
        together = sum(grids[i].nodes(depth) for i in climbs) <= LOCKSTEP_NODES
        if together and level <= MAX_DEPTH:
            # No climb reads a level below the one it checks, whose buffer
            # holds every face's.  A face whose level this fails builds it
            # alone, and meets its own exception again; any other is a fault.
            for i in climbs:
                grids[i].drop_below(level - 1)
            with contextlib.suppress(TangentTopoError, ValueError):
                fields_mod._build_levels([grids[i] for i in climbs], level, s)
        level += together
        for i in list(climbs) if together else [min(climbs)]:
            try:
                next(climbs[i])
                continue
            except StopIteration as stop:
                rings, samples = grids[i].planes(stop.value[2]).shape[1:]
                done[i] = (*stop.value, (rings - 1, samples - 1),
                           -grids[i].area_sum(stop.value[2]))
            except Exception as exc:
                failed[i] = exc
            del climbs[i]
            grids[i] = None
        climbs = {i: climb for i, climb in climbs.items() if i < min(failed, default=i + 1)}
    if failed:
        raise failed[min(failed)]
    return [done[i] for i in range(len(grids))]


def _settle_s(phat: TruncatedPolyhedron, eps: np.ndarray, s, seed: int):
    """``(s, attempts, fans)``: ``s`` normalized, or the first of six seeded
    directions off every fan-triangle boundary, how many directions were
    tried, and each face's fan term there (``_fans``), at the direction
    normalized once more, as ``InvariantSet`` holds it."""
    candidates = [normalized(s)] if s is not None else (
        choose_reference_s(phat, seed + 1000 * attempt) for attempt in range(6))
    for attempts, s_try in enumerate(candidates, 1):
        try:
            return s_try, attempts, _fans(phat, eps, normalized(s_try),
                                          range(len(phat.cleaved_faces)))
        except SOnTriangleBoundary:
            if s is not None:
                raise
    raise SOnTriangleBoundary("could not find a reference direction off all fans")


def extract_all(
    field: TangentField,
    s=None,
    seed: int = 0,
    depth: int = 4,
    with_preimage: bool = True,
) -> InvariantReport:
    """Assemble the full invariant report of a field.

    If ``s`` is omitted it is chosen deterministically from ``seed`` and
    re-chosen while it sits on a fan-triangle boundary, before any route
    runs.  Wrapping numbers come from the integral route at ``s``, which
    starts on the whole depth-``depth`` grid of each face and climbs its
    ``FaceGrid`` levels to a resolved level, whose depth and (R, K) the
    report keeps, checked one level up (``_checked_climb``): any resolved
    grid is exact, so the check guards against a field that turns too
    far between nodes; the faces climb together, as each would alone.
    The preimage route cross-checks w on the check level by a signed
    count of the image triangles that contain one of up to
    PREIMAGE_ATTEMPTS directions turned off ``s`` by multiples of a
    quarter of its margin, at most of MARGIN_S (PREIMAGE_TURN), never
    ``s`` itself, the image of the base ring of a
    representative's covering patches: the first turned direction that
    is a regular value, and resolved by the integral route on that level,
    gives the count, compared with that route.  A disagreement climbs on
    and raises DualRouteMismatch at MAX_DEPTH.  The count reads only
    grids the climb evaluated, so it makes no ``evaluate`` call of its
    own; ``with_preimage=False`` skips it (its report column is all None).

    Trapped areas come from the closed form and from direct quadrature.
    The direct area of a face is read from the grid on which the
    integral route resolved, whose area sum that route already took, so
    their agreement checks the cap-kink-fan identity of the closed form
    and the integral route's residual, not a second grid; an independent
    grid is ``trapped_area_direct`` at a depth of the caller's choice.
    """
    from . import __version__

    phat = field.host
    rings = _trimmed_rings(field)
    eps = extract_edge_orientations(field, rings)
    s_ref, s_attempts, fans = _settle_s(phat, eps, s, seed)
    details = _kink_details(field, sorted(phat.cleaved_edges), rings)
    kinks = {ac: k for ac, (k, _) in details.items()}
    kink_res = {ac: res for ac, (_, res) in details.items()}

    n_corners = len(phat.cleaved_faces)
    margin = s_margin(phat, s_ref)
    turn = min(MARGIN_S, margin) / (PREIMAGE_ATTEMPTS + 1) if with_preimage else None
    omegas, residuals, depths, preimages, checks, grids, directs = zip(
        *_checked_climb(field, range(n_corners), s_ref, depth, turn))

    inv = InvariantSet(s=s_ref, edge_orientations=eps, kink_numbers=kinks,
                       wrapping_numbers=np.array(omegas, dtype=int))
    return InvariantReport(
        invariants=inv,
        verdicts=check_sum_rules(inv, phat),
        trapped_closed=np.array([
            _closed_form(inv, phat, a, fans[a]) for a in range(n_corners)
        ]),
        trapped_direct=np.array(directs),
        wrapping_preimage=preimages,
        wrapping_residuals=np.array(residuals),
        wrapping_depths=depths,
        wrapping_grids=grids,
        wrapping_checks=checks,
        kink_residuals=kink_res,
        seed=seed,
        s_was_given=s is not None,
        s_attempts=s_attempts,
        s_margin=margin,
        quadrature_depth=depth,
        tool_version=__version__,
    )


# --- serialization ----------------------------------------------------------

def invariant_set_to_dict(inv: InvariantSet, phat: TruncatedPolyhedron) -> dict:
    signs = {}
    vectors = {}
    for b in range(phat.parent.n_edges):
        d = phat.parent.edge_direction(b)
        signs[str(b)] = int(np.sign(inv.edge_orientations[b] @ d))
        vectors[str(b)] = [float(x) for x in inv.edge_orientations[b]]
    return {
        "reference_direction": [float(x) for x in inv.s],
        "edge_orientations": signs,
        "edge_orientation_vectors": vectors,
        "kink_numbers": {f"{a},{c}": int(k) for (a, c), k in sorted(inv.kink_numbers.items())},
        "wrapping_numbers": {str(a): int(w) for a, w in enumerate(inv.wrapping_numbers)},
    }


def invariant_set_from_dict(phat: TruncatedPolyhedron, data: dict) -> InvariantSet:
    """Every entry must name an edge, cleaved edge or corner face of
    ``phat``; ``edge_orientation_vectors``, where present, must hold
    each edge's sign times its direction."""
    e, v = phat.parent.n_edges, len(phat.cleaved_faces)
    signs, vectors = data["edge_orientations"], data.get("edge_orientation_vectors", {})
    for entries, n, what in ((signs, e, "edge"), (vectors, e, "edge"),
                             (data["wrapping_numbers"], v, "corner face")):
        extra = set(entries) - {str(i) for i in range(n)}
        if extra:
            raise TangentTopoError(f"entry {sorted(extra)[0]!r} names no {what} of the solid")
    eps = np.empty((e, 3))
    for b in range(e):
        sign = integer_entry(signs[str(b)], f"edge orientation sign {b}")
        if sign not in (-1, 1):
            raise TangentTopoError(f"edge orientation sign for edge {b} must be +-1")
        eps[b] = sign * phat.parent.edge_direction(b)
        if "edge_orientation_vectors" in data:
            vec = np.asarray(numbers_entry(vectors[str(b)], f"edge orientation vector {b}"),
                             dtype=float)
            if vec.shape != (3,) or not np.linalg.norm(vec - eps[b]) <= 1e-9:
                raise TangentTopoError(f"edge orientation vector {b} is not its sign "
                                       "times the edge direction")
    kinks = {}
    for key, val in data["kink_numbers"].items():
        a_str, c_str = key.split(",")
        edge = int(a_str), int(c_str)
        if edge in kinks:
            raise TangentTopoError(f"kink number {key!r} repeats cleaved edge {edge}")
        kinks[edge] = integer_entry(val, f"kink number {key}")
    if set(kinks) != set(phat.cleaved_edges):
        raise TangentTopoError("kink numbers must name exactly the cleaved edges")
    omegas = np.array([integer_entry(data["wrapping_numbers"][str(a)],
                                     f"wrapping number {a}") for a in range(v)])
    s = np.asarray(numbers_entry(data["reference_direction"], "reference direction"), dtype=float)
    if s.shape != (3,):
        raise TangentTopoError(f"reference direction needs 3 entries, not shape {s.shape}")
    return InvariantSet(
        s=s,
        edge_orientations=eps,
        kink_numbers=kinks,
        wrapping_numbers=omegas,
    )


def report_to_dict(report: InvariantReport, phat: TruncatedPolyhedron) -> dict:
    inv_dict = invariant_set_to_dict(report.invariants, phat)
    inv_dict["polyhedron"] = phat.parent.entry()
    inv_dict["truncation"] = phat.spec.to_dict()
    return {
        "format": REPORT_FORMAT,
        "tool_version": report.tool_version,
        "seed": report.seed,
        "invariants": inv_dict,
        "verdicts": report.verdicts.to_dict(),
        "trapped_areas": {
            "closed_form": {str(a): float(x) for a, x in enumerate(report.trapped_closed)},
            "direct": {str(a): float(x) for a, x in enumerate(report.trapped_direct)},
            "max_disagreement": report.trapped_max_disagreement,
        },
        "wrapping_preimage": {
            str(a): (None if w is None else int(w))
            for a, w in enumerate(report.wrapping_preimage)
        },
        "diagnostics": {
            "quadrature_depth": report.quadrature_depth,
            "wrapping_depths": list(report.wrapping_depths),
            "wrapping_grids": {str(a): list(g) for a, g in enumerate(report.wrapping_grids)},
            "wrapping_checks": {str(a): n for a, n in enumerate(report.wrapping_checks)},
            "wrapping_residuals": {
                str(a): float(r) for a, r in enumerate(report.wrapping_residuals)
            },
            "kink_residuals": {
                f"{a},{c}": float(r)
                for (a, c), r in sorted(report.kink_residuals.items())
            },
            "reference_given": report.s_was_given,
            "s_attempts": report.s_attempts,
            "s_margin": report.s_margin,
            "cleaved_edge_start_rule": CLEAVED_EDGE_START_RULE,
        },
    }


def parse_invariants_document(data: dict):
    """Read an invariant-set file or a report file (re-ingestible).

    Returns ``(phat, InvariantSet)``; a document with
    no ``truncation`` entry is cut at fraction 0.2.  A missing or
    mistyped entry raises TangentTopoError.
    """
    with reading_document("invariant"):
        if data.get("format") == REPORT_FORMAT:
            data = data["invariants"]
        elif data.get("format", INVARIANTS_FORMAT) != INVARIANTS_FORMAT:
            raise TangentTopoError(f"unsupported invariants format {data.get('format')!r}")
        phat = geometry.truncated_solid(
            data["polyhedron"], data.get("truncation", {"lambda": 0.2}))
        return phat, invariant_set_from_dict(phat, data)

