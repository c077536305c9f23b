"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import base64
import io
import json

import numpy as np

from tangent_topo import AnalyticField, ConvexPolyhedron, ImageMesh, TruncationSpec
from tangent_topo.fields import CLEAVED, TRUNCATED, SampledField, face_grid, sample_field
from tangent_topo.sphere import cross, geodesic_interpolate, normalized, normalized_rows


# --- independent spherical-area oracle ---------------------------------------

def lhuilier_signed_area(a, b, c) -> float:
    """Signed triangle area via L'Huilier's excess formula.

    Independent of the arctangent identity used by the library: computes
    the excess from the three side lengths and attaches the orientation
    sign from the triple product.
    """
    a, b, c = (normalized(v) for v in (a, b, c))

    def side(u, v):
        return float(np.arctan2(np.linalg.norm(np.cross(u, v)), u @ v))

    sa, sb, sc = side(b, c), side(c, a), side(a, b)
    s = 0.5 * (sa + sb + sc)
    prod = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - sa))
        * np.tan(0.5 * (s - sb))
        * np.tan(0.5 * (s - sc))
    )
    excess = 4.0 * np.arctan(np.sqrt(max(prod, 0.0)))
    orient = float(np.cross(a, b) @ c)
    return float(np.copysign(excess, orient)) if orient != 0.0 else excess


# --- brute-force unwrapping oracle --------------------------------------------

def brute_force_rotation_angle(curve, axis, samples: int = 20001) -> float:
    """Accumulated rotation angle by very fine uniform sampling."""
    axis = normalized(axis)
    t = np.linspace(0.0, 1.0, samples)
    pts = np.asarray([normalized(curve(tk)) for tk in t])
    u, v = pts[:-1], pts[1:]
    steps = np.arctan2(np.cross(u, v) @ axis, np.einsum("ij,ij->i", u, v))
    return float(np.sum(steps))


# --- rotations ----------------------------------------------------------------

def rotation_matrix(axis, angle) -> np.ndarray:
    axis = normalized(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng) -> np.ndarray:
    return rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))


# --- sphere triangulations -----------------------------------------------------

def icosahedron_mesh() -> ImageMesh:
    """Identity map on an icosahedral triangulation."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = []
    for x in (-1.0, 1.0):
        for y in (-phi, phi):
            raw.extend([(x, y, 0.0), (0.0, x, y), (y, 0.0, x)])
    verts = np.asarray([normalized(v) for v in raw])
    edge2 = 4.0 / (1.0 + phi * phi)  # squared edge length after normalization
    tris = []
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d2 = (
                    np.linalg.norm(verts[i] - verts[j]) ** 2,
                    np.linalg.norm(verts[j] - verts[k]) ** 2,
                    np.linalg.norm(verts[k] - verts[i]) ** 2,
                )
                if all(abs(x - edge2) < 1e-6 for x in d2):
                    tri = [i, j, k]
                    normal = np.cross(verts[j] - verts[i], verts[k] - verts[i])
                    if normal @ (verts[i] + verts[j] + verts[k]) < 0:
                        tri = [i, k, j]
                    tris.append(tri)
    assert len(tris) == 20
    return ImageMesh(triangles=np.asarray(tris), images=verts)


def polar_sphere_mesh(n_alpha: int, n_beta: int, image_fn=None):
    """Outward-oriented pole-to-pole triangulation of the sphere.

    ``image_fn(alpha, beta)`` maps grid coordinates to the image point;
    the default is the identity embedding.
    """
    if image_fn is None:
        image_fn = lambda alpha, beta: np.array([
            np.sin(alpha) * np.cos(beta),
            np.sin(alpha) * np.sin(beta),
            np.cos(alpha),
        ])
    verts = [image_fn(0.0, 0.0)]
    index = {}
    for i in range(1, n_alpha):
        alpha = np.pi * i / n_alpha
        for j in range(n_beta):
            beta = 2.0 * np.pi * j / n_beta
            index[(i, j)] = len(verts)
            verts.append(image_fn(alpha, beta))
    south = len(verts)
    verts.append(image_fn(np.pi, 0.0))

    tris = []
    for j in range(n_beta):
        j1 = (j + 1) % n_beta
        tris.append([0, index[(1, j)], index[(1, j1)]])
        tris.append([south, index[(n_alpha - 1, j1)], index[(n_alpha - 1, j)]])
    for i in range(1, n_alpha - 1):
        for j in range(n_beta):
            j1 = (j + 1) % n_beta
            a, b = index[(i, j)], index[(i, j1)]
            c, d = index[(i + 1, j)], index[(i + 1, j1)]
            tris.append([a, c, d])
            tris.append([a, d, b])
    return ImageMesh(triangles=np.asarray(tris), images=np.asarray(verts))


def subdivide_mesh(mesh: ImageMesh) -> ImageMesh:
    """One 4-to-1 subdivision, interpolating new nodes along geodesics."""
    verts = [v for v in mesh.images]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(geodesic_interpolate(verts[i], verts[j], 0.5)[0])
        return midpoint[key]

    tris = []
    for i, j, k in mesh.triangles:
        ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
        tris.extend([[i, ij, ki], [ij, j, jk], [ki, jk, k], [ij, jk, ki]])
    return ImageMesh(triangles=np.asarray(tris), images=np.asarray(verts))


# --- solids beyond the builtins ------------------------------------------------

def pentagonal_pyramid():
    """A solid with a degree-5 apex and a pentagonal face."""
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    verts = [(float(np.cos(t)), float(np.sin(t)), 0.0) for t in ang]
    verts.append((0.0, 0.0, 1.2))
    faces = [[4, 3, 2, 1, 0]] + [[k, (k + 1) % 5, 5] for k in range(5)]
    return ConvexPolyhedron.from_data(verts, faces)


def random_hull(rng):
    """``(poly, lam)``: the convex hull of 6-12 random directions, each
    scaled by U(0.7, 1.3), and a truncation fraction from U(0.05, 0.3).

    The hull keeps only the vertices it uses, in sorted order; coplanar
    simplices merge by their plane equations rounded to 1e-9, and each
    face is ordered by angle about its centroid.  Every call draws the
    same numbers from ``rng`` in the same order, so hull ``k`` of a
    generator seed is its ``k + 1``-th call.
    """
    from scipy.spatial import ConvexHull

    n = rng.integers(6, 13)
    d = rng.normal(size=(n, 3))
    pts = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(0.7, 1.3, size=(n, 1))
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    index = {int(v): i for i, v in enumerate(used)}
    verts = pts[used]
    planes = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        planes.setdefault(tuple(np.round(eq, 9)), set()).update(index[int(v)] for v in simplex)
    faces = []
    for eq, members in planes.items():
        cycle = sorted(members)
        normal = np.asarray(eq[:3])
        u = normalized(np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9
                                else [0.0, 1.0, 0.0]))
        w = np.cross(normal, u)
        rel = verts[cycle] - verts[cycle].mean(axis=0)
        faces.append([cycle[k] for k in np.argsort(np.arctan2(rel @ w, rel @ u))])
    return ConvexPolyhedron.from_data(verts, faces), rng.uniform(0.05, 0.3)


# (generator seed, hull) pairs of ``random_hull`` with a pinned round trip.
PINNED_HULLS = ((2, 5), (4, 13), (12, 15), (17, 15), (21, 7), (23, 19), (26, 8))


def pinned_hull(g, k):
    """``(poly, lam)`` of hull ``k`` of generator seed ``g``."""
    rng = np.random.default_rng(g)
    for _ in range(k + 1):
        poly, lam = random_hull(rng)
    return poly, lam


def normal_cone_spec(poly, lam) -> TruncationSpec:
    """A cut at every vertex that separates on any convex solid.

    The cut normal at vertex ``a`` is the normalized sum of its face
    normals, which lies inside the vertex's normal cone; the depth is
    ``lam`` times the smallest height ``n . (v_a - v_b)`` of an edge
    neighbor ``b`` along that normal.
    """
    verts = poly.vertices
    normals = np.empty_like(verts)
    points = np.empty_like(verts)
    for a in range(poly.n_vertices):
        normal = normalized(sum(n for cyc, n in zip(poly.faces, poly.face_normals)
                                if a in cyc))
        neighbors = [int(b) for edge in poly.edges if a in edge for b in edge if b != a]
        normals[a] = normal
        points[a] = verts[a] - lam * min(normal @ (verts[a] - verts[b])
                                         for b in neighbors) * normal
    return TruncationSpec(normals=normals, points=points)


# --- scipy half-space truncation oracle ----------------------------------------

def halfspace_truncation_counts(poly, spec):
    """Vertex/edge/face counts of the truncation by brute-force
    half-space intersection (scipy), independent of the combinatorial
    construction under test."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    rows = []
    for cyc, n in zip(poly.faces, poly.face_normals):
        rows.append(np.concatenate([n, [-(n @ poly.vertices[cyc[0]])]]))
    for a in range(poly.n_vertices):
        rows.append(np.concatenate([spec.normals[a], [-(spec.normals[a] @ spec.points[a])]]))
    hs = HalfspaceIntersection(np.asarray(rows), poly.centroid.copy())

    scale = float(np.linalg.norm(poly.vertices.max(0) - poly.vertices.min(0)))
    uniq = []
    for p in hs.intersections:
        if not any(np.linalg.norm(p - q) < 1e-7 * scale for q in uniq):
            uniq.append(p)
    pts = np.asarray(uniq)
    hull = ConvexHull(pts)

    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq / np.linalg.norm(eq[:3]), 6))
        groups.setdefault(key, []).append(simplex)
    edge_faces = {}
    for key, simps in groups.items():
        for tri in simps:
            for u, v in ((0, 1), (1, 2), (2, 0)):
                e = (min(tri[u], tri[v]), max(tri[u], tri[v]))
                edge_faces.setdefault(e, set()).add(key)
    n_edges = sum(1 for s in edge_faces.values() if len(s) == 2)
    return len(pts), n_edges, len(groups)


# --- fields ------------------------------------------------------------------------

def constant_field(phat, vec) -> AnalyticField:
    """The field that is ``vec`` everywhere, tangent or not, with the
    broadcasting evaluator contract."""
    vec = np.asarray(vec, dtype=float)

    def evaluator(key, rho, phi):
        return np.broadcast_to(vec, np.broadcast(rho, phi).shape + (3,))

    return AnalyticField(host=phat, charts=phat.charts, evaluator=evaluator)


def jumped_field(field: AnalyticField, a, c, lo=0.3, hi=0.305) -> AnalyticField:
    """``field`` negated on trimmed face ``c`` over the part (lo, hi) of its
    cleaved segment ``(a, c)``: two half-turn jumps inside one step of the
    17-sample seams that ``validate_tangency`` reads, so it still passes,
    with 129-sample kink row samples between them."""
    key = (TRUNCATED, c)
    chart = field.charts[key]
    phi0, phi1 = chart.segment_span(chart.segment_index("cleaved", (a, c)))
    inner = field.evaluator

    def evaluator(k, rho, phi):
        values = inner(k, rho, phi)
        if k != key:
            return values
        inside = (phi > phi0 + lo * (phi1 - phi0)) & (phi < phi0 + hi * (phi1 - phi0))
        sign = np.where(np.broadcast_to(inside, np.broadcast(rho, phi).shape), -1.0, 1.0)
        return sign[..., None] * values

    return AnalyticField(host=field.host, charts=field.charts, evaluator=evaluator)


def seam_turned_field(phat, angle=0.6) -> SampledField:
    """The seed-1 representative of ``phat`` sampled at depth 5, with the
    boundary node at column 3 of corner face 0, on its cleaved segment 0
    and between the 17 samples per side of a depth-4 read (t = 3/64 on
    the cube), turned by ``angle`` about its trimmed face's normal: in
    the plane of the seam's other face, off the seam by 2 sin(angle / 2)."""
    from tangent_topo import AdmissibleInvariants, random_admissible_invariants
    from tangent_topo import representative_boundary

    inv = random_admissible_invariants(phat, seed=1)
    field = sample_field(representative_boundary(
        AdmissibleInvariants.from_invariants(inv, phat), phat), 5)
    key = (CLEAVED, 0)
    chart, grid = field.charts[key], field.values[key].copy()
    kind, (_, c) = chart.segments[0].kind, chart.segments[0].key
    assert kind == "cleaved"
    grid[-1, 3] = rotation_matrix(phat.face_normal(c), angle) @ grid[-1, 3]
    return SampledField(host=phat, charts=field.charts, values={**field.values, key: grid})


# --- tangency-preserving perturbations ------------------------------------------

def tangent_perturbation(field: AnalyticField, seed: int,
                         amplitude: float = 0.1) -> AnalyticField:
    """Small tangent homotopy of ``field``: rotations that vanish on
    every face boundary, in-plane on trimmed faces and about a fixed
    axis on corner faces, so tangency, edge values, and all extracted
    invariants are preserved."""
    rng = np.random.default_rng(seed)
    phat = field.host
    params = {}
    for key in phat.face_keys():
        axis = (phat.face_normal(key[1]) if key[0] == "truncated"
                else normalized(rng.normal(size=3)))
        params[key] = (
            float(rng.uniform(0.2, 1.0) * amplitude),
            int(rng.integers(1, 4)),
            float(rng.uniform(0.0, 2.0 * np.pi)),
            axis,
        )

    base_eval = field.evaluate

    def evaluator(key, rho, phi):
        vals = base_eval(key, rho, phi)
        amp, k, phase, axis = params[key]
        if key[0] == "truncated":
            psi = amp * rho * rho * (1.0 - rho) * np.cos(k * phi + phase)
        else:
            psi = amp * rho * (1.0 - rho)
        cosp = np.cos(psi)[..., None]
        sinp = np.sin(psi)[..., None]
        dot = (vals @ axis)[..., None]
        return cosp * vals + sinp * np.cross(axis, vals) + (1.0 - cosp) * dot * axis

    return AnalyticField(host=phat, charts=field.charts, evaluator=evaluator)


# --- reference kernels ------------------------------------------------------------

def reference_trace(field, curve, side, t):
    """The field along ``curve`` (a cleaved or truncated edge, as in
    ``fields._seam_rows``, or ``("boundary", face_key)`` for a whole face
    boundary in chart order) on the face of side ``side`` at parameters
    ``t``, through one scattered ``evaluate`` call of its own, as
    C-contiguous rows."""
    kind, ident = curve
    if kind == "boundary":
        return np.ascontiguousarray(field.evaluate(ident, np.ones_like(t), 2.0 * np.pi * t))
    if kind == "cleaved":
        key = ((TRUNCATED, ident[1]), (CLEAVED, ident[0]))[side]
    else:
        key = (TRUNCATED, int(field.host.parent.edge_faces[ident, side]))
    chart = field.charts[key]
    seg = chart.segment_index(kind, ident)
    phi0, phi1 = chart.segment_span(seg)
    local = t if chart.segments[seg].forward else 1.0 - t
    return np.ascontiguousarray(
        field.evaluate(key, np.ones_like(t), phi0 + (phi1 - phi0) * local))


def reference_unwrap(samples, axis, refine=None) -> float:
    """Rotation angle about ``axis`` of one path, by bisection: the (k, 3)
    ``samples`` sit at k equal steps of t in [0, 1], and every step of a
    quarter turn or more is bisected through ``refine``, which evaluates
    the curve at given t, for up to 24 rounds; then the signed steps are
    summed.  Raises ValueError for a step it cannot bisect or a sample
    off the great circle.  ``samples`` and ``axis`` are normalized once."""
    axis, samples = normalized(axis), normalized_rows(samples)
    params = np.linspace(0.0, 1.0, len(samples))

    for _ in range(24):
        u, v = samples[:-1], samples[1:]
        cr, dt = cross(u, v), np.einsum("ij,ij->i", u, v)
        bad = np.arctan2(np.linalg.norm(cr, axis=1), dt) >= 0.5 * np.pi
        if not bad.any():
            break
        if refine is None:
            raise ValueError("a step needs bisection and no refine callback is given")
        mid = 0.5 * (params[:-1][bad] + params[1:][bad])
        order = np.argsort(np.concatenate([params, mid]), kind="stable")
        params = np.concatenate([params, mid])[order]
        samples = np.concatenate([samples, normalized_rows(refine(mid))])[order]
    else:
        raise ValueError("bisection budget exhausted")
    if np.max(np.abs(samples @ axis)) > 1e-8:
        raise ValueError("samples leave the great circle")
    return float(np.sum(np.arctan2(cr @ axis, dt)))


def reference_kink_detail(field, a, c):
    """``(kink, residual)`` of cleaved edge ``(a, c)`` curve by curve: its
    own 129-sample trace, unwrapped alone by ``reference_unwrap``, which
    bisects the steps that break the quarter-turn bound."""
    axis = field.host.face_normal(c)

    def trace(params):
        return reference_trace(field, ("cleaved", (a, c)), 0, params)

    row = trace(np.linspace(0.0, 1.0, 129))
    xi1 = reference_unwrap(row, axis, refine=trace)
    n0, n1 = normalized_rows(row[[0, -1]])
    eta = float(np.arctan2(float(cross(n0, n1) @ axis), float(n0 @ n1)))
    raw = (xi1 - eta) / (2.0 * np.pi)
    return int(round(raw)), abs(raw - round(raw))


def reference_edge_orientations(field) -> np.ndarray:
    """Edge orientations from 9-sample traces of each truncated edge on
    both of its faces, edge by edge."""
    phat = field.host
    t = np.linspace(0.0, 1.0, 9)
    eps = np.empty((phat.parent.n_edges, 3))
    for b in range(phat.parent.n_edges):
        direction = phat.parent.edge_direction(b)
        stacked = np.concatenate([reference_trace(field, ("edge", b), side, t)
                                  for side in (0, 1)], axis=0)
        assert np.max(np.linalg.norm(stacked - stacked[0], axis=1)) <= 1e-6
        align = float(stacked.mean(axis=0) @ direction)
        eps[b] = direction if align > 0 else -direction
    return eps


def reference_tangency(field) -> dict:
    """``validate_tangency(field).to_dict()`` from 17-sample traces of
    every edge and seam, curve by curve, and face-normal dots at the
    depth-4 grid nodes; a SampledField at every stored node, its traces
    also at each face's boundary nodes, t = j / (samples per side)."""
    phat = field.host
    face_dots = {}
    for c in range(len(phat.trunc_faces)):
        key = (TRUNCATED, c)
        nodes = (field.values[key] if isinstance(field, SampledField)
                 else face_grid(field, key, 4))
        face_dots[c] = float(np.max(np.abs(nodes @ phat.face_normal(c))))
    t = np.linspace(0.0, 1.0, 17)
    if isinstance(field, SampledField):
        per_side = {grid.shape[1] // field.charts[key].n_segments
                    for key, grid in field.values.items()}
        t = np.unique(np.concatenate([t] + [np.arange(k + 1) / k for k in per_side]))
    edge_mis = {}
    for b in range(phat.parent.n_edges):
        direction = phat.parent.edge_direction(b)
        traces = [reference_trace(field, ("edge", b), side, t) for side in (0, 1)]
        mis = max(float(np.max(1.0 - np.abs(tr @ direction))) for tr in traces)
        mis = max(mis, float(np.max(np.linalg.norm(traces[0] - traces[1], axis=1))))
        for tr in traces:
            mis = max(mis, float(np.max(np.linalg.norm(tr - tr[0], axis=1))))
        edge_mis[b] = mis
    worst_cont = 0.0
    for ac in phat.cleaved_edges:
        from_f, from_c = (reference_trace(field, ("cleaved", ac), side, t) for side in (0, 1))
        worst_cont = max(worst_cont, float(np.max(np.linalg.norm(from_f - from_c, axis=1))))
    worst_dot = max(face_dots.values(), default=0.0)
    worst_mis = max(edge_mis.values(), default=0.0)
    return {
        "ok": worst_dot <= 1e-8 and worst_mis <= 1e-8 and worst_cont <= 1e-6,
        "worst_normal_dot": worst_dot,
        "worst_edge_misalignment": worst_mis,
        "worst_continuity": worst_cont,
        "face_normal_dots": {str(k): v for k, v in sorted(face_dots.items())},
        "edge_misalignment": {str(k): v for k, v in sorted(edge_mis.items())},
    }


def reference_grid_count(grid: np.ndarray, s: np.ndarray):
    """The count of ``invariants._grid_count`` over every triangle of the
    grid, with no proximity filter, by ``np.cross`` over ``np.roll``
    copies of the grid: minus the signed number of image triangles that
    contain ``s``.  None where ``s`` is no regular value: the image of a
    grid node, or on the boundary of an image triangle.  With no filter,
    triangles with a repeated node are skipped outright: far from ``s``
    (at ``-s``, say) one may have ``s`` on the great circle of its edge."""
    if np.max(grid @ s) >= 1.0 - 1e-12:
        return None
    c00 = grid[:-1]
    c10 = grid[1:]
    c01 = np.roll(c00, -1, axis=1)
    c11 = np.roll(c10, -1, axis=1)
    count = 0
    for t0, t1, t2 in ((c00, c10, c11), (c00, c11, c01)):
        orient = np.sign(np.einsum("ijk,ijk->ij", np.cross(t0, t1), t2))
        # A triangle with a repeated node (on the rho = 0 ring, or where
        # the field is constant) has no interior, whatever the rounded sign.
        orient[np.any([(u == v).all(axis=-1) for u, v in ((t0, t1), (t1, t2), (t2, t0))],
                      axis=0)] = 0
        side = np.minimum.reduce([orient * np.einsum("ijk,k->ij", np.cross(u, v), s)
                                  for u, v in ((t0, t1), (t1, t2), (t2, t0))])
        if np.any((orient != 0) & (side == 0.0)):
            return None
        count += int(orient[side > 0.0].sum())
    return -count


def uniform_chain_wrapping(field, a, s, depth=4):
    """Corner face ``a`` on the uniform chain of whole grids, which
    ``FaceGrid``'s local refinement replaces: ``(w, level, direct area,
    preimage count)``.

    From the depth-``depth`` grid on, each level is evaluated whole at
    K = m 2**level samples per ring; R doubles over a level with a radial
    dot <= 0, or one that keeps the quarter-turn bound with an invalid
    area sum.  The first level whose area and cap sums give an integer
    within DEGREE_RESIDUAL_TOL resolves; the preimage count is
    ``reference_grid_count`` one level up (on that level itself at
    MAX_DEPTH), where ``extract_all`` checks a resolved level, at the
    first turned direction of ``extract_all`` that is a regular value.
    It does not model a level that the check turns down: compare it only
    with faces whose ``wrapping_checks`` entry is 0.
    """
    from tangent_topo import invariants as inv_mod
    from tangent_topo.fields import MAX_DEPTH, _grid_area_sum, _grid_planes, _neighbor_dots
    from tangent_topo.sphere import DEGREE_RESIDUAL_TOL, triangle_areas

    def count(grid):
        turned = (inv_mod._rotated(s, k, k * inv_mod.PREIMAGE_TURN)
                  for k in range(1, inv_mod.PREIMAGE_ATTEMPTS + 1))
        counts = (reference_grid_count(grid, s_k) for s_k in turned)
        return next((c for c in counts if c is not None), None)

    key = (CLEAVED, a)
    s = normalized(s)
    R, found = 2 ** depth, None
    for level in range(depth, MAX_DEPTH + 1):
        K = field.charts[key].n_segments * 2 ** level
        grid = np.ascontiguousarray(field.evaluate(
            key, np.linspace(0.0, 1.0, R + 1)[:, None], np.arange(K) * (2.0 * np.pi / K)))
        if found is not None:
            return (*found, count(grid))
        _, radial, around = dots = _neighbor_dots(_grid_planes(grid))
        area = _grid_area_sum(dots)
        if area is not None:
            boundary = grid[-1]
            gamma, valid = triangle_areas(boundary, np.roll(boundary, -1, axis=0),
                                          np.broadcast_to(-s, boundary.shape))
            raw = (float(np.sum(gamma)) - area) / (4.0 * np.pi)
            if valid.all() and abs(raw - round(raw)) < DEGREE_RESIDUAL_TOL:
                # A resolved level keeps R: its radial dots are positive
                # and its area sum valid.
                found = round(raw), level, -area
                if level == MAX_DEPTH:
                    return (*found, count(grid))
        if radial.min() <= 0.0 or (around.min() > 0.0 and area is None):
            R *= 2
    raise AssertionError(f"face {a} unresolved on the uniform chain")


def reference_near_cells(node_dots, radial, around):
    """The proximity filter of ``invariants._near_cells`` in one stage:
    ``arccos`` and ``cos`` over every cell, with no cheaper bound first.
    ``node_dots`` are the nodes' dots with ``s``, ``radial`` and
    ``around`` the neighbor dots of ``fields._neighbor_dots``."""
    corner_best = np.maximum.reduce([node_dots[:-1, :-1], node_dots[1:, :-1],
                                     node_dots[:-1, 1:], node_dots[1:, 1:]])
    h = np.arccos(np.clip(np.minimum.reduce(
        [radial[:, :-1], around[1:], radial[:, 1:], around[:-1]]), -1.0, 1.0))
    return np.nonzero(corner_best >= np.cos(np.minimum(2.0 * h + 1e-3, np.pi)))


def reference_choose_reference_s(phat, seed):
    """``invariants.choose_reference_s`` with the golden spiral rebuilt on
    every call: the same walk over a spiral that no cache holds."""
    from tangent_topo.invariants import MARGIN_S, _sphere_sequence, s_margin

    pts = _sphere_sequence()
    n = pts.shape[0]
    start = (int(seed) * 131) % n
    for k in range(n):
        cand = pts[(start + k) % n]
        if s_margin(phat, cand) >= MARGIN_S:
            return cand
    return None


# --- field documents ------------------------------------------------------------

def encode_vectors(vecs) -> str:
    """A ``tangentfield/2`` vector block: base64 of ``<f8`` bytes, row-major."""
    return base64.b64encode(np.asarray(vecs, dtype="<f8").tobytes()).decode("ascii")


def decode_vectors(text: str) -> np.ndarray:
    """The (n, 3) rows of a ``tangentfield/2`` vector block, writable."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, 3).copy()


def reference_field_text(sampled):
    """The ``tangentfield/2`` document and file text of a SampledField as
    written element by element through ``json.dump``, the reference for
    the streamed writer."""
    phat = sampled.host
    faces = []
    for key in phat.face_keys():
        grid = sampled.values[key]
        faces.append({"kind": key[0], "index": int(key[1]), "rho_steps": int(grid.shape[0] - 1),
                      "phi_steps": int(grid.shape[1]), "vectors": encode_vectors(grid)})
    doc = {
        "format": "tangentfield/2",
        "polyhedron": phat.parent.entry(),
        "truncation": {
            "normals": [[float(x) for x in row] for row in phat.spec.normals],
            "points": [[float(x) for x in row] for row in phat.spec.points],
        },
        "faces": faces,
    }
    buf = io.StringIO()
    json.dump(doc, buf, sort_keys=True)
    buf.write("\n")
    return doc, buf.getvalue()
