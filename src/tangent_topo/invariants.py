"""Extraction and bookkeeping of the homotopy invariants.

The complete invariant set of a tangent field consists of the edge
orientations (constant field values on truncated edges), the kink
numbers (integer excess windings along cleaved edges, measured about
the adjacent trimmed-face normal), the wrapping numbers (integer face
degrees relative to a geodesic cap closure toward the antipode of a
reference direction ``s``), and the reference direction itself.  The
trapped areas are derived reals, computed here by two independent
routes: direct quadrature of the image area, and a closed form in the
other invariants.

Orientation convention used throughout: surface integrals over a corner
face run with the boundary direction that traverses every cleaved edge
positively about its trimmed-face normal.  This is the direction in
which the kink spirals wind forward, and it makes the closed-form
trapped area, the covering-patch degree, and the wrapping sum rule
mutually consistent; all chart-based sums below are computed in chart
(counterclockwise) order and flipped once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import fields as fields_mod
from . import geometry
from .errors import (
    AntipodalFanPair,
    DualRouteMismatch,
    InvariantError,
    NoAdmissibleS,
    NonConstantEdge,
    NotRegularValue,
    OnBoundary,
    ParallelEndpoints,
    ResidualTooLarge,
    ResolutionTooCoarse,
    SOnBoundaryImage,
    SOnTriangleBoundary,
)
from .fields import CLEAVED, TangentField, boundary_trace
from .geometry import TruncatedPolyhedron
from .sphere import (
    DEGREE_RESIDUAL_TOL,
    normalized,
    triangle_area,
    triangle_areas,
    triangle_sigma,
    unwrap_rotation_angle,
)

MARGIN_S = 0.05
KINK_RESIDUAL_TOL = 1e-6
TOL_REGULAR = 1e-6
PREIMAGE_MERGE_TOL = 1e-7
POLISH_ITERS = 20

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

    def comparison_key(self) -> tuple:
        return tuple(np.round(self.edge_orientations.ravel(), 12)) + tuple(
            self.wrapping_numbers
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


def director_class(inv: InvariantSet) -> InvariantSet:
    """Canonical representative of the sign-identified (director) pair."""
    anti = antipodal_invariants(inv)
    return inv if inv.comparison_key() <= anti.comparison_key() else anti


def _sphere_sequence(n: int = 997) -> np.ndarray:
    golden = (1.0 + 5.0 ** 0.5) / 2.0
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    theta = 2.0 * np.pi * k / golden
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def s_margin(phat: TruncatedPolyhedron, s) -> float:
    """Smallest |s . F| over the trimmed-face normals."""
    s = normalized(s)
    return float(np.min(np.abs(phat.parent.face_normals @ s)))


def choose_reference_s(phat: TruncatedPolyhedron, seed: int = 0) -> np.ndarray:
    """Deterministic reference direction clearing every face normal.

    Walks a golden-spiral sequence on the sphere from a seed-dependent
    offset and returns the first point with margin at least MARGIN_S.
    """
    pts = _sphere_sequence()
    n = pts.shape[0]
    start = (int(seed) * 131) % n
    for k in range(n):
        cand = pts[(start + k) % n]
        if s_margin(phat, cand) >= MARGIN_S:
            return cand
    raise NoAdmissibleS(
        "face normals blanket the sphere beyond the margin"
    )


def extract_edge_orientations(field: TangentField, samples: int = 9) -> np.ndarray:
    """Constant field value on each truncated edge, snapped to the edge line.

    Checks constancy along the edge and agreement between the two
    adjacent faces within the continuity tolerance, then returns the
    exactly edge-parallel unit vector with the observed sign.
    """
    phat = field.host
    t = np.linspace(0.0, 1.0, samples)
    eps = np.empty((phat.parent.n_edges, 3))
    for b in range(phat.parent.n_edges):
        direction = phat.parent.edge_direction(b)
        values = []
        for side in (0, 1):
            key, seg, rev = fields_mod._owner_for_edge(field, b, side)
            values.append(fields_mod._segment_tracer(field, key, seg, rev)(t))
        stacked = np.concatenate(values, axis=0)
        spread = float(np.max(np.linalg.norm(stacked - stacked[0], axis=1)))
        if spread > fields_mod.TOL_CONTINUITY:
            raise NonConstantEdge(f"edge {b} value varies by {spread:.3g}")
        mean = stacked.mean(axis=0)
        align = float(mean @ direction)
        if abs(align) < 1.0 - 1e-6:
            raise NonConstantEdge(f"edge {b} value is not edge-parallel")
        eps[b] = direction if align > 0 else -direction
    return eps


def extract_kink(
    field: TangentField,
    a: int,
    c: int,
    samples: int = 129,
    max_rounds: int = 24,
) -> int:
    """Integer winding of the field along cleaved edge ``(a, c)`` in
    excess of the minimal rotation between its endpoint values."""
    k, _ = _kink_detail(field, a, c, samples, max_rounds)
    return k


def _kink_detail(field, a, c, samples=129, max_rounds=24):
    phat = field.host
    axis = phat.face_normal(c)
    path = boundary_trace(field, ("cleaved", (a, c)), samples=samples,
                          max_rounds=max_rounds)
    xi1 = unwrap_rotation_angle(path, axis, max_rounds=max_rounds)
    n0, n1 = path.samples[0], path.samples[-1]
    sin_eta = float(np.cross(n0, n1) @ axis)
    cos_eta = float(n0 @ n1)
    if abs(sin_eta) < 1e-9:
        raise ParallelEndpoints(
            f"endpoint values on cleaved edge ({a},{c}) are parallel"
        )
    eta = float(np.arctan2(sin_eta, cos_eta))
    raw = (xi1 - eta) / (2.0 * np.pi)
    nearest = round(raw)
    residual = abs(raw - nearest)
    if residual >= KINK_RESIDUAL_TOL:
        raise ResidualTooLarge(
            f"kink residual {residual:.3g} on cleaved edge ({a},{c})"
        )
    return int(nearest), residual


def _face_image_grid(field: TangentField, a: int, depth: int, cache=None):
    if cache is not None and (a, depth) in cache:
        return cache[(a, depth)]
    chart = field.charts[(CLEAVED, a)]
    m = chart.n_segments
    R = 2 ** depth
    K = m * 2 ** depth
    rho = np.linspace(0.0, 1.0, R + 1)
    phi = np.arange(K) * (2.0 * np.pi / K)
    rr, pp = np.meshgrid(rho, phi, indexing="ij")
    vals = field.evaluate((CLEAVED, a), rr.ravel(), pp.ravel())
    out = (vals.reshape(R + 1, K, 3), R, K)
    if cache is not None:
        cache[(a, depth)] = out
    return out


def _area_sum(field, a, depth, cache):
    """Signed image-area sum of corner face ``a`` at ``depth``, in chart
    order, or None when the grid is not resolved or a triangle is
    invalid.  It does not depend on ``s``, so it is kept in ``cache``
    for every other direction and for the direct trapped area."""
    key = ("area", a, depth)
    if key not in cache:
        grid, _, _ = _face_image_grid(field, a, depth, cache)
        cache[key] = None
        if fields_mod._grid_step_bound_ok(grid):
            flat = grid.reshape(-1, 3)
            tris = fields_mod._grid_triangles(grid.shape[0] - 1, grid.shape[1])
            areas, valid = triangle_areas(flat[tris[:, 0]], flat[tris[:, 1]],
                                          flat[tris[:, 2]])
            if valid.all():
                cache[key] = float(np.sum(areas))
    return cache[key]


def _wrapping_integral_detail(field, a, s, depth=6, max_depth=9, cache=None):
    s = normalized(s)
    cache = {} if cache is None else cache
    for d in range(depth, max_depth + 1):
        grid, _, _ = _face_image_grid(field, a, d, cache)
        boundary = grid[-1]
        if np.max(boundary @ s) >= 1.0 - 1e-12:
            raise SOnBoundaryImage(
                f"reference direction on the boundary image of face {a}"
            )
        area_sum = _area_sum(field, a, d, cache)
        if area_sum is None:
            continue
        # The cap term integrates the reference one-form along the
        # boundary image by exact geodesic steps: each step contributes
        # the signed area of the triangle (u, v, -s), which makes area
        # sum minus cap sum an exact multiple of 4*pi for any resolved
        # grid (the face sheet plus the cone over its boundary is a
        # closed surface cycle).  Both sums run in chart order.
        minus_s = np.broadcast_to(-s, boundary.shape)
        gamma, gvalid = triangle_areas(boundary, np.roll(boundary, -1, axis=0), minus_s)
        if not gvalid.all():
            continue
        raw = (float(np.sum(gamma)) - area_sum) / (4.0 * np.pi)
        nearest = round(raw)
        residual = abs(raw - nearest)
        if residual < DEGREE_RESIDUAL_TOL:
            return int(nearest), residual, d
    raise ResolutionTooCoarse(
        f"wrapping quadrature on face {a} did not resolve by depth {max_depth}"
    )


def extract_wrapping_integral(
    field: TangentField,
    a: int,
    s,
    depth: int = 6,
    max_depth: int = 9,
) -> int:
    """Wrapping number of corner face ``a`` by the area/cap integral."""
    w, _, _ = _wrapping_integral_detail(field, a, s, depth, max_depth)
    return w


def _tangent_frame(s: np.ndarray):
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(s)))] = 1.0
    q1 = normalized(np.cross(s, axis))
    q2 = np.cross(s, q1)  # q1 x q2 = s
    return q1, np.asarray(q2)


def _candidate_cells(grid: np.ndarray, s: np.ndarray, limit: int = 96):
    """Grid cells whose image may contain ``s``.

    Exact membership of ``s`` in the geodesic image triangles of each
    cell, dilated by one ring of neighbors to absorb the curvature sag
    of the true (non-geodesic) cell edges.  Exactness matters: near the
    apex of a covering patch the image cells are slivers much narrower
    than any useful tolerance band.
    """
    c00 = grid[:-1]
    c10 = grid[1:]
    c01 = np.roll(c00, -1, axis=1)
    c11 = np.roll(c10, -1, axis=1)

    def inside(t0, t1, t2):
        orient = np.sign(np.einsum("ijk,ijk->ij", np.cross(t0, t1), t2))
        ok = orient != 0
        for u, v in ((t0, t1), (t1, t2), (t2, t0)):
            z = np.einsum("ijk,k->ij", np.cross(u, v), s)
            ok &= orient * z >= -1e-12
        return ok

    cand = inside(c00, c10, c11) | inside(c00, c11, c01)
    # Only cells whose image actually comes near s can hold a preimage;
    # this discards antipodal slivers whose great-circle sign tests
    # flicker (the tangential residual vanishes at -s as well).
    corner_best = np.maximum.reduce([c00 @ s, c10 @ s, c01 @ s, c11 @ s])
    h = np.arccos(np.clip(np.minimum.reduce([
        np.einsum("ijk,ijk->ij", c00, c10),
        np.einsum("ijk,ijk->ij", c10, c11),
        np.einsum("ijk,ijk->ij", c11, c01),
        np.einsum("ijk,ijk->ij", c01, c00),
    ]), -1.0, 1.0))
    cand &= corner_best >= np.cos(np.minimum(2.0 * h + 1e-3, np.pi))
    grown = cand.copy()
    grown |= np.roll(cand, 1, axis=1) | np.roll(cand, -1, axis=1)
    grown[1:] |= cand[:-1]
    grown[:-1] |= cand[1:]
    idx = np.argwhere(grown)
    if idx.shape[0] > limit:
        order = np.argsort(-corner_best[grown])
        idx = idx[order[:limit]]
    return idx


def _preimage_points(field, a, s, grid_depth, cache=None):
    """Signs of the polished preimages of ``s`` on corner face ``a``.

    The local winding of the image around ``s`` on a small circle is the
    local degree: +-1 at a regular preimage, 0 or larger magnitude at
    critical points (for example the center of a covering patch hit
    head-on).  A preimage of another local degree, or with a normalized
    Jacobian below TOL_REGULAR, raises NotRegularValue.  A first seed
    that starts converged is never moved, so it is checked before the
    candidate scan and the polish, and a critical one raises at once.
    All seeds are polished together: every step locates and evaluates
    its points in one call.
    """
    key = (CLEAVED, a)
    chart = field.charts[key]
    s = normalized(s)
    q1, q2 = _tangent_frame(s)
    grid, R, K = _face_image_grid(field, a, grid_depth, cache)
    diam = 2.0 * float(np.max(np.linalg.norm(chart.corners - chart.base, axis=1)))

    h = 1e-6 * diam
    w1, w2 = chart.frame
    stencil = np.stack([np.zeros(3), h * w1, -(h * w1), h * w2, -(h * w2)])
    t = np.linspace(0.0, 2.0 * np.pi, 17)
    circle = 1e-5 * diam * (np.cos(t)[:, None] * w1 + np.sin(t)[:, None] * w2)

    def residuals(points):
        """Tangential residual, hemisphere and ``inside`` mask at
        ``(..., 3)`` in-plane points; only points inside are evaluated."""
        rho, phi, inside = chart.locate(points.reshape(-1, 3))
        g = np.zeros((rho.size, 2))
        hemi = np.full(rho.size, -1.0)
        if inside.any():
            vals = field.evaluate(key, rho[inside], phi[inside])
            g[inside] = np.stack([(vals - s) @ q1, (vals - s) @ q2], axis=1)
            hemi[inside] = vals @ s
        shape = points.shape[:-1]
        return g.reshape(shape + (2,)), hemi.reshape(shape), inside.reshape(shape)

    def jacobians(g):
        """Central differences from the stencil residuals ``(n, 5, 2)``."""
        return np.stack([g[:, 1] - g[:, 2], g[:, 3] - g[:, 4]], axis=2) / (2 * h)

    def local_degree(points):
        """Windings about ``(n, 3)`` points (0 where the circle or the
        stencil leaves the face), normalized Jacobian determinants, and
        the residual, hemisphere and stencil ``inside`` mask at each
        point."""
        gs, hs, inside = residuals(points[:, None, :] + np.concatenate([circle, stencil]))
        angles = np.unwrap(np.arctan2(gs[:, :17, 1], gs[:, :17, 0]), axis=1)
        winding = np.rint((angles[:, -1] - angles[:, 0]) / (2.0 * np.pi)).astype(int)
        winding[~inside.all(axis=1)] = 0
        det_norm = np.linalg.det(jacobians(gs[:, 17:])) * diam * diam
        return winding, det_norm, gs[:, 17], hs[:, 17], inside[:, 17:].all(axis=1)

    def require_regular(winding, det_norm):
        bad = np.abs(winding) != 1
        if bad.any():
            raise NotRegularValue(f"preimage on face {a} has local degree {winding[bad][0]}")
        if np.any(np.abs(det_norm) < TOL_REGULAR):
            raise NotRegularValue(f"near-critical preimage on face {a} "
                                  f"(|det|={np.min(np.abs(det_norm)):.3g})")

    # Nodes that already land on s seed first.  A covering patch hit
    # head-on has its critical preimage exactly on such a node; a first
    # seed that starts converged is kept unmoved by the polish, so its
    # local degree decides a failing attempt here, before any other
    # seed is built.
    hits = np.argwhere(grid @ s >= 1.0 - 1e-12)
    hit_rho, hit_phi = hits[:, 0] / R, hits[:, 1] * (2.0 * np.pi / K)
    if len(hits):
        first = chart.point(hit_rho[:1], hit_phi[:1])
        winding, det_norm, g0, hemi0, stencil_in = local_degree(first)
        if (stencil_in[0] and np.hypot(g0[0, 0], g0[0, 1]) < 1e-11 and hemi0[0] > 0.0
                and chart.locate(first)[0][0] <= 1.0 - 1e-9):
            require_regular(winding, det_norm)
    # Each candidate cell starts from the best interior point of a
    # sub-grid, so the polish begins inside the right basin even when
    # several preimages crowd a coarse cell.  Interior sub-points only:
    # a shared corner node (the apex of a covering patch) would
    # otherwise win the proximity contest in every adjacent cell and
    # collapse all their polishes into one basin.
    cand = _candidate_cells(grid, s)
    sub = np.linspace(0.1, 0.9, 5)
    sub_r, sub_p = (g.ravel() for g in np.meshgrid(sub, sub, indexing="ij"))
    rho_s = (cand[:, :1] + sub_r) / R
    phi_s = (cand[:, 1:] + sub_p) * (2.0 * np.pi / K)
    best = np.zeros(len(cand), dtype=int)
    if len(cand):
        vals = field.evaluate(key, rho_s.ravel(), phi_s.ravel())
        best = np.argmax((vals @ s).reshape(rho_s.shape), axis=1)
    rows = np.arange(len(cand))
    seeds = chart.point(np.concatenate([hit_rho, rho_s[rows, best]]),
                        np.concatenate([hit_phi, phi_s[rows, best]]))
    # Identical seeds polish identically; every rho = 0 node is the base.
    p = seeds[np.sort(np.unique(seeds, axis=0, return_index=True)[1])]

    g = np.zeros((len(p), 2))
    hemi = np.full(len(p), -1.0)
    have_g = np.zeros(len(p), dtype=bool)   # False once a stencil left the face
    ok = np.zeros(len(p), dtype=bool)
    active = np.ones(len(p), dtype=bool)
    for _ in range(POLISH_ITERS):
        idx = np.flatnonzero(active)
        gs, hs, inside = residuals(p[idx, None, :] + stencil)
        valid = inside.all(axis=1)
        have_g[idx] = valid
        active[idx] = valid
        idx, gs = idx[valid], gs[valid]
        g[idx], hemi[idx] = gs[:, 0], hs[valid, 0]
        base = np.hypot(g[idx, 0], g[idx, 1])
        done = base < 1e-11
        ok[idx[done]] = hemi[idx[done]] > 0.0  # the antipode solves the residual too
        jac = jacobians(gs)
        done |= np.abs(np.linalg.det(jac)) < 1e-18
        active[idx[done]] = False
        idx, jac, base = idx[~done], jac[~done], base[~done]
        if idx.size == 0:
            break
        step = np.linalg.solve(jac, -g[idx, :, None])[:, :, 0]
        norm = np.hypot(step[:, 0], step[:, 1])
        big = norm > 0.25 * diam
        step[big] *= (0.25 * diam / norm[big])[:, None]
        # Backtracking keeps the iteration inside its basin.
        trial = p[idx]
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(8):
            j = np.flatnonzero(pending)
            trial[j] = p[idx[j]] + step[j, :1] * w1 + step[j, 1:] * w2
            gt, _, inside = residuals(trial[j])
            accept = inside & (np.hypot(gt[:, 0], gt[:, 1]) < base[j])
            pending[j[accept]] = False
            step[j[~accept]] *= 0.5
            if not pending.any():
                break
        p[idx] = trial

    if np.any(~ok & have_g & (hemi > 0.0) & (np.hypot(g[:, 0], g[:, 1]) < 1e-7)):
        raise NotRegularValue(
            f"polishing stalled near a critical preimage on face {a}"
        )
    rho, _, inside = chart.locate(p)
    kept = []
    for i in np.flatnonzero(ok & inside & (rho <= 1.0 - 1e-9)):
        if not any(np.linalg.norm(p[i] - p[j]) < PREIMAGE_MERGE_TOL * diam for j in kept):
            kept.append(i)
    winding, det_norm, _, _, _ = local_degree(p[kept])
    require_regular(winding, det_norm)
    # The winding is taken in the chart frame (counterclockwise about
    # the outward cut normal); the invariant convention runs the face
    # the other way, so the preimage sign flips.
    return -winding


def extract_wrapping_preimage(
    field: TangentField,
    a: int,
    s,
    grid_depth: int = 6,
    cache=None,
) -> int:
    """Wrapping number of corner face ``a`` as a signed preimage count.

    Locates every point of the face where the field equals ``s`` by a
    uniform grid scan plus local polishing, and sums the Jacobian signs.
    Raises NotRegularValue when a preimage is (near-)critical; callers
    fall back to a slightly rotated ``s`` or to the integral route.
    """
    return int(_preimage_points(field, a, s, grid_depth, cache=cache).sum())


def trapped_area_direct(
    field: TangentField,
    a: int,
    depth: int = 7,
    max_depth: int = 9,
    cache=None,
) -> float:
    """Signed spherical area swept over corner face ``a``, by quadrature.

    Same image-area sum as the integral wrapping route (first term
    only, read from ``cache`` where that route already took it), with
    the invariant orientation convention.
    """
    cache = {} if cache is None else cache
    for d in range(depth, max_depth + 1):
        area_sum = _area_sum(field, a, d, cache)
        if area_sum is not None:
            return -area_sum
    raise ResolutionTooCoarse(
        f"trapped-area quadrature on face {a} did not resolve by depth {max_depth}"
    )


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
    s = inv.s
    cycle = phat.fan_edge_cycle(a)
    eps = [inv.edge_orientations[b] for b in cycle]
    m = len(eps)
    fan = 0.0
    for j in range(1, m - 1):
        tri = (eps[0], eps[j], eps[j + 1])
        for u, v in ((0, 1), (1, 2), (2, 0)):
            if abs(float(tri[u] @ tri[v])) >= 1.0 - 1e-9:
                raise AntipodalFanPair(
                    f"fan triangle on face {a} has parallel edge orientations"
                )
        try:
            sigma = triangle_sigma(*tri, s)
        except OnBoundary as exc:
            raise SOnTriangleBoundary(str(exc)) from exc
        fan += triangle_area(*tri) - 4.0 * np.pi * sigma

    kink_term = 0.0
    for c in phat.cleaved_faces[a].face_chain:
        dot = float(phat.face_normal(c) @ s)
        if abs(dot) < 1e-12:
            raise SOnTriangleBoundary(
                f"reference direction orthogonal to face normal {c}"
            )
        kink_term += np.sign(dot) * inv.kink_numbers[(a, c)]

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


def face_opposition_count(inv: InvariantSet, phat: TruncatedPolyhedron, c: int) -> int:
    """Number of consecutive truncated-edge pairs of face ``c`` whose
    orientations point opposite ways along the face cycle.

    Each edge orientation either follows or opposes the direction in
    which the face cycle traverses its edge; the count is the number of
    sign flips around the cycle (always even).  Comparing raw dot
    products of the vectors themselves degenerates on square faces,
    where consecutive edge directions are perpendicular.
    """
    tf = phat.trunc_faces[c]
    aligns = []
    for seg in tf.segments:
        if seg[0] != "edge":
            continue
        b, forward = seg[1], seg[2]
        d = phat.parent.edge_direction(b) * (1.0 if forward else -1.0)
        dot = float(inv.edge_orientations[b] @ d)
        if abs(dot) < 0.5:
            raise InvariantError(f"edge orientation {b} not parallel to its edge")
        aligns.append(1 if dot > 0 else -1)
    q = sum(
        1 for k in range(len(aligns)) if aligns[k] != aligns[(k + 1) % len(aligns)]
    )
    if q % 2:
        raise InvariantError(f"odd opposition count on face {c}")
    return q


def check_sum_rules(inv: InvariantSet, phat: TruncatedPolyhedron) -> SumRuleVerdicts:
    """Per-face kink identities and the global wrapping identity."""
    verdicts = []
    for c in range(len(phat.trunc_faces)):
        q = face_opposition_count(inv, phat, c)
        required = q // 2 - 1
        actual = sum(
            inv.kink_numbers[(seg[1][0], c)]
            for seg in phat.trunc_faces[c].segments
            if seg[0] == "cleaved"
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
    kink_residuals: Dict[Tuple[int, int], float]
    seed: int
    s_was_given: bool
    quadrature_depth: int
    trapped_depth: int
    tool_version: str

    @property
    def trapped_max_disagreement(self) -> float:
        return float(np.max(np.abs(self.trapped_closed - self.trapped_direct)))


def _rotated(s: np.ndarray, axis_hint: int, angle: float) -> np.ndarray:
    axis = np.zeros(3)
    axis[axis_hint % 3] = 1.0
    axis = normalized(np.cross(s, axis)) if abs(s[axis_hint % 3]) < 0.9 else normalized(
        np.cross(s, np.roll(axis, 1))
    )
    return normalized(
        np.cos(angle) * s + np.sin(angle) * np.cross(axis, s)
    )


def _preimage_with_retries(field, a, s, attempts, grid_depth, cache=None):
    """``(count, direction)``: the preimage count at ``s`` or, where ``s``
    is not a regular value, at the first of ``attempts`` slightly rotated
    directions that is; None when every direction fails."""
    for k in range(attempts + 1):
        s_k = s if k == 0 else _rotated(s, k, 1e-3 * k)
        try:
            return extract_wrapping_preimage(field, a, s_k, grid_depth=grid_depth,
                                             cache=cache), s_k
        except NotRegularValue:
            continue
    return None


def extract_all(
    field: TangentField,
    s=None,
    seed: int = 0,
    depth: int = 6,
    max_depth: int = 9,
    trapped_depth: int = 7,
    preimage_attempts: int = 3,
    with_preimage: bool = True,
) -> InvariantReport:
    """Assemble the full invariant report of a field.

    Wrapping numbers come from the integral route, cross-checked against
    the preimage route wherever the latter finds a regular value: at
    ``s``, or at the slightly rotated direction its retry used, where
    the integral route is taken again.  A disagreement raises
    DualRouteMismatch.  Trapped areas are computed
    by both the closed form and direct quadrature.  If ``s`` is omitted
    it is chosen deterministically from ``seed`` and re-chosen when it
    happens to sit on a fan-triangle boundary.  ``with_preimage=False``
    skips the cross-route (its report column is then all None).
    """
    from . import __version__

    phat = field.host
    s_given = s is not None
    eps = extract_edge_orientations(field)
    kinks = {}
    kink_res = {}
    for (a, c) in sorted(phat.cleaved_edges):
        k, res = _kink_detail(field, a, c)
        kinks[(a, c)] = k
        kink_res[(a, c)] = res

    n_corners = len(phat.cleaved_faces)
    grid_cache: dict = {}

    for attempt in range(6):
        s_try = normalized(s) if s_given else choose_reference_s(
            phat, seed + 1000 * attempt
        )

        results = []
        for a in range(n_corners):
            w, res, used = _wrapping_integral_detail(field, a, s_try, depth,
                                                     max_depth, cache=grid_cache)
            pre = None
            if with_preimage:
                found = _preimage_with_retries(field, a, s_try, preimage_attempts,
                                               depth, cache=grid_cache)
                if found is not None:
                    pre, s_used = found
                    ref = w if s_used is s_try else _wrapping_integral_detail(
                        field, a, s_used, depth, max_depth, cache=grid_cache)[0]
                    if pre != ref:
                        raise DualRouteMismatch(f"face {a}: integral route {ref} vs "
                                                f"preimage {pre} at s = {s_used}")
            direct = trapped_area_direct(field, a, trapped_depth, max_depth,
                                         cache=grid_cache)
            results.append((w, res, used, pre, direct))

        omegas = np.array([r[0] for r in results], dtype=int)
        residuals = np.array([r[1] for r in results])
        depths = tuple(r[2] for r in results)
        preimages = tuple(r[3] for r in results)
        directs = np.array([r[4] for r in results])

        inv = InvariantSet(
            s=s_try,
            edge_orientations=eps,
            kink_numbers=kinks,
            wrapping_numbers=omegas,
        )
        try:
            closed = np.array([
                trapped_area_from_invariants(inv, phat, a) for a in range(n_corners)
            ])
        except SOnTriangleBoundary:
            if s_given:
                raise
            continue

        verdicts = check_sum_rules(inv, phat)
        return InvariantReport(
            invariants=inv,
            verdicts=verdicts,
            trapped_closed=closed,
            trapped_direct=directs,
            wrapping_preimage=preimages,
            wrapping_residuals=residuals,
            wrapping_depths=depths,
            kink_residuals=kink_res,
            seed=seed,
            s_was_given=s_given,
            quadrature_depth=depth,
            trapped_depth=trapped_depth,
            tool_version=__version__,
        )
    raise SOnTriangleBoundary("could not find a reference direction off all fans")


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
    e = phat.parent.n_edges
    eps = np.empty((e, 3))
    for b in range(e):
        sign = int(data["edge_orientations"][str(b)])
        if sign not in (-1, 1):
            raise InvariantError(f"edge orientation sign for edge {b} must be +-1")
        eps[b] = sign * phat.parent.edge_direction(b)
    kinks = {}
    for key, val in data["kink_numbers"].items():
        a_str, c_str = key.split(",")
        kinks[(int(a_str), int(c_str))] = int(val)
    if set(kinks) != set(phat.cleaved_edges):
        raise InvariantError("kink numbers do not cover the cleaved edges")
    v = len(phat.cleaved_faces)
    omegas = np.array([int(data["wrapping_numbers"][str(a)]) for a in range(v)])
    return InvariantSet(
        s=np.asarray(data["reference_direction"], dtype=float),
        edge_orientations=eps,
        kink_numbers=kinks,
        wrapping_numbers=omegas,
    )


def report_to_dict(report: InvariantReport, phat: TruncatedPolyhedron,
                   poly_source: Optional[dict] = None,
                   truncation: Optional[dict] = None) -> dict:
    inv_dict = invariant_set_to_dict(report.invariants, phat)
    inv_dict["polyhedron"] = poly_source or phat.parent.to_dict()
    inv_dict["truncation"] = truncation or fields_mod._truncation_to_dict(phat.spec)
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
            "trapped_depth": report.trapped_depth,
            "wrapping_depths": list(report.wrapping_depths),
            "wrapping_residuals": {
                str(a): float(r) for a, r in enumerate(report.wrapping_residuals)
            },
            "kink_residuals": {
                f"{a},{c}": float(r)
                for (a, c), r in sorted(report.kink_residuals.items())
            },
            "reference_given": report.s_was_given,
            "cleaved_edge_start_rule": CLEAVED_EDGE_START_RULE,
        },
    }


def parse_invariants_document(data: dict):
    """Read an invariant-set file or a report file (re-ingestible).

    Returns ``(poly, spec, phat, InvariantSet, poly_source_dict)``.  A
    missing or mistyped entry raises InvariantError.
    """
    try:
        if data.get("format") == REPORT_FORMAT:
            data = data["invariants"]
        elif data.get("format") not in (None, INVARIANTS_FORMAT):
            raise InvariantError(f"unsupported invariants format {data.get('format')!r}")
        poly_data = data["polyhedron"]
        if "builtin" in poly_data:
            poly = geometry.builtin_polyhedron(poly_data["builtin"])
            poly_source = {"builtin": poly_data["builtin"]}
        else:
            poly = geometry.polyhedron_from_dict(poly_data)
            poly_source = poly.to_dict()
        spec = fields_mod.truncation_from_dict(
            poly, data.get("truncation", {"lambda": 0.2}))
        phat = geometry.truncate(poly, spec)
        inv = invariant_set_from_dict(phat, data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        what = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InvariantError(f"malformed invariant document: {what}") from exc
    return poly, spec, phat, inv, poly_source


def save_report(report: InvariantReport, phat: TruncatedPolyhedron, path,
                poly_source: Optional[dict] = None,
                truncation: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report, phat, poly_source, truncation),
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
