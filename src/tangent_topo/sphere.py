"""Primitives on the unit sphere.

Signed geodesic triangle areas, an oriented point-in-triangle test, the
tangent frame of a reference direction, geodesic interpolation,
continuous unwrapping of the rotation angles of a stack of paths
confined to a great circle, and the degree of a discretized sphere map.
Everything here is a pure function of immutable numpy data and is safe
to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ResolutionTooCoarse, TangentTopoError

TOL_ANTIPODAL = 1e-9
DEGREE_RESIDUAL_TOL = 0.1


def normalized(vec) -> np.ndarray:
    """Return ``vec`` scaled to unit length.

    Raises ValueError for a near-zero or non-finite input instead of
    returning NaNs.
    """
    v = np.asarray(vec, dtype=float)
    n = float(np.linalg.norm(v))
    if not 1e-15 <= n < np.inf:
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return v / n


def normalized_rows(arr) -> np.ndarray:
    """``arr`` with every row (its last axis) scaled to unit length.

    Raises ValueError for a near-zero or non-finite row.  Rows of three
    take their norm ``sqrt((x*x + y*y) + z*z)`` from component views, in
    the order ``np.linalg.norm`` sums a length-3 axis, so bit for bit.
    The result has the memory layout of ``arr``.
    """
    a = np.asarray(arr, dtype=float)
    if a.shape[-1:] == (3,) and a.size:
        x, y, z = a[..., 0], a[..., 1], a[..., 2]
        n = np.sqrt((x * x + y * y) + z * z)
        ok = n.min() >= 1e-15 and n.max() < np.inf
        n = n[..., None]
    else:
        n = np.linalg.norm(a, axis=-1, keepdims=True)
        ok = np.all((n >= 1e-15) & (n < np.inf))
    if not ok:
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return a / n


def _dot(a, b, out=None):
    """Dot products of x, y, z component triples, summed in the order of
    numpy's einsum over contiguous rows, (a0 b0 + a2 b2) + a1 b1, in any
    layout: on a moved-axis view of planes einsum sums (a0 b0 + a1 b1) +
    a2 b2 instead, and ``@`` differs too."""
    out = np.multiply(a[0], b[0], out=out)
    part = a[2] * b[2]
    out += part
    out += np.multiply(a[1], b[1], out=part)
    return out


def _rowdots(a, b) -> np.ndarray:
    # The dot of each pair of rows of a and b (broadcast), as ``@`` takes one.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _as_rows(planes: np.ndarray) -> np.ndarray:
    # x, y, z planes (3, ...) as a moved-axis view of rows (..., 3).
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


def _weighted_planes(*terms) -> np.ndarray:
    """x, y, z planes of the sum of ``weight * vector`` over the
    ``(weight, vector)`` pairs ``terms``, added left to right: bit for
    bit the rows ``weight[..., None] * vector + ...``, one component at
    a time.  A vector is a 3-vector or x, y, z components that broadcast
    against the weights."""
    (w0, v0), *rest = terms
    out = np.empty((3,) + np.broadcast(*(x for w, v in terms for x in (w, v[0]))).shape)
    for i in range(3):
        plane = np.multiply(w0, v0[i], out=out[i, ...])
        for w, v in rest:
            plane += w * v[i]
    return out


def cross(a, b, axis: int = -1) -> np.ndarray:
    """Cross products of the 3-vectors along ``axis`` of ``a`` and ``b``
    (broadcast), with the components along ``axis`` of the result.

    Term for term those of ``np.cross`` (``a1 b2 - a2 b1`` and so on),
    so bit for bit, without its set-up cost: a single pair takes Python
    floats, whose arithmetic is the same double rounding.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape == b.shape == (3,):
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a, b, parts = ([x[(slice(None),) * (axis % x.ndim) + (i,)] for i in range(3)]
                   for x in (a, b, out))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=parts[i])
        parts[i] -= a[k] * b[j]
    return out


def reference_frame(s) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (xi, eta) with xi x eta = -s."""
    s = normalized(s)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(s)))] = 1.0
    xi = normalized(cross(s, axis))
    eta = cross(xi, s)
    return xi, eta


def _rows(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def triangle_areas(a, b, c):
    """Signed spherical areas of vertex triples, vectorized.

    Returns ``(areas, valid)`` where invalid entries mark degenerate
    triples (an antipodal pair, or a hemisphere-straddling triple whose
    orientation is ambiguous).  Valid areas lie in (-2*pi, 2*pi).
    """
    a, b, c = _rows(a), _rows(b), _rows(c)
    ab = np.einsum("ij,ij->i", a, b)
    bc = np.einsum("ij,ij->i", b, c)
    ca = np.einsum("ij,ij->i", c, a)
    re = 1.0 + ab + bc + ca
    im = np.einsum("ij,ij->i", cross(a, b), c)
    return _signed_areas(re, im)


def _signed_areas(re, im):
    """Areas ``2 arg(re + i im)`` of triangles with ``re = 1 + a.b + b.c
    + c.a`` and ``im = (a x b).c``, and the validity mask of
    ``triangle_areas``; ``re`` and ``im`` end up as their absolute values.

    A rounded ``hypot(re, im)`` is never below ``max(|re|, |im|)``, so
    only the entries where that maximum is at most 1e-13, or NaN, need
    the hypotenuse (of the absolute values, the same) for the mask.
    """
    areas = np.arctan2(im, re)
    areas *= 2.0
    flat = re < 0.0
    abs_re, abs_im = np.abs(re, out=re), np.abs(im, out=im)
    flat &= abs_im <= 1e-13
    valid = np.maximum(abs_re, abs_im) > 1e-13
    rest = ~valid
    if rest.any():
        valid[rest] = np.hypot(abs_re[rest], abs_im[rest]) > 1e-13
    valid &= ~flat
    return areas, valid


def spherical_triangle_area(a, b, c) -> float:
    """Signed area of the geodesic triangle (a, b, c).

    The area is ``2 arg((1 + a.b + b.c + c.a) + i (a x b).c)`` with the
    argument taken in (-pi, pi], so a positively oriented triangle (seen
    from outside the sphere) has positive area and the triangle interior
    is always the choice with |area| < 2*pi.
    """
    areas, valid = triangle_areas(a, b, c)
    if not bool(valid[0]):
        raise TangentTopoError("triangle has an antipodal or degenerate vertex pair")
    return float(areas[0])


def triangle_sigmas(a, b, c, s):
    """Oriented membership indicators of ``s`` in the triangles (a, b, c)
    of stacked rows, and the mask of those with ``s`` on their boundary.

    An indicator is 0 when ``s`` is outside the triangle interior (the
    region bounded by the polygon with |area| < 2*pi), otherwise the sign
    of ``(a x b).s``, which equals the orientation of the boundary about
    s.  Membership requires the three signs (a x b).s, (b x c).s,
    (c x a).s to agree *and* to match the triangle's own orientation;
    agreement alone would also fire for the antipodal region.  Rows are
    normalized and dotted bit for bit as ``normalized`` and ``@`` do one.
    """
    abc = np.stack([np.asarray(v, dtype=float) for v in (a, b, c)])
    norms = np.sqrt(_rowdots(abc, abc))
    if not (norms.min() >= 1e-15 and norms.max() < np.inf):
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    abc = abc / norms[..., None]
    sides = cross(abc, abc[[1, 2, 0]])  # a x b, b x c, c x a
    z, orient = _rowdots(sides, normalized(s)), _rowdots(sides[0], abc[2])
    o = np.where(np.abs(orient) < 1e-13, 0, np.where(orient > 0, 1, -1))
    tiny = np.abs(z) < TOL_ANTIPODAL
    agree = (tiny | (np.sign(z) == o)).all(axis=0) & (o != 0)
    touching = tiny.any(axis=0)
    return np.where(agree & ~touching, o, 0), agree & touching


def geodesic_interpolate(u, v, tau, normalize: bool = True) -> np.ndarray:
    """Shortest-arc interpolation between unit-vector arrays, row by row.

    ``u`` and ``v`` have shape (..., 3) (a single vector counts as one
    row) and ``tau`` broadcasts against their leading axes; the result
    has the broadcast leading shape + (3,), as a moved-axis view of x,
    y, z planes.  The arc of each pair (its dot, arccos and sine) is
    computed once per pair of ``u`` and ``v`` rows, and only the two
    weight sines once per output row, so an arc shared by many ``tau``
    costs one arccos.  Each output row comes from the same operations on
    the same operands as a row-wise call, whatever the layout of ``u``
    and ``v``: the dot is summed in the ``_dot`` order.

    Pairs closer than 1e-9 take the chord.  Every row is normalized
    once, at the end; ``normalize=False`` leaves the rows, unit up to
    rounding, to a caller that normalizes its values itself.
    """
    u_rows, v_rows = np.broadcast_arrays(_rows(u), _rows(v))
    u, v = ((x[..., 0], x[..., 1], x[..., 2]) for x in (u_rows, v_rows))
    tau = np.asarray(tau, dtype=float)
    d = np.clip(_dot(u, v), -1.0, 1.0)
    if np.any(d <= -1.0 + TOL_ANTIPODAL):
        raise TangentTopoError("antipodal pair in geodesic interpolation")
    ang = np.arccos(d)
    # Arc weights on whole arrays; rows closer than 1e-9 take the chord.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(ang)
        out = _weighted_planes((np.sin((1.0 - tau) * ang) / s, u),
                               (np.sin(tau * ang) / s, v))
    small = np.broadcast_to(ang < 1e-9, out.shape[1:])
    if small.any():
        t = np.broadcast_to(tau, small.shape)[small]
        a, b = (np.broadcast_to(x, small.shape + (3,))[small] for x in (u_rows, v_rows))
        for i, plane in enumerate(out):
            plane[small] = (1.0 - t) * a[:, i] + t * b[:, i]
    rows = _as_rows(out)
    return normalized_rows(rows) if normalize else rows


def unwrap_rotation_angle(rows: np.ndarray, axis: np.ndarray):
    """Accumulated rotation angles about the unit ``axis`` of the paths of
    an (n, k, 3) stack of unit vectors, each the sum of its signed step
    angles, with two masks: the paths whose steps all subtend less than a
    quarter turn, and the paths that lie in the great circle orthogonal
    to ``axis``.  Where both hold, the sum is the path's continuous
    rotation angle, 0 at its start; a path that breaks the bound needs
    finer samples (see ``invariants._kink_details``)."""
    u, v = rows[..., :-1, :], rows[..., 1:, :]
    cr, dt = cross(u, v), np.einsum("...ij,...ij->...i", u, v)
    bound = np.all(dt > 0.0, axis=-1)
    in_plane = np.max(np.abs(rows @ axis), axis=-1) <= 1e-8
    return np.arctan2(cr @ axis, dt).sum(axis=-1), bound, in_plane


@dataclass(frozen=True)
class ImageMesh:
    """A closed oriented triangulation whose nodes carry sphere points.

    ``triangles`` is an (m, 3) integer array; ``images`` an (n, 3) array
    of unit vectors, renormalized on construction.
    """

    triangles: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        tris = np.asarray(self.triangles, dtype=int)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) index array")
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "images", normalized_rows(self.images))


def _check_closed_oriented(triangles: np.ndarray) -> None:
    following = np.roll(triangles, -1, axis=1)
    if np.any(triangles == following):
        raise ResolutionTooCoarse("triangle with a repeated vertex")
    # Each directed edge once, and its reverse: the reversed edges are
    # then the same set.
    directed = np.stack([triangles, following], axis=2).reshape(-1, 2)
    edges, counts = np.unique(directed, axis=0, return_counts=True)
    if np.any(counts != 1) or not np.array_equal(np.unique(directed[:, ::-1], axis=0), edges):
        raise ResolutionTooCoarse("every edge must appear once per direction")


def mesh_degree(mesh: ImageMesh) -> int:
    """Degree of the piecewise-geodesic sphere map carried by ``mesh``.

    Sums signed triangle areas of the images (a pairwise numpy reduction,
    deterministic for a fixed mesh) and rounds the total divided by 4*pi.
    A pre-rounding residual at or above DEGREE_RESIDUAL_TOL raises, flagging
    an under-resolved or degenerate mesh rather than mis-rounding.
    """
    _check_closed_oriented(mesh.triangles)
    pts = mesh.images
    t = mesh.triangles
    areas, valid = triangle_areas(pts[t[:, 0]], pts[t[:, 1]], pts[t[:, 2]])
    if not valid.all():
        raise ResolutionTooCoarse("degenerate image triangle; refine the mesh")
    total = float(np.sum(areas)) / (4.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) >= DEGREE_RESIDUAL_TOL:
        raise ResolutionTooCoarse(
            f"degree residual {abs(total - nearest):.3g} exceeds {DEGREE_RESIDUAL_TOL}"
        )
    return int(nearest)
