"""Convex polyhedra, vertex truncation, and polygonal-polar charts.

A convex polyhedron is stored with outward-oriented face cycles; edges
are always derived from the face cycles, never supplied.  Truncation
cuts every vertex off with a separating plane, producing a truncated
polyhedron whose boundary consists of *corner faces* (one small polygon
per original vertex, called cleaved faces) and *trimmed faces* (the
remnants of the original faces, called truncated faces).

All types are immutable after construction and every operation is a
pure function, so the module is safe to use from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import TangentTopoError, load_document, numbers_entry, reading_document
from .sphere import cross, normalized

TOL_GEOM_FACTOR = 1e-9

POLYHEDRON_FORMAT = "polyhedron/1"

FaceKey = Tuple[str, int]

CLEAVED = "cleaved"
TRUNCATED = "truncated"


def _newell_normal(points: np.ndarray) -> np.ndarray:
    nxt = np.roll(points, -1, axis=0)
    return cross(points, nxt).sum(axis=0)


@dataclass(frozen=True)
class ConvexPolyhedron:
    """A convex polyhedron with outward counterclockwise face cycles."""

    vertices: np.ndarray
    faces: Tuple[Tuple[int, ...], ...]
    edges: np.ndarray            # (e, 2) vertex pairs, low index first
    edge_faces: np.ndarray       # (e, 2): face traversing i->j, face traversing j->i
    face_normals: np.ndarray
    centroid: np.ndarray
    tol: float
    builtin: Optional[str] = None  # the name of a builtin solid

    @classmethod
    def from_data(cls, vertices, faces) -> "ConvexPolyhedron":
        """Build and validate a polyhedron from raw vertex/face data.

        Face cycles may have either orientation on input; they are
        reoriented outward with a centroid test.  Raises TangentTopoError
        if the data fails planarity, convexity, manifoldness, or the
        Euler formula.
        """
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise TangentTopoError("vertices must be an (n, 3) array")
        if verts.shape[0] < 4:
            raise TangentTopoError("a polyhedron needs at least 4 vertices")
        if not np.all(np.isfinite(verts)):
            raise TangentTopoError("vertex coordinates must be finite")
        bbox = verts.max(axis=0) - verts.min(axis=0)
        tol = TOL_GEOM_FACTOR * float(np.linalg.norm(bbox))
        if tol == 0.0:
            raise TangentTopoError("degenerate vertex set")
        centroid = verts.mean(axis=0)

        oriented = []
        normals = []
        for raw in faces:
            raw = list(raw)
            cycle = [int(i) for i in raw]
            if (len(cycle) < 3 or len(set(cycle)) != len(cycle) or cycle != raw
                    or not 0 <= min(cycle) <= max(cycle) < verts.shape[0]):
                raise TangentTopoError(f"bad face cycle {raw}")
            pts = verts[cycle]
            normal = _newell_normal(pts)
            nn = float(np.linalg.norm(normal))
            if nn < tol:
                raise TangentTopoError(f"degenerate face {cycle}")
            normal = normal / nn
            if normal @ (pts.mean(axis=0) - centroid) < 0.0:
                cycle = cycle[::-1]
                normal = -normal
            pts = verts[cycle]
            spread = np.abs((pts - pts[0]) @ normal)
            if spread.max() > 10.0 * tol:
                raise TangentTopoError(f"face {cycle} is not planar")
            oriented.append(tuple(cycle))
            normals.append(normal)
        normals = np.asarray(normals)

        # Convexity: every vertex on or behind every face plane.
        for cyc, normal in zip(oriented, normals):
            dist = (verts - verts[cyc[0]]) @ normal
            if dist.max() > 10.0 * tol:
                raise TangentTopoError("polyhedron is not convex")

        edge_map: dict[tuple[int, int], list[Optional[int]]] = {}
        for ci, cyc in enumerate(oriented):
            for k in range(len(cyc)):
                i, j = cyc[k], cyc[(k + 1) % len(cyc)]
                key = (min(i, j), max(i, j))
                slot = 0 if i < j else 1
                rec = edge_map.setdefault(key, [None, None])
                if rec[slot] is not None:
                    raise TangentTopoError(f"edge {key} traversed twice in one direction")
                rec[slot] = ci
        for key, rec in edge_map.items():
            if rec[0] is None or rec[1] is None:
                raise TangentTopoError(f"edge {key} is not shared by two faces")

        keys = sorted(edge_map)
        edges = np.asarray(keys, dtype=int)
        edge_faces = np.asarray([edge_map[k] for k in keys], dtype=int)

        v, e, f = verts.shape[0], edges.shape[0], len(oriented)
        if v - e + f != 2:
            raise TangentTopoError(f"Euler check failed: {v} - {e} + {f} != 2")

        return cls(
            vertices=verts,
            faces=tuple(oriented),
            edges=edges,
            edge_faces=edge_faces,
            face_normals=normals,
            centroid=centroid,
            tol=tol,
        )

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def edge_index(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        idx = np.flatnonzero((self.edges[:, 0] == key[0]) & (self.edges[:, 1] == key[1]))
        if idx.size != 1:
            raise TangentTopoError(f"no edge {key}")
        return int(idx[0])

    @cached_property
    def _edge_directions(self) -> np.ndarray:
        dirs = np.array([normalized(self.vertices[j] - self.vertices[i]) for i, j in self.edges])
        dirs.flags.writeable = False
        return dirs

    def edge_direction(self, b: int) -> np.ndarray:
        """Unit direction of edge ``b``, from its lower to its higher vertex, built
        once per solid; each call returns a fresh array."""
        return self._edge_directions[b].copy()

    def to_dict(self) -> dict:
        return {
            "format": POLYHEDRON_FORMAT,
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "faces": [list(map(int, f)) for f in self.faces],
        }

    def entry(self) -> dict:
        """The ``polyhedron`` entry of a document that names this solid:
        ``{"builtin": name}`` for a builtin solid, else ``to_dict()``."""
        return {"builtin": self.builtin} if self.builtin else self.to_dict()


_BUILTINS = {
    "cube": (
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
         (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)],
        [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
         [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]],
    ),
    "tetrahedron": (
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
        [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
    ),
    "octahedron": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
         [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]],
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_polyhedron(name: str) -> ConvexPolyhedron:
    """One of the built-in solids: cube, tetrahedron, octahedron."""
    try:
        verts, faces = _BUILTINS[name]
    except KeyError:
        raise TangentTopoError(f"unknown builtin polyhedron {name!r}") from None
    return replace(ConvexPolyhedron.from_data(verts, faces), builtin=name)


def polyhedron_from_dict(data: dict) -> ConvexPolyhedron:
    """Read a ``polyhedron/1`` document; a missing, mistyped or out-of-range
    entry raises TangentTopoError."""
    with reading_document("polyhedron"):
        if data.get("format", POLYHEDRON_FORMAT) != POLYHEDRON_FORMAT:
            raise TangentTopoError(f"unsupported polyhedron format {data.get('format')!r}")
        return ConvexPolyhedron.from_data(*(numbers_entry(data[k], k)
                                            for k in ("vertices", "faces")))


def load_polyhedron(path) -> ConvexPolyhedron:
    return polyhedron_from_dict(load_document(path, "polyhedron"))


@dataclass(frozen=True)
class TruncationSpec:
    """One separating cut plane per vertex.

    ``normals[a]`` points from the body toward vertex ``a`` and
    ``points[a]`` lies on the plane, so the kept half-space at vertex a
    is ``(x - points[a]) . normals[a] <= 0``.
    """

    normals: np.ndarray
    points: np.ndarray

    @classmethod
    def from_fraction(cls, poly: ConvexPolyhedron, lam: float) -> "TruncationSpec":
        """Generate cuts from a single fraction of local edge length.

        The plane at vertex v is normal to v minus the polyhedron
        centroid and sits ``lam`` times the distance from v to its
        nearest neighbor in from v.  This separates on the builtin solids
        and other symmetric ones, but not always on irregular solids,
        where ``truncate`` then raises TangentTopoError: the normal
        may leave the vertex's normal cone, which no fraction repairs,
        or the depth may exceed the height gap to a neighbor.  Overly
        deep cuts are rejected by the truncation's interaction checks.
        """
        if not (0.0 < lam):
            raise TangentTopoError(f"truncation fraction must be positive, got {lam}")
        verts = poly.vertices
        normals = np.empty_like(verts)
        points = np.empty_like(verts)
        for a in range(poly.n_vertices):
            nn = np.inf
            for b in poly.edges[(poly.edges == a).any(axis=1)]:
                other = int(b[1] if b[0] == a else b[0])
                nn = min(nn, float(np.linalg.norm(verts[other] - verts[a])))
            normal = normalized(verts[a] - poly.centroid)
            normals[a] = normal
            points[a] = verts[a] - lam * nn * normal
        return cls(normals=normals, points=points)

    def to_dict(self) -> dict:
        """The ``truncation`` entry of a document: every cut plane."""
        return {"normals": np.asarray(self.normals, dtype=float).tolist(),
                "points": np.asarray(self.points, dtype=float).tolist()}


@dataclass(frozen=True)
class CleavedEdge:
    """Border between corner face ``a`` and trimmed face ``c``, stored in
    ``TruncatedPolyhedron.cleaved_edges`` under its key ``(a, c)``.

    The stored direction runs counterclockwise about the trimmed face's
    outward normal: from the crossing on the edge entering the corner in
    that face's cycle (``start_edge``) to the crossing on the leaving
    edge (``end_edge``), the point ``end_point``.
    """

    end_point: int
    start_edge: int
    end_edge: int


class ChartSegment(NamedTuple):
    kind: str            # "cleaved" or "edge"
    key: object          # (a, c) or edge index b
    forward: bool        # True if the face walks it as stored (edge b: low end first)


@dataclass(frozen=True)
class TruncatedFace:
    """The remnant of original face ``face``: its corners in cycle order
    and one segment per side, cleaved (always forward) and edge in turn."""

    face: int
    polygon: Tuple[int, ...]
    segments: Tuple[ChartSegment, ...]


@dataclass(frozen=True)
class CleavedFace:
    vertex: int
    polygon: Tuple[int, ...]        # counterclockwise about the cut normal
    face_chain: Tuple[int, ...]     # incident original faces, same cyclic order


@dataclass(frozen=True)
class TruncatedPolyhedron:
    """A polyhedron with every vertex cut off by a separating plane."""

    parent: ConvexPolyhedron
    spec: TruncationSpec
    points: np.ndarray                       # (2e, 3) cut corner points
    trunc_faces: Tuple[TruncatedFace, ...]
    cleaved_faces: Tuple[CleavedFace, ...]
    cleaved_edges: dict

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_edges(self) -> int:
        return self.parent.n_edges + len(self.cleaved_edges)

    @property
    def n_faces(self) -> int:
        return len(self.trunc_faces) + len(self.cleaved_faces)

    def face_normal(self, c: int) -> np.ndarray:
        return self.parent.face_normals[c]

    def face_keys(self) -> Tuple[FaceKey, ...]:
        keys = [(TRUNCATED, c) for c in range(len(self.trunc_faces))]
        keys += [(CLEAVED, a) for a in range(len(self.cleaved_faces))]
        return tuple(keys)

    @cached_property
    def charts(self) -> Mapping[FaceKey, PolarChart]:
        """The centroid-based ``polar_chart`` of every face, built on first
        use and shared, read-only, by every field on this solid."""
        return MappingProxyType({key: polar_chart(self, key) for key in self.face_keys()})

    def fan_edge_cycle(self, a: int) -> Tuple[int, ...]:
        """Truncated edges around corner ``a``, ordered so consecutive
        ones are linked by a cleaved edge traversed in its stored
        direction, anchored at the lowest edge index."""
        cf = self.cleaved_faces[a]
        ccw = [self.cleaved_edges[(a, c)].end_edge for c in cf.face_chain]
        fwd = ccw[::-1]
        k = fwd.index(min(fwd))
        return tuple(fwd[k:] + fwd[:k])

    def validate(self) -> None:
        """Check closure and alternation invariants; raises on failure."""
        # Boundary of the boundary: each cleaved edge once per side,
        # opposite directions.
        fwd = {}
        for tf in self.trunc_faces:
            poly = tf.polygon
            for k, seg in enumerate(tf.segments):
                if seg.kind == "cleaved":
                    fwd[seg.key] = (poly[k], poly[(k + 1) % len(poly)])
            kinds = [seg.kind for seg in tf.segments]
            for k in range(len(kinds)):
                if kinds[k] == kinds[(k + 1) % len(kinds)]:
                    raise TangentTopoError("face boundary does not alternate edge kinds")
        seen = set()
        for cf in self.cleaved_faces:
            poly = cf.polygon
            for k, c in enumerate(cf.face_chain):
                key = (cf.vertex, c)
                rev = (poly[(k + 1) % len(poly)], poly[k])
                if fwd.get(key) != rev:
                    raise TangentTopoError("cleaved edge orientations do not cancel")
                seen.add(key)
        if seen != set(self.cleaved_edges):
            raise TangentTopoError("cleaved edge registry mismatch")
        v = self.n_points
        e = self.n_edges
        f = self.n_faces
        if v - e + f != 2:
            raise TangentTopoError(f"Euler check failed on truncation: {v}-{e}+{f}")


def truncate(poly: ConvexPolyhedron, spec: TruncationSpec) -> TruncatedPolyhedron:
    """Cut every vertex of ``poly`` off with its plane from ``spec``.

    Raises TangentTopoError when a plane fails to isolate its vertex or
    grazes one, when two cuts meet, in particular when a truncated edge
    would collapse to a point, and when the normals or points are not
    shaped (n_vertices, 3) or hold a non-finite number.
    """
    shapes = np.shape(spec.normals), np.shape(spec.points)
    if shapes != ((poly.n_vertices, 3),) * 2:
        raise TangentTopoError(
            f"cut planes must be shaped ({poly.n_vertices}, 3), not {shapes}")
    if not (np.isfinite(spec.normals).all() and np.isfinite(spec.points).all()):
        raise TangentTopoError("cut-plane normals and points must be finite")
    verts = poly.vertices
    tol = poly.tol
    v = poly.n_vertices
    sides = np.einsum("vj,aj->av", verts, spec.normals) - np.einsum(
        "aj,aj->a", spec.points, spec.normals
    )[:, None]
    for a in range(v):
        if np.any(np.abs(sides[a]) <= tol):
            raise TangentTopoError(f"cut plane {a} passes through a vertex")
        if sides[a, a] < 0.0:
            raise TangentTopoError(f"cut plane {a} faces away from its vertex")
        others = np.delete(sides[a], a)
        if np.any(others > 0.0):
            raise TangentTopoError(f"cut plane {a} does not separate its vertex")

    e = poly.n_edges
    points = np.empty((2 * e, 3), dtype=float)

    def pt_index(b: int, vertex: int) -> int:
        return 2 * b + (0 if vertex == int(poly.edges[b, 0]) else 1)

    for b in range(e):
        i, j = (int(x) for x in poly.edges[b])
        for vertex, other in ((i, j), (j, i)):
            t = sides[vertex, vertex] / (sides[vertex, vertex] - sides[vertex, other])
            points[pt_index(b, vertex)] = (1.0 - t) * verts[vertex] + t * verts[other]

    # Cuts must not interact: every corner point lies strictly inside all
    # other cut planes.  A violated pair means a collapsed truncated edge
    # or overlapping corner polygons.
    owners = poly.edges.reshape(-1)  # owner vertex per corner point
    d = np.einsum("pj,aj->ap", points, spec.normals) - np.einsum(
        "aj,aj->a", spec.points, spec.normals
    )[:, None]
    for a in range(v):
        own = owners == a
        if np.any(np.abs(d[a, own]) > 10.0 * tol):
            raise TangentTopoError("internal error: crossing point off its plane")
        if np.any(d[a, ~own] > -tol):
            raise TangentTopoError("cut planes interact; shrink the truncation")

    cleaved_edges = {}
    trunc_faces = []
    for c, cyc in enumerate(poly.faces):
        m = len(cyc)
        polygon = []
        segments = []
        for k in range(m):
            prv, cur, nxt = cyc[(k - 1) % m], cyc[k], cyc[(k + 1) % m]
            b_in = poly.edge_index(prv, cur)
            b_out = poly.edge_index(cur, nxt)
            p_in = pt_index(b_in, cur)
            p_out = pt_index(b_out, cur)
            polygon.extend((p_in, p_out))
            segments.append(ChartSegment("cleaved", (cur, c), True))
            segments.append(ChartSegment("edge", b_out, cur == int(poly.edges[b_out, 0])))
            cleaved_edges[(cur, c)] = CleavedEdge(end_point=p_out, start_edge=b_in,
                                                  end_edge=b_out)
        trunc_faces.append(TruncatedFace(face=c, polygon=tuple(polygon),
                                         segments=tuple(segments)))

    # Corner polygons: chain the incident faces so each border edge is
    # walked opposite to its direction in the trimmed face, which makes
    # the polygon counterclockwise about the outward cut normal.
    enter = {}
    for (a, c), ce in cleaved_edges.items():
        enter.setdefault(a, {})[c] = ce.start_edge
    cleaved_faces = []
    for a in range(v):
        faces_at = enter[a]
        start = min(faces_at)
        chain = [start]
        while True:
            b_enter = faces_at[chain[-1]]
            f1, f2 = (int(x) for x in poly.edge_faces[b_enter])
            nxt = f2 if f1 == chain[-1] else f1
            if nxt == start:
                break
            chain.append(nxt)
            if len(chain) > len(faces_at):
                raise TangentTopoError("corner face chain did not close")
        if len(chain) != len(faces_at):
            raise TangentTopoError("corner face chain missed a face")
        polygon = tuple(cleaved_edges[(a, c)].end_point for c in chain)
        normal = _newell_normal(points[list(polygon)])
        if normal @ spec.normals[a] <= 0.0:
            raise TangentTopoError("internal error: corner polygon orientation")
        cleaved_faces.append(CleavedFace(vertex=a, polygon=polygon,
                                         face_chain=tuple(chain)))

    phat = TruncatedPolyhedron(
        parent=poly,
        spec=spec,
        points=points,
        trunc_faces=tuple(trunc_faces),
        cleaved_faces=tuple(cleaved_faces),
        cleaved_edges=cleaved_edges,
    )
    phat.validate()
    return phat


def truncated_solid(poly_entry, truncation_entry) -> TruncatedPolyhedron:
    """The solid that a document's ``polyhedron`` and ``truncation``
    entries name (a fraction ``lambda`` or the cut planes of
    ``TruncationSpec.to_dict``)."""
    poly = (builtin_polyhedron(poly_entry["builtin"]) if "builtin" in poly_entry
            else polyhedron_from_dict(poly_entry))
    if "lambda" in truncation_entry:
        lam = numbers_entry(truncation_entry["lambda"], "lambda")
        spec = TruncationSpec.from_fraction(poly, float(lam))
    else:
        normals, points = (np.asarray(numbers_entry(truncation_entry[k], k), dtype=float)
                           for k in ("normals", "points"))
        spec = TruncationSpec(normals=normals, points=points)
    return truncate(poly, spec)


def segment_position(phi, m) -> Tuple[np.ndarray, np.ndarray]:
    """Side ``k`` of a chart boundary of ``m`` sides (m broadcasts against
    the array ``phi``) at each angle, taken mod 2 pi, and the fraction
    ``u`` along that side; an angle that rounds up to a full turn stays
    on side m - 1."""
    pos = np.mod(phi, 2.0 * np.pi) / (2.0 * np.pi / m)
    k = np.minimum(pos.astype(int), m - 1)
    return k, pos - k


@dataclass(frozen=True)
class PolarChart:
    """Polygonal-polar coordinates on a convex face.

    ``point(rho, phi)`` is ``rho * z(phi) + (1 - rho) * base`` where
    ``z`` walks the boundary with constant speed on each side, one equal
    phi-span per side, starting (phi = 0) at the corner with the lowest
    point index and running counterclockwise about the outward normal.
    ``polar_chart`` builds the one chart per face that the library uses,
    the centroid chart, whose base is the mean of the face's corners.
    """

    corners: np.ndarray                 # (m, 3) anchored cycle
    base: np.ndarray
    segments: Tuple[ChartSegment, ...]

    @property
    def n_segments(self) -> int:
        return self.corners.shape[0]

    def segment_position(self, phi) -> Tuple[np.ndarray, np.ndarray]:
        """``segment_position`` on the sides of this chart."""
        return segment_position(phi, self.n_segments)

    def boundary_point(self, phi) -> np.ndarray:
        k, u = self.segment_position(np.atleast_1d(np.asarray(phi, dtype=float)))
        q0 = self.corners[k]
        q1 = self.corners[(k + 1) % self.n_segments]
        return (1.0 - u)[:, None] * q0 + u[:, None] * q1

    def point(self, rho, phi) -> np.ndarray:
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        z = self.boundary_point(phi)
        return rho[:, None] * z + (1.0 - rho)[:, None] * self.base

    def segment_span(self, k: int) -> Tuple[float, float]:
        span = 2.0 * np.pi / self.n_segments
        return k * span, (k + 1) * span

    def segment_index(self, kind: str, key) -> int:
        for k, seg in enumerate(self.segments):
            if seg.kind == kind and seg.key == key:
                return k
        raise TangentTopoError(f"face has no boundary segment {kind} {key}")

    def locate(self, points) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Invert the chart at ``(N, 3)`` in-plane points: ``(rho, phi,
        inside)``, with ``rho = phi = 0`` where ``inside`` is False.

        The first side the ray from the base point leaves through gives
        ``phi`` and ``rho``; every side is solved in closed form.
        """
        w1 = normalized(self.corners[0] - self.base)
        frame = (w1, normalized(cross(_newell_normal(self.corners), w1)))
        rel = np.atleast_2d(np.asarray(points, dtype=float)) - self.base
        x0, x1 = ((rel @ w)[:, None] for w in frame)
        c2 = np.stack([(self.corners - self.base) @ w for w in frame], axis=1)
        d = np.roll(c2, -1, axis=0) - c2   # side vectors q1 - q0
        at_base = np.hypot(x0[:, 0], x1[:, 0]) < 1e-14 * np.max(np.linalg.norm(c2, axis=1))
        # Side k solves q0 + u (q1 - q0) = tau x by Cramer's rule.
        det = x0 * d[:, 1] - x1 * d[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (x1 * c2[:, 0] - x0 * c2[:, 1]) / det
            tau = (d[:, 1] * c2[:, 0] - d[:, 0] * c2[:, 1]) / det
            hit = ((np.abs(det) >= 1e-18) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
                   & (tau >= 1.0 - 1e-9) & ~at_base[:, None])
            k = np.argmax(hit, axis=1)
            rows = np.arange(k.size)
            inside = hit[rows, k]
            span = 2.0 * np.pi / self.n_segments
            rho = np.where(inside, np.minimum(1.0, 1.0 / tau[rows, k]), 0.0)
            phi = np.where(inside, (k + np.clip(u[rows, k], 0.0, 1.0)) * span, 0.0)
        return rho, phi, inside | at_base


def polar_chart(phat: TruncatedPolyhedron, key: FaceKey) -> PolarChart:
    """The centroid chart of a face of the truncated polyhedron: its base
    is the mean of the face's corners, strictly inside the convex face."""
    kind, idx = key
    if kind == TRUNCATED:
        tf = phat.trunc_faces[idx]
        polygon = list(tf.polygon)
        segs = list(tf.segments)
    else:
        cf = phat.cleaved_faces[idx]
        polygon = list(cf.polygon)
        segs = [ChartSegment("cleaved", (cf.vertex, c), False) for c in cf.face_chain]
    base = phat.points[polygon].mean(axis=0)
    anchor = int(np.argmin(polygon))
    polygon = polygon[anchor:] + polygon[:anchor]
    segs = segs[anchor:] + segs[:anchor]
    return PolarChart(corners=phat.points[polygon], base=base, segments=tuple(segs))
