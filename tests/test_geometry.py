import json

import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo.geometry import (
    ChartSegment,
    ConvexPolyhedron,
    TruncationSpec,
    builtin_polyhedron,
    polar_chart,
    truncate,
)
from tangent_topo.sphere import normalized

from helpers import (PINNED_HULLS, halfspace_truncation_counts, normal_cone_spec,
                     pinned_hull, random_rotation)


class TestPolyhedronLoading:
    def test_cube_basics(self):
        cube = builtin_polyhedron("cube")
        assert cube.n_vertices == 8
        assert cube.n_edges == 12
        assert cube.n_faces == 6

    def test_faces_reoriented_outward(self):
        cube = builtin_polyhedron("cube")
        flipped = [list(f)[::-1] for f in cube.faces]
        reloaded = ConvexPolyhedron.from_data(cube.vertices, flipped)
        for cyc, normal in zip(reloaded.faces, reloaded.face_normals):
            center = reloaded.vertices[list(cyc)].mean(axis=0)
            assert normal @ (center - reloaded.centroid) > 0

    def test_nonconvex_rejected(self):
        verts = builtin_polyhedron("cube").vertices.copy()
        verts[0] = [0.5, 0.5, 0.5]  # dent a corner inward
        with pytest.raises(errors.TangentTopoError, match="is not planar"):
            ConvexPolyhedron.from_data(verts, [list(f) for f in builtin_polyhedron("cube").faces])

    def test_dented_octahedron_is_not_convex(self):
        # Its top vertex pushed below the equator, every face is still a
        # triangle, so planar, and only the convexity check refuses it.
        octa = builtin_polyhedron("octahedron")
        verts = octa.vertices.copy()
        verts[4] = [0.0, 0.0, -0.3]
        with pytest.raises(errors.TangentTopoError, match="polyhedron is not convex"):
            ConvexPolyhedron.from_data(verts, [list(f) for f in octa.faces])

    def test_open_surface_rejected(self):
        cube = builtin_polyhedron("cube")
        with pytest.raises(errors.TangentTopoError, match="is not shared by two faces"):
            ConvexPolyhedron.from_data(cube.vertices, [list(f) for f in cube.faces[:-1]])

    @pytest.mark.parametrize("solid", tt.BUILTIN_NAMES + PINNED_HULLS)
    def test_edge_directions_are_the_normalized_edges(self, solid):
        poly = builtin_polyhedron(solid) if isinstance(solid, str) else pinned_hull(*solid)[0]
        for b, (i, j) in enumerate(poly.edges):
            assert np.array_equal(poly.edge_direction(b),
                                  normalized(poly.vertices[j] - poly.vertices[i]))

    def test_mutating_an_edge_direction_leaves_the_solid(self):
        cube = builtin_polyhedron("cube")
        vertices, first = cube.vertices.copy(), cube.edge_direction(0)
        d = cube.edge_direction(0)
        d *= -1.0
        assert np.array_equal(cube.edge_direction(0), first)
        assert np.array_equal(cube.vertices, vertices)

    def test_json_round_trip(self, tmp_path):
        cube = builtin_polyhedron("cube")
        path = tmp_path / "cube.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cube.to_dict(), fh)
        again = tt.load_polyhedron(path)
        assert np.array_equal(again.vertices, cube.vertices)
        assert again.faces == cube.faces
        assert json.loads(path.read_text())["format"] == "polyhedron/1"


class TestTruncation:
    def test_cube_counts(self, cube_phat):
        assert cube_phat.n_points == 24
        assert cube_phat.n_edges == 36
        assert cube_phat.n_faces == 14
        assert cube_phat.n_points - cube_phat.n_edges + cube_phat.n_faces == 2
        assert len(cube_phat.cleaved_faces) == 8
        assert len(cube_phat.trunc_faces) == 6
        assert all(len(cf.polygon) == 3 for cf in cube_phat.cleaved_faces)
        assert all(len(tf.polygon) == 8 for tf in cube_phat.trunc_faces)
        assert len(cube_phat.cleaved_edges) == 24

    def test_tetrahedron_counts(self, tetra_phat):
        assert len(tetra_phat.cleaved_faces) == 4
        assert all(len(cf.polygon) == 3 for cf in tetra_phat.cleaved_faces)
        assert all(len(tf.polygon) == 6 for tf in tetra_phat.trunc_faces)
        assert len(tetra_phat.cleaved_edges) == 12

    @pytest.mark.parametrize("name", ["cube", "tetrahedron", "octahedron"])
    def test_matches_halfspace_oracle(self, name):
        poly = builtin_polyhedron(name)
        spec = TruncationSpec.from_fraction(poly, 0.22)
        phat = truncate(poly, spec)
        v, e, f = halfspace_truncation_counts(poly, spec)
        assert (phat.n_points, phat.n_edges, phat.n_faces) == (v, e, f)

    def test_adjacency_invariants(self, cube_phat, tetra_phat, octa_phat):
        for phat in (cube_phat, tetra_phat, octa_phat):
            phat.validate()

    def test_cleaved_face_degree(self, octa_phat):
        # octahedron vertices have degree four
        for cf in octa_phat.cleaved_faces:
            assert len(cf.polygon) == 4
            assert len(cf.face_chain) == 4

    def test_oversized_cut_degenerates(self):
        cube = builtin_polyhedron("cube")
        with pytest.raises(errors.TangentTopoError, match="cut planes interact"):
            truncate(cube, TruncationSpec.from_fraction(cube, 0.5))

    def test_separation_violation(self):
        cube = builtin_polyhedron("cube")
        spec = TruncationSpec.from_fraction(cube, 0.25)
        normals = spec.normals.copy()
        normals[0] = -normals[0]
        with pytest.raises(errors.TangentTopoError, match="faces away from its vertex"):
            truncate(cube, TruncationSpec(normals=normals, points=spec.points))

    def test_plane_through_vertex_degenerates(self):
        cube = builtin_polyhedron("cube")
        spec = TruncationSpec.from_fraction(cube, 0.25)
        points = spec.points.copy()
        points[0] = cube.vertices[0]
        with pytest.raises(errors.TangentTopoError, match="passes through a vertex"):
            truncate(cube, TruncationSpec(normals=spec.normals, points=points))

    @pytest.mark.parametrize("entry", ["normals", "points", "both"])
    def test_cut_planes_not_one_per_vertex_rejected(self, entry):
        # One plane too few once escaped as a bare IndexError, and a plane
        # too many was read past.
        tetra = builtin_polyhedron("tetrahedron")
        spec = TruncationSpec.from_fraction(tetra, 0.25)
        for cut in (spec.normals[:-1], np.vstack([spec.normals, spec.normals[:1]]),
                    np.hstack([spec.normals, spec.normals[:, :1]])):
            planes = {"normals": spec.normals, "points": spec.points}
            planes.update({k: cut for k in planes if entry in (k, "both")})
            with pytest.raises(errors.TangentTopoError, match="shaped"):
                truncate(tetra, TruncationSpec(**planes))

    @pytest.mark.parametrize("entry", ["normals", "points"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cut_plane_rejected(self, entry, value):
        cube = builtin_polyhedron("cube")
        planes = TruncationSpec.from_fraction(cube, 0.25).to_dict()
        for a in range(cube.n_vertices):
            for j in range(3):
                edited = {k: np.array(v) for k, v in planes.items()}
                edited[entry][a, j] = value
                with pytest.raises(errors.TangentTopoError, match="finite"):
                    truncate(cube, TruncationSpec(**edited))

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(7)
        poly = builtin_polyhedron("tetrahedron")
        phat = truncate(poly, TruncationSpec.from_fraction(poly, 0.25))
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        moved = ConvexPolyhedron.from_data(
            poly.vertices @ rot.T + shift, [list(f) for f in poly.faces]
        )
        phat_moved = truncate(moved, TruncationSpec.from_fraction(moved, 0.25))
        assert np.allclose(phat_moved.points, phat.points @ rot.T + shift, atol=1e-9)

    def test_boundary_cancellation(self, cube_phat):
        # oriented cleaved edges from the trimmed faces cancel the ones
        # from the corner faces
        fwd = set()
        for tf in cube_phat.trunc_faces:
            poly = tf.polygon
            for k, seg in enumerate(tf.segments):
                if seg[0] == "cleaved":
                    fwd.add((poly[k], poly[(k + 1) % len(poly)]))
        rev = set()
        for cf in cube_phat.cleaved_faces:
            poly = cf.polygon
            for k in range(len(poly)):
                rev.add((poly[(k + 1) % len(poly)], poly[k]))
        assert fwd == rev


class TestPolarChart:
    def test_trimmed_face_chart_holds_its_face_segments(self, cube_phat):
        # The same records, turned to start at the lowest corner.
        for c, tf in enumerate(cube_phat.trunc_faces):
            segs = polar_chart(cube_phat, ("truncated", c)).segments
            k = tf.polygon.index(min(tf.polygon))
            assert segs == tf.segments[k:] + tf.segments[:k]
            assert all(type(seg) is ChartSegment for seg in segs)

    def test_rho_zero_is_base(self, cube_phat):
        chart = polar_chart(cube_phat, ("truncated", 0))
        pts = chart.point(np.zeros(5), np.linspace(0, 2 * np.pi, 5))
        assert np.allclose(pts, chart.base)

    def test_phi_zero_anchor_is_lowest_corner(self, cube_phat):
        key = ("truncated", 0)
        chart = polar_chart(cube_phat, key)
        lowest = min(cube_phat.trunc_faces[0].polygon)
        anchor = chart.point(np.ones(1), np.zeros(1))[0]
        assert np.allclose(anchor, cube_phat.points[lowest])

    def test_interior_at_half_radius(self, tetra_phat):
        chart = polar_chart(tetra_phat, ("cleaved", 0))
        phis = np.linspace(0.0, 2.0 * np.pi, 37)
        pts = chart.point(np.full_like(phis, 0.5), phis)
        normal = tetra_phat.spec.normals[0]
        rho, _, inside = chart.locate(pts)
        assert inside.all()
        assert np.all(rho < 1.0 - 1e-6)
        assert np.all(np.abs((pts - chart.base) @ normal) < 1e-12)

    @pytest.mark.parametrize("solid", [(name, lam) for name in tt.BUILTIN_NAMES
                                       for lam in (0.2, 0.25)] + list(PINNED_HULLS))
    def test_base_lies_strictly_inside_its_face(self, solid):
        # The centroid chart's base lies in the face plane and strictly
        # inside every side; on the thinnest hull faces it is 8.6e-4 of
        # the face's size away from one.
        if isinstance(solid[0], str):
            poly = builtin_polyhedron(solid[0])
            phat = truncate(poly, TruncationSpec.from_fraction(poly, solid[1]))
        else:
            poly, lam = pinned_hull(*solid)
            phat = truncate(poly, normal_cone_spec(poly, lam))
        for (kind, idx), chart in phat.charts.items():
            normal = phat.face_normal(idx) if kind == "truncated" else phat.spec.normals[idx]
            q0 = chart.corners
            q1 = np.roll(q0, -1, axis=0)
            scale = np.max(np.linalg.norm(q0 - chart.base, axis=1))
            assert np.all(np.abs((q0 - chart.base) @ normal) <= 1e-12 * scale), (kind, idx)
            inward = np.cross(normal, q1 - q0) / np.linalg.norm(q1 - q0, axis=1)[:, None]
            assert np.all(np.einsum("kj,kj->k", chart.base - q0, inward) > 1e-9 * scale)

    def test_locate_inverts_point(self, cube_phat):
        chart = polar_chart(cube_phat, ("cleaved", 3))
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.05, 0.999, 50)
        phi = rng.uniform(0.0, 2.0 * np.pi, 50)
        p = chart.point(rho, phi)
        rho2, phi2, inside = chart.locate(p)
        assert inside.all()
        assert np.allclose(rho2, rho, atol=1e-9)
        assert np.allclose(chart.point(rho2, phi2), p, atol=1e-10)

    @pytest.mark.parametrize("key", [("cleaved", 0), ("truncated", 2)])
    def test_locate_round_trip_base_corners_and_rim(self, cube_phat, key):
        chart = polar_chart(cube_phat, key)
        m = chart.n_segments
        corners = np.arange(m) * (2.0 * np.pi / m)
        mids = corners + np.pi / m
        rho = np.concatenate([[0.0, 0.0], np.ones(m), np.full(m, 1.0 - 1e-12),
                              np.full(m, 0.5)])
        phi = np.concatenate([[0.0, 1.0], corners, mids, mids])
        p = chart.point(rho, phi)
        rho2, phi2, inside = chart.locate(p)
        assert inside.all()
        assert rho2[:2].tolist() == [0.0, 0.0]
        assert np.allclose(rho2, rho, atol=1e-9)
        assert np.allclose(chart.point(rho2, phi2), p, atol=1e-12)
        # corners land on their side's start or the previous side's end
        gap = np.abs(np.angle(np.exp(1j * (phi2[2:2 + m] - corners))))
        assert np.all(gap < 1e-9)

    @pytest.mark.parametrize("solid", ["cube_phat", "tetra_phat", "octa_phat"])
    def test_segment_position_puts_side_multiples_on_corners(self, solid, request):
        phat = request.getfixturevalue(solid)
        for key, chart in phat.charts.items():
            m = chart.n_segments
            sides = np.linalg.norm(np.roll(chart.corners, -1, axis=0) - chart.corners, axis=1)
            # phi = 2 pi k / m for k = 0..m, where k = m wraps to corner 0,
            # and phi = -2 pi, which wraps to corner 0 as well.
            phi = np.append(2.0 * np.pi * np.arange(m + 1) / m, -2.0 * np.pi)
            want = chart.corners[np.append(np.arange(m + 1) % m, 0)]
            gap = np.linalg.norm(chart.boundary_point(phi) - want, axis=1)
            assert np.all(gap <= 1e-12 * sides.min()), key
            k, u = chart.segment_position(np.array([-2.0 * np.pi]))
            assert k.tolist() == [0] and u.tolist() == [0.0]

    @pytest.mark.parametrize("m", range(3, 13))
    def test_segment_position_clamps_below_a_full_turn(self, m):
        # One ulp below 2 pi can round up to the end of side m; it stays
        # on side m - 1 at a fraction within [0, 1].
        chart = tt.PolarChart(corners=np.zeros((m, 3)), base=np.zeros(3), segments=())
        k, u = chart.segment_position(np.array([np.nextafter(2.0 * np.pi, 0.0), 0.0]))
        assert k.tolist() == [m - 1, 0]
        assert 0.0 <= u[0] <= 1.0 and u[1] == 0.0

    def test_locate_flags_points_outside(self, cube_phat):
        chart = polar_chart(cube_phat, ("cleaved", 1))
        phi = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        z = chart.boundary_point(phi)
        inner = chart.base + 0.5 * (z - chart.base)
        outer = chart.base + 1.5 * (z - chart.base)
        rho, phi2, inside = chart.locate(np.concatenate([inner, outer]))
        assert inside[:12].all() and not inside[12:].any()
        assert np.all(rho[12:] == 0.0) and np.all(phi2[12:] == 0.0)

    def test_fan_cycle_anchored_and_cyclic(self, cube_phat):
        cycle = cube_phat.fan_edge_cycle(0)
        assert cycle[0] == min(cycle)
        assert len(cycle) == 3
