import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tangent_topo import errors
from tangent_topo.sphere import (
    GeodesicPolygon,
    ImageMesh,
    SphericalPath,
    geodesic_point,
    mesh_degree,
    spherical_triangle_area,
    triangle_sigma,
    unwrap_rotation_angle,
)

from helpers import (
    brute_force_rotation_angle,
    icosahedron_mesh,
    lhuilier_signed_area,
    polar_sphere_mesh,
    random_rotation,
    subdivide_mesh,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
DIAG = np.ones(3) / np.sqrt(3.0)


unit_vectors = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *(st.floats(-1.0, 1.0) for _ in range(3)),
).filter(lambda v: 0.2 < np.linalg.norm(v) < 1.8).map(
    lambda v: v / np.linalg.norm(v)
)


def _generic(a, b, c):
    for u, v in ((a, b), (b, c), (c, a)):
        if abs(float(u @ v)) > 1.0 - 1e-3:
            return False
    try:
        return abs(spherical_triangle_area(a, b, c)) < 2.0 * np.pi - 0.5
    except errors.AntipodalPair:  # three points wrapping one great circle
        return False


class TestTriangleArea:
    def test_octant(self):
        assert spherical_triangle_area(EX, EY, EZ) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_degenerate_repeated_vertex(self):
        assert spherical_triangle_area(EX, EY, EX) == 0.0

    def test_orientation_reversal(self):
        assert spherical_triangle_area(EX, EZ, EY) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_antipodal_pair_rejected(self):
        with pytest.raises(errors.AntipodalPair):
            spherical_triangle_area(EX, -EX, EY)

    def test_matches_excess_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            a, b, c = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 3)))
            if not _generic(a, b, c):
                continue
            assert spherical_triangle_area(a, b, c) == pytest.approx(
                lhuilier_signed_area(a, b, c), abs=1e-10
            )
            checked += 1

    @settings(max_examples=80, deadline=None)
    @given(a=unit_vectors, b=unit_vectors, c=unit_vectors)
    @example(a=EY, b=EX, c=-np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    def test_cyclic_and_transposition_symmetry(self, a, b, c):
        if not _generic(a, b, c):
            return
        area = spherical_triangle_area(a, b, c)
        assert spherical_triangle_area(b, c, a) == pytest.approx(area, abs=1e-12)
        assert spherical_triangle_area(b, a, c) == pytest.approx(-area, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        a, b, c = EX, EY, DIAG
        base = spherical_triangle_area(a, b, c)
        for _ in range(100):
            rot = random_rotation(rng)
            assert spherical_triangle_area(rot @ a, rot @ b, rot @ c) == pytest.approx(
                base, abs=1e-10
            )


class TestTriangleSigma:
    def test_interior_positive(self):
        assert triangle_sigma(EX, EY, EZ, DIAG) == 1

    def test_antipode_of_interior_is_exterior(self):
        assert triangle_sigma(EX, EY, EZ, -DIAG) == 0

    def test_reversed_orientation(self):
        assert triangle_sigma(EX, EZ, EY, DIAG) == -1

    def test_plainly_outside(self):
        assert triangle_sigma(EX, EY, EZ, np.array([1.0, -1.0, 0.1]) / np.sqrt(2.01)) == 0

    def test_on_boundary_raises(self):
        mid = (EX + EY) / np.linalg.norm(EX + EY)
        with pytest.raises(errors.OnBoundary):
            triangle_sigma(EX, EY, EZ, mid)


class TestGeodesics:
    def test_endpoints(self):
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([0.0, 0.6, 0.8])
        assert np.allclose(geodesic_point(a, b, 0.0), a)
        assert np.allclose(geodesic_point(a, b, 1.0), b)

    def test_quarter_arc_midpoint(self):
        mid = geodesic_point(EX, EY, 0.5)
        assert np.allclose(mid, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15)

    def test_antipodal_rejected(self):
        with pytest.raises(errors.AntipodalEndpoints):
            geodesic_point(EX, -EX, 0.5)


def _circle_path(axis, total, start, n):
    axis = axis / np.linalg.norm(axis)
    t = np.linspace(0.0, 1.0, n)

    def at(tk):
        ang = total * np.asarray(tk, dtype=float)
        ang = np.atleast_1d(ang)
        return (
            np.cos(ang)[:, None] * start
            + np.sin(ang)[:, None] * np.cross(axis, start)
        )

    return SphericalPath(samples=at(t), params=t, refine=at), at


class TestUnwrap:
    def test_constant_path(self):
        pts = np.tile(EX, (8, 1))
        path = SphericalPath(samples=pts, params=np.linspace(0, 1, 8))
        assert unwrap_rotation_angle(path, EZ) == 0.0

    def test_full_positive_turn(self):
        path, _ = _circle_path(EZ, 2.0 * np.pi, EX, 16)
        assert unwrap_rotation_angle(path, EZ) == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_many_turns_vs_brute_force(self):
        eta = 1.1
        total = eta + 4.0 * np.pi
        path, at = _circle_path(EZ, total, EX, 16)
        assert unwrap_rotation_angle(path, EZ) == pytest.approx(total, abs=1e-10)
        oracle = brute_force_rotation_angle(lambda t: at(t)[0], EZ)
        assert unwrap_rotation_angle(path, EZ) == pytest.approx(oracle, abs=1e-8)

    def test_concatenation_additivity(self):
        path, at = _circle_path(EZ, 3.0, EX, 33)
        t_first = np.linspace(0.0, 0.5, 17)
        t_second = np.linspace(0.5, 1.0, 17)
        first = SphericalPath(at(t_first), t_first, refine=at)
        second = SphericalPath(at(t_second), t_second, refine=at)
        total = unwrap_rotation_angle(path, EZ)
        assert unwrap_rotation_angle(first, EZ) + unwrap_rotation_angle(
            second, EZ
        ) == pytest.approx(total, abs=1e-12)

    def test_not_in_plane(self):
        pts = np.tile(DIAG, (4, 1))
        path = SphericalPath(samples=pts, params=np.linspace(0, 1, 4))
        with pytest.raises(errors.NotInPlane):
            unwrap_rotation_angle(path, EZ)

    def test_coarse_without_refinement(self):
        _, at = _circle_path(EZ, 4.0 * np.pi, EX, 5)
        t = np.linspace(0.0, 1.0, 5)
        path = SphericalPath(samples=at(t), params=t, refine=None)
        with pytest.raises(errors.CoarseSampling):
            unwrap_rotation_angle(path, EZ)


class TestGeodesicPolygon:
    def test_valid(self):
        assert len(GeodesicPolygon(np.stack([EX, EY, EZ]))) == 3

    def test_consecutive_antipodal_rejected(self):
        with pytest.raises(errors.AntipodalPair):
            GeodesicPolygon(np.stack([EX, -EX, EY]))


class TestMeshDegree:
    def test_identity_icosahedron(self):
        assert mesh_degree(icosahedron_mesh()) == 1

    def test_constant_map(self):
        base = icosahedron_mesh()
        const = ImageMesh(
            triangles=base.triangles,
            images=np.tile(DIAG, (base.images.shape[0], 1)),
        )
        assert mesh_degree(const) == 0

    def test_double_longitude(self):
        mesh = polar_sphere_mesh(
            64, 64,
            image_fn=lambda alpha, beta: np.array([
                np.sin(alpha) * np.cos(2 * beta),
                np.sin(alpha) * np.sin(2 * beta),
                np.cos(alpha),
            ]),
        )
        assert mesh_degree(mesh) == 2

    def test_subdivision_invariance(self):
        mesh = polar_sphere_mesh(12, 12)
        assert mesh_degree(mesh) == 1
        assert mesh_degree(subdivide_mesh(mesh)) == 1

    def test_antipodal_images_negate(self):
        mesh = icosahedron_mesh()
        neg = ImageMesh(triangles=mesh.triangles, images=-mesh.images)
        assert mesh_degree(neg) == -mesh_degree(mesh)

    def test_reflection_negates(self):
        mesh = icosahedron_mesh()
        reflected = mesh.images * np.array([1.0, 1.0, -1.0])
        assert mesh_degree(ImageMesh(mesh.triangles, reflected)) == -mesh_degree(mesh)

    def test_open_mesh_rejected(self):
        mesh = icosahedron_mesh()
        with pytest.raises(errors.NotClosed):
            mesh_degree(ImageMesh(mesh.triangles[:-1], mesh.images))
