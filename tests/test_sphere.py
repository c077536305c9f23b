import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tangent_topo import errors
from tangent_topo.synthesis import covering_patch
from tangent_topo.sphere import (
    ImageMesh,
    _check_closed_oriented,
    _signed_areas,
    cross,
    geodesic_interpolate,
    mesh_degree,
    normalized,
    normalized_rows,
    reference_frame,
    spherical_triangle_area,
    unwrap_rotation_angle,
)

from helpers import (
    brute_force_rotation_angle,
    icosahedron_mesh,
    lhuilier_signed_area,
    polar_sphere_mesh,
    random_rotation,
    reference_unwrap,
    subdivide_mesh,
    triangle_sigma,
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
    except errors.TangentTopoError as exc:  # three points wrapping one great circle
        assert "antipodal or degenerate vertex pair" in str(exc)
        return False


class TestTriangleArea:
    def test_octant(self):
        assert spherical_triangle_area(EX, EY, EZ) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_degenerate_repeated_vertex(self):
        assert spherical_triangle_area(EX, EY, EX) == 0.0

    def test_orientation_reversal(self):
        assert spherical_triangle_area(EX, EZ, EY) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_antipodal_pair_rejected(self):
        with pytest.raises(errors.TangentTopoError, match="antipodal or degenerate vertex pair"):
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


def _reference_normalized_rows(arr):
    # Rows scaled by their np.linalg.norm, which normalized_rows must match.
    a = np.asarray(arr, dtype=float)
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    if not np.all((n >= 1e-15) & (n < np.inf)):
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return a / n


def _layouts(a):
    """``a`` contiguous, with its last axis strided (a moved-axis view of
    a plane copy), and broadcast along its last and its first axis."""
    out = [a, np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1),
           np.broadcast_to(a[..., :1], a.shape)]
    if a.ndim > 1:
        out.append(np.broadcast_to(a[:1], a.shape))
    return out


class TestNormalizedRows:
    @pytest.mark.parametrize("shape", [(3,), (7, 3), (5, 6, 3), (0, 3)])
    def test_equals_the_linalg_norm_reference(self, shape):
        rng = np.random.default_rng(len(shape))
        # Row scales from 1e-9 to 1e9, so the squares span many exponents.
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 9, size=shape[:-1] + (1,))
        for view in _layouts(a):
            got = normalized_rows(view)
            assert got.shape == view.shape
            assert got.tobytes() == _reference_normalized_rows(view).tobytes()

    def test_other_row_lengths_take_the_reference(self):
        a = np.random.default_rng(3).normal(size=(4, 5))
        assert normalized_rows(a).tobytes() == _reference_normalized_rows(a).tobytes()

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [1e-16, 0.0, 0.0],
                                     [np.inf, 0.0, 0.0], [0.0, np.nan, 1.0],
                                     [1e200, 1e200, 0.0]])
    def test_raises_on_a_zero_tiny_or_non_finite_row(self, bad):
        rows = np.ones((5, 3))
        rows[3] = bad
        for view in [np.asarray(bad, dtype=float), *_layouts(rows)[:2]]:
            with np.errstate(over="ignore"):
                with pytest.raises(ValueError):
                    _reference_normalized_rows(view)
                with pytest.raises(ValueError):
                    normalized_rows(view)


# Values around the 1e-13 cut-off of the area mask, including pairs whose
# hypotenuse straddles it while neither entry reaches it.
_MASK_EDGES = [0.0, -0.0, 1e-13, -1e-13, np.nextafter(1e-13, 1.0), np.nextafter(1e-13, 0.0),
               1e-13 / np.sqrt(2.0), np.nextafter(1e-13 / np.sqrt(2.0), 1.0), 9e-14, -6e-14,
               5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300,
               np.inf, -np.inf, np.nan]


class TestSignedAreas:
    @staticmethod
    def _reference(re, im):
        # Every entry through hypot, as the mask was first written.
        with np.errstate(invalid="ignore", over="ignore"):
            areas = 2.0 * np.arctan2(im, re)
            valid = np.hypot(re, im) > 1e-13
        valid &= ~((np.abs(im) <= 1e-13) & (re < 0.0))
        return areas, valid

    def _check(self, re, im):
        want_areas, want_valid = self._reference(re, im)
        with np.errstate(invalid="ignore"):
            areas, valid = _signed_areas(re, im)
        assert areas.tobytes() == want_areas.tobytes()
        assert np.array_equal(valid, want_valid)

    def test_every_pair_of_edge_values(self):
        re, im = np.meshgrid(_MASK_EDGES, _MASK_EDGES)
        self._check(re, im)

    def test_nan_with_a_large_partner_is_invalid(self):
        # hypot is NaN there, though one entry is far above 1e-13.
        _, valid = _signed_areas(np.array([np.nan, 1e300, 1.0]),
                                 np.array([1e300, np.nan, np.nan]))
        assert not valid.any()
        # hypot(inf, NaN) is inf.
        assert _signed_areas(np.array([np.inf]), np.array([np.nan]))[1].all()

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, (2, 12), elements=st.one_of(
        st.sampled_from(_MASK_EDGES), st.floats(-2e-13, 2e-13), st.floats())))
    def test_equals_the_whole_array_hypot(self, parts):
        self._check(parts[0], parts[1])


class TestCross:
    @settings(max_examples=100, deadline=None)
    @given(arrays(float, (2, 4, 3), elements=st.floats(-1e100, 1e100)))
    def test_equals_np_cross(self, ab):
        a, b = ab
        for x, y in ((a, b), (a[0], b[0]), (a[0], b), (a, b[1])):
            assert cross(x, y).tobytes() == np.cross(x, y).tobytes()
        planes = cross(a.T, b.T, axis=0)
        assert planes.tobytes() == np.ascontiguousarray(np.cross(a, b).T).tobytes()

    def test_grid_blocks_and_strided_inputs(self):
        g = np.random.default_rng(5).normal(size=(9, 7, 3))
        for x, y in ((g[:-1], g[1:]), (g[:-1], np.roll(g[1:], -1, axis=1)),
                     (g[:, ::2][:, :3], g[:, 1::2])):
            got = cross(x, y)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.cross(x, y).tobytes()


    def test_inputs_of_unequal_rank(self):
        rng = np.random.default_rng(9)
        v, block = rng.normal(size=3), rng.normal(size=(6, 1, 3))
        for x, y in ((v, block), (block, v), (block, rng.normal(size=(4, 3)))):
            assert cross(x, y).tobytes() == np.cross(x, y).tobytes()
        planes, column = rng.normal(size=(3, 7)), rng.normal(size=(3, 1))
        for x, y in ((planes, column), (column, planes)):
            got = cross(x, y, axis=0)
            assert got.shape == (3, 7)
            assert got.tobytes() == np.cross(x, y, axis=0).tobytes()

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
        with pytest.raises(errors.SOnTriangleBoundary, match="on a triangle boundary"):
            triangle_sigma(EX, EY, EZ, mid)


class TestGeodesics:
    def test_endpoints(self):
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([0.0, 0.6, 0.8])
        ends = geodesic_interpolate([a, a], [b, b], [0.0, 1.0])
        assert np.allclose(ends, [a, b])

    def test_quarter_arc_midpoint(self):
        mid = geodesic_interpolate(EX, EY, 0.5)
        assert np.allclose(mid, [np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)], atol=1e-15)

    def test_antipodal_rejected(self):
        with pytest.raises(errors.TangentTopoError, match="antipodal pair in geodesic interpolation"):
            geodesic_interpolate([EY, EX], [EZ, -EX], 0.5)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rings=st.integers(1, 5),
           cols=st.integers(1, 7), shared=st.booleans(), lead=st.booleans())
    def test_broadcast_equals_row_wise_calls(self, seed, rings, cols, shared, lead):
        # Arcs along one axis and tau along another, as a face grid block
        # passes them (one start for all arcs when ``shared``, a leading
        # axis of length 1 when ``lead``): every ring of the result is bit
        # for bit the row-wise call at that tau.
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3 if shared else (cols, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = np.broadcast_to(u, (cols, 3)) + np.where(
            rng.random(cols) < 0.3, 1e-11, 0.8)[:, None] * rng.normal(size=(cols, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        tau = rng.uniform(0.0, 1.0, rings)
        tau[rng.random(rings) < 0.4] = rng.choice([0.0, 0.5, 1.0])
        got = geodesic_interpolate(u, v[None] if lead else v, tau[:, None])
        assert got.shape == (rings, cols, 3)
        for i in range(rings):
            rows = geodesic_interpolate(np.broadcast_to(u, (cols, 3)), v, np.full(cols, tau[i]))
            assert got[i].tobytes() == rows.tobytes()

    def test_rows_are_independent_of_the_other_rows(self):
        # Pairs closer than 1e-9 take the chord, the others the arc; a
        # call that mixes them must give each row its single-row value.
        rng = np.random.default_rng(3)
        u = rng.normal(size=(12, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = u + np.where(np.arange(12) % 3 == 0, 1e-11, 0.4)[:, None] * rng.normal(size=(12, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[5] = u[5]
        tau = rng.uniform(0.0, 1.0, 12)
        angles = np.arccos(np.clip(np.einsum("ij,ij->i", u, v), -1.0, 1.0))
        assert (angles < 1e-9).any() and (angles >= 1e-9).any()
        rows = np.concatenate([geodesic_interpolate(u[i], v[i], tau[i]) for i in range(12)])
        assert geodesic_interpolate(u, v, tau).tobytes() == rows.tobytes()


def _bytes_or_error(fn, *args):
    # The bytes of the result, or the type of the error raised.
    try:
        return fn(*args).tobytes()
    except (ValueError, errors.TangentTopoError) as exc:
        return type(exc)


class TestLayoutIndependence:
    """Row kernels give the same bytes for the same values in every layout
    of ``_layouts``: contiguous rows, a moved-axis view of x, y, z planes,
    or a broadcast.  numpy's einsum and matmul sum three components in an
    order that follows the layout, so a kernel that summed with them would
    differ in the last bit between contiguous and moved-axis rows."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from([(1,), (7,), (3, 5)]),
           close=st.floats(0.0, 1.0))
    def test_geodesic_interpolate(self, seed, shape, close):
        # Some pairs closer than 1e-9, which take the chord.
        rng = np.random.default_rng(seed)
        u = normalized_rows(rng.normal(size=shape + (3,)))
        step = np.where(rng.random(shape) < close, 1e-11, 0.8)[..., None]
        v = normalized_rows(u + step * rng.normal(size=shape + (3,)))
        tau = rng.uniform(0.0, 1.0, shape)
        for lu, lv in itertools.product(_layouts(u), _layouts(v)):
            for normalize in (True, False):
                want = _bytes_or_error(geodesic_interpolate, np.ascontiguousarray(lu),
                                       np.ascontiguousarray(lv), tau, normalize)
                assert _bytes_or_error(geodesic_interpolate, lu, lv, tau, normalize) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), omega=st.integers(-3, 3))
    def test_covering_patch(self, seed, omega):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.0, 1.0, (4, 6))
        phi = rng.uniform(0.0, 2.0 * np.pi, (4, 6))
        s = normalized_rows(rng.normal(size=3))
        # The frame as strided columns of one matrix, and contiguous.
        frame = np.stack([*reference_frame(s), s], axis=1)
        for lr, lp in itertools.product(_layouts(rho), _layouts(phi)):
            want = covering_patch(np.ascontiguousarray(lr), np.ascontiguousarray(lp), omega,
                                  *np.ascontiguousarray(frame.T))
            got = covering_patch(lr, lp, omega, *frame.T)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from([(3,), (7, 3), (4, 5, 3)]))
    def test_normalized_rows(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 9, size=shape[:-1] + (1,))
        for view in _layouts(a):
            want = normalized_rows(np.ascontiguousarray(view)).tobytes()
            assert normalized_rows(view).tobytes() == want


def _circle(axis, total, start):
    # The great-circle path turning ``start`` by ``total`` about ``axis``
    # as t runs over [0, 1], evaluated at an array of t.
    axis = axis / np.linalg.norm(axis)

    def at(tk):
        ang = total * np.atleast_1d(np.asarray(tk, dtype=float))
        return np.cos(ang)[:, None] * start + np.sin(ang)[:, None] * np.cross(axis, start)

    return at


def _unwrap_one(row, axis=EZ):
    angle, bound, in_plane = unwrap_rotation_angle(np.asarray(row)[None], axis)
    return float(angle[0]), bool(bound[0]), bool(in_plane[0])


class TestUnwrap:
    def test_constant_path(self):
        assert _unwrap_one(np.tile(EX, (8, 1))) == (0.0, True, True)

    def test_full_positive_turn(self):
        angle, bound, in_plane = _unwrap_one(_circle(EZ, 2.0 * np.pi, EX)(np.linspace(0, 1, 16)))
        assert bound and in_plane
        assert angle == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_many_turns_vs_brute_force(self):
        total = 1.1 + 4.0 * np.pi
        at = _circle(EZ, total, EX)
        angle, bound, in_plane = _unwrap_one(at(np.linspace(0.0, 1.0, 16)))
        assert bound and in_plane
        assert angle == pytest.approx(total, abs=1e-10)
        assert angle == pytest.approx(brute_force_rotation_angle(lambda t: at(t)[0], EZ),
                                      abs=1e-8)

    def test_concatenation_additivity(self):
        at = _circle(EZ, 3.0, EX)
        halves = np.stack([at(np.linspace(0.0, 0.5, 17)), at(np.linspace(0.5, 1.0, 17))])
        parts, bound, in_plane = unwrap_rotation_angle(halves, EZ)
        assert bound.all() and in_plane.all()
        total = _unwrap_one(at(np.linspace(0.0, 1.0, 33)))[0]
        assert parts.sum() == pytest.approx(total, abs=1e-12)

    def test_not_in_plane(self):
        # In the bound, off the great circle: the masks tell the two apart.
        assert _unwrap_one(np.tile(DIAG, (4, 1)))[1:] == (True, False)

    def test_coarse_without_refinement(self):
        # Two turns in four steps of half a turn: the kernel flags the row
        # and leaves its refinement to the caller.
        angle, bound, in_plane = _unwrap_one(_circle(EZ, 4.0 * np.pi, EX)(np.linspace(0, 1, 5)))
        assert (bound, in_plane) == (False, True)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), k=st.integers(2, 40),
           turn=st.floats(0.0, 2.0))
    def test_stack_equals_path_by_path(self, seed, n, k, turn):
        # Rows with steps up to 2 rad around a random axis, one of them
        # lifted off the great circle: every row in both masks unwraps to
        # the bits of the path-by-path reference, and the masks are the
        # rows that the reference, with nothing to bisect with, refuses.
        rng = np.random.default_rng(seed)
        axis = random_rotation(rng) @ EZ
        start = normalized_rows(cross(axis, rng.normal(size=3)))
        angles = np.cumsum(rng.uniform(-turn, turn, (n, k)), axis=1)
        raw = np.cos(angles)[..., None] * start + np.sin(angles)[..., None] * cross(axis, start)
        raw[0, k // 2] += 1e-6 * axis
        xi, bound, in_plane = unwrap_rotation_angle(normalized_rows(raw), normalized(axis))
        for row, angle, fits, flat in zip(raw, xi, bound, in_plane):
            if fits and flat:
                assert reference_unwrap(row, axis) == angle
            else:
                match = "great circle" if fits else "bisection"
                with pytest.raises(ValueError, match=match):
                    reference_unwrap(row, axis)


def _loop_refuses(triangles) -> bool:
    """The closed-and-oriented rule as a directed-edge count loop."""
    directed = {}
    for tri in triangles:
        i, j, k = (int(x) for x in tri)
        if len({i, j, k}) != 3:
            return True
        for e in ((i, j), (j, k), (k, i)):
            directed[e] = directed.get(e, 0) + 1
    return any(n != 1 or directed.get((j, i), 0) != 1 for (i, j), n in directed.items())


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
        with pytest.raises(errors.ResolutionTooCoarse, match="once per direction"):
            mesh_degree(ImageMesh(mesh.triangles[:-1], mesh.images))

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_check_matches_the_edge_count_loop(self, seed):
        # Random edits of a closed mesh; the check must decide as the
        # directed-edge count loop it replaced.
        rng = np.random.default_rng(seed)
        tris = polar_sphere_mesh(4, 5).triangles.copy()
        for _ in range(3):
            i = rng.integers(len(tris))
            edit = rng.integers(4)
            if edit == 0:
                tris = np.delete(tris, i, axis=0)
            elif edit == 1:
                tris = np.concatenate([tris, tris[i:i + 1]])
            elif edit == 2:
                tris[i] = tris[i, ::-1]
            else:
                tris[i, rng.integers(3)] = rng.integers(tris.max() + 1)
            if _loop_refuses(tris):
                with pytest.raises(errors.ResolutionTooCoarse,
                                   match="repeated vertex|once per direction"):
                    _check_closed_oriented(tris)
            else:
                _check_closed_oriented(tris)

    @pytest.mark.parametrize("defect", ["repeated_vertex", "missing", "duplicated",
                                        "reversed"])
    def test_defective_triangulations_rejected(self, defect):
        mesh = icosahedron_mesh()
        tris = mesh.triangles.copy()
        if defect == "repeated_vertex":
            tris[4, 2] = tris[4, 0]
        elif defect == "missing":
            tris = np.delete(tris, 7, axis=0)
        elif defect == "duplicated":
            tris = np.concatenate([tris, tris[:1]])
        else:
            tris[3] = tris[3, ::-1]
        with pytest.raises(errors.ResolutionTooCoarse, match="repeated vertex" if defect ==
                           "repeated_vertex" else "once per direction"):
            mesh_degree(ImageMesh(tris, mesh.images))
