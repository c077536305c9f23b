import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo import fields as fields_mod
from tangent_topo.fields import (
    CLEAVED,
    MAX_DEPTH,
    TOL_CONTINUITY,
    TOL_TANGENCY,
    TRUNCATED,
    AnalyticField,
    FaceGrid,
    SampledField,
    _boundary_ring,
    _curve_key,
    _grid_axes,
    _grid_dots,
    _grid_triangles,
    _seam_rows,
    antipodal,
    face_grid,
    grid_nodes,
    sample_field,
    save_field,
    validate_tangency,
)
from tangent_topo.invariants import s_margin
from tangent_topo.sphere import normalized, triangle_areas, unwrap_rotation_angle

from helpers import (
    constant_field,
    decode_vectors,
    encode_vectors,
    grid_pass,
    pentagonal_pyramid,
    reference_field_text,
    reference_trace,
    seam_turned_field,
)


def _grid_step_bound_ok(grid):
    # The quarter-turn check of a bare (R + 1, K, 3) grid.
    return fields_mod._within_quarter_turn(*_grid_dots(grid))


@pytest.fixture(scope="module")
def cube_case(cube_phat):
    inv = tt.random_admissible_invariants(cube_phat, seed=2)
    adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
    return inv, tt.representative_boundary(adm, cube_phat)


class TestValidateTangency:
    def test_representative_is_tangent(self, cube_case):
        _, field = cube_case
        report = validate_tangency(field)
        assert report.worst_normal_dot < 1e-12
        assert report.worst_edge_misalignment < 1e-12
        assert report.worst_continuity < 1e-12
        assert report.ok

    def test_orthogonal_constant_passes_one_face(self, cube_phat):
        # ez is tangent to every x- and y-normal face of the cube
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        report = validate_tangency(field)
        x_faces = [c for c, n in enumerate(cube_phat.parent.face_normals)
                   if abs(abs(n[0]) - 1.0) < 1e-12]
        for c in x_faces:
            assert report.face_normal_dots[c] == 0.0

    def test_normal_constant_fails(self, cube_phat):
        field = constant_field(cube_phat, [1.0, 0.0, 0.0])
        report = validate_tangency(field)
        x_faces = [c for c, n in enumerate(cube_phat.parent.face_normals)
                   if abs(abs(n[0]) - 1.0) < 1e-12]
        for c in x_faces:
            assert report.face_normal_dots[c] == pytest.approx(1.0)
        assert not report.ok

    def test_corner_face_off_its_trimmed_face_on_one_cleaved_edge(self, cube_case):
        _, field = cube_case
        phat = field.host
        good = validate_tangency(field)
        a, c = sorted(phat.cleaved_edges)[3]
        bent = _bent_on_side(field, (CLEAVED, a), "cleaved", (a, c))
        report = validate_tangency(bent)
        assert report.worst_continuity > TOL_CONTINUITY
        assert not report.ok
        # The trimmed faces, and so tangency and the edges, are untouched.
        assert report.face_normal_dots == good.face_normal_dots
        assert report.edge_misalignment == good.edge_misalignment
        # Side 1 of the seam is the corner face: only (a, c) disagrees.
        t = np.linspace(0.0, 1.0, 17)
        rings = {key: _boundary_ring(bent, key, t) for key in phat.face_keys()}
        gaps = {ac: np.max(np.linalg.norm(np.subtract(*_seam_rows(
            bent, rings, ("cleaved", ac))), axis=1)) for ac in phat.cleaved_edges}
        assert [ac for ac, gap in gaps.items() if gap > TOL_CONTINUITY] == [(a, c)]

    def test_two_faces_of_a_truncated_edge_disagree(self, cube_case):
        _, field = cube_case
        phat = field.host
        good = validate_tangency(field)
        b = 5
        face = int(phat.parent.edge_faces[b, 0])
        report = validate_tangency(_bent_on_side(field, (TRUNCATED, face), "edge", b))
        assert report.edge_misalignment[b] > TOL_TANGENCY
        assert {e for e, mis in report.edge_misalignment.items()
                if mis != good.edge_misalignment[e]} == {b}
        assert report.worst_normal_dot < 1e-12  # rotated within the face plane
        assert not report.ok

    def test_sampled_seam_read_at_every_stored_node(self, cube_phat):
        # A corner-face boundary node between the 17 samples per side of a
        # depth-4 read: only a read at every stored node sees the seam break.
        field = seam_turned_field(cube_phat)
        t = np.linspace(0.0, 1.0, 17)
        rings = {key: _boundary_ring(field, key, t) for key in cube_phat.face_keys()}
        assert all(np.max(np.linalg.norm(np.subtract(*_seam_rows(
            field, rings, ("cleaved", ac))), axis=1)) <= TOL_CONTINUITY
            for ac in cube_phat.cleaved_edges)
        report = validate_tangency(field)
        assert not report.ok
        assert report.worst_continuity == pytest.approx(2.0 * np.sin(0.3), rel=1e-9)
        assert report.worst_normal_dot < 1e-12 and report.worst_edge_misalignment < 1e-12


def _bent_on_side(field: AnalyticField, key, kind: str, ident,
                  angle: float = 0.1) -> AnalyticField:
    """``field`` with its values on face ``key`` turned about the face's
    outward normal by ``angle`` sin(pi u) on the side ``(kind, ident)``, u
    the fraction along it, and unchanged elsewhere: in-plane values stay
    in-plane, and the values at the side's ends stay put."""
    chart = field.charts[key]
    side = chart.segment_index(kind, ident)
    phat, idx = field.host, key[1]
    axis = phat.face_normal(idx) if key[0] == TRUNCATED else phat.spec.normals[idx]

    def evaluator(k, rho, phi):
        vals = field.evaluator(k, rho, phi)
        if k != key:
            return vals
        seg, u = chart.segment_position(phi)
        psi = np.where(seg == side, angle * np.sin(np.pi * u), 0.0)
        psi = np.broadcast_to(psi, vals.shape[:-1])[..., None]
        dot = (vals @ axis)[..., None]
        return (np.cos(psi) * vals + np.sin(psi) * np.cross(axis, vals)
                + (1.0 - np.cos(psi)) * dot * axis)

    return AnalyticField(host=field.host, charts=field.charts, evaluator=evaluator)


class TestAntipodal:
    def test_involution(self, cube_case):
        _, field = cube_case
        twice = antipodal(antipodal(field))
        rho = np.linspace(0.01, 0.99, 7)
        phi = np.linspace(0.0, 2 * np.pi, 7)
        for key in field.host.face_keys():
            assert np.allclose(twice.evaluate(key, rho, phi),
                               field.evaluate(key, rho, phi))

    def test_negates_edge_values(self, cube_case):
        _, field = cube_case
        eps = tt.extract_edge_orientations(field)
        eps_anti = tt.extract_edge_orientations(antipodal(field))
        assert np.array_equal(eps_anti, -eps)


def _row_angle(row, axis) -> float:
    # The rotation angle of one in-plane row, unwrapped by the kernel.
    angle, bound, in_plane = unwrap_rotation_angle(row[None], normalized(axis))
    assert bound[0] and in_plane[0]
    return float(angle[0])


class TestBoundaryTrace:
    def test_truncated_edge_constant(self, cube_case):
        _, field = cube_case
        rings = {key: _boundary_ring(field, key, np.linspace(0.0, 1.0, 17))
                 for key in field.host.face_keys()}
        for row in _seam_rows(field, rings, ("edge", 0)):
            assert np.max(np.linalg.norm(row - row[0], axis=1)) < 1e-12

    def test_kinked_edge_winds_past_eta(self, cube_phat):
        inv = tt.random_admissible_invariants(cube_phat, seed=9)
        target = next(k for k, v in inv.kink_numbers.items() if v != 0)
        adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        a, c = target
        key = (TRUNCATED, c)
        chart = field.charts[key]
        span = chart.segment_span(chart.segment_index("cleaved", (a, c)))
        row = _boundary_ring(field, key, np.linspace(0.0, 1.0, 129), [span])[0]
        assert abs(_row_angle(row, cube_phat.face_normal(c))) > np.pi  # beyond the minimal arc

    def test_face_boundary_concatenates_segments(self, cube_case):
        _, field = cube_case
        key = (TRUNCATED, 0)
        axis = field.host.face_normal(0)
        whole = _boundary_ring(field, key, np.linspace(0.0, 1.0, 257), [(0.0, 2.0 * np.pi)])[0]
        total = _row_angle(whole, axis)
        rings = {k: _boundary_ring(field, k, np.linspace(0.0, 1.0, 65))
                 for k in field.host.face_keys()}
        parts = 0.0
        for seg in field.charts[key].segments:
            curve = ("cleaved", seg.key) if seg.kind == "cleaved" else ("edge", seg.key)
            side = [_curve_key(field.host, curve, k) for k in (0, 1)].index(key)
            # A segment the chart runs backward is read in its stored direction.
            angle = _row_angle(_seam_rows(field, rings, curve)[side], axis)
            parts += angle if seg.forward else -angle
        assert total == pytest.approx(parts, abs=1e-9)
        assert total == pytest.approx(0.0, abs=1e-9)  # winding-free loop


class TestSampledFields:
    def test_sampled_converges_to_analytic(self, cube_case):
        _, field = cube_case
        rng = np.random.default_rng(0)
        worst = {}
        for depth in (5, 7):
            sampled = sample_field(field, depth)
            dev = 0.0
            for key in field.host.face_keys():
                rho = rng.uniform(0.0, 1.0, 40)
                phi = rng.uniform(0.0, 2.0 * np.pi, 40)
                a = field.evaluate(key, rho, phi)
                b = sampled.evaluate(key, rho, phi)
                dev = max(dev, float(np.max(np.linalg.norm(a - b, axis=1))))
            worst[depth] = dev
        assert worst[5] < 0.25
        # geodesic interpolation is second order: two extra levels cut
        # the error by roughly sixteen
        assert worst[7] < worst[5] / 8.0

    def test_sampled_keeps_tangency(self, cube_case):
        _, field = cube_case
        report = validate_tangency(sample_field(field, 4))
        assert report.worst_normal_dot < 1e-12
        assert report.ok

    def test_file_round_trip(self, cube_case, tmp_path):
        _, field = cube_case
        path = tmp_path / "field.json"
        sampled = sample_field(field, 4)
        tt.save_field(sampled, path)
        loaded, diag = tt.load_field(path)
        assert diag.ok
        for key in field.host.face_keys():
            assert np.allclose(loaded.values[key], sampled.values[key], atol=1e-15)

    def test_analytic_field_is_refused_before_the_file_is_opened(self, cube_case, tmp_path):
        # save_field writes a SampledField only, and reads its grids first.
        path = tmp_path / "field.json"
        with pytest.raises(AttributeError):
            tt.save_field(cube_case[1], path)
        assert not path.exists()

    def test_loader_renormalizes(self, cube_case, tmp_path):
        _, field = cube_case
        doc = reference_field_text(sample_field(field, 4))[0]
        doc["faces"][0]["vectors"] = encode_vectors(2.0 * decode_vectors(doc["faces"][0]["vectors"]))
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(doc))
        loaded, diag = tt.load_field(path)
        key = (doc["faces"][0]["kind"], doc["faces"][0]["index"])
        norms = np.linalg.norm(loaded.values[key].reshape(-1, 3), axis=1)
        assert np.allclose(norms, 1.0)

    def test_undersampled_grid_rejected(self, cube_phat):
        inv = tt.random_admissible_invariants(cube_phat, seed=9)
        assert max(abs(k) for k in inv.kink_numbers.values()) >= 3
        adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        coarse = {key: face_grid(field, key, 3) for key in cube_phat.face_keys()}
        with pytest.raises(errors.ResolutionTooCoarse, match="neighbors a quarter turn"):
            SampledField(host=cube_phat, charts=field.charts, values=coarse)
        # per-face refinement rescues the same request
        sampled = sample_field(field, 4)
        assert all(g.shape[0] >= 17 for g in sampled.values.values())

    def test_refines_up_to_the_extraction_depth_cap(self):
        # A reference direction at the margin floor of choose_reference_s
        # (cube, fraction 0.15): corner faces need depth 8 to resolve,
        # four levels past the requested 4.
        poly = tt.builtin_polyhedron("cube")
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.15))
        s = tt.choose_reference_s(phat, seed=1457523178)
        assert s_margin(phat, s) < 0.051
        inv = tt.random_admissible_invariants(phat, seed=0, s=s)
        adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
        sampled = sample_field(tt.representative_boundary(adm, phat), 4)
        # Level d has 2**d samples per side on every ring.
        samples = max(g.shape[1] // phat.charts[key].n_segments
                      for key, g in sampled.values.items())
        assert 2 ** (4 + 3) < samples <= 2 ** MAX_DEPTH

    @pytest.mark.parametrize("solid, seed, wraps, depths", [
        ("tetrahedron", 3, (0, 0, 0, 0), (0, 1, 2, 3)),  # the CLI tests' field file
        ("cube", 2, None, (0, 1, 2, 3)),
    ])
    def test_every_level_doubles_the_samples(self, tetra_phat, cube_phat, solid, seed, wraps,
                                             depths):
        # Levels that doubled only the rings kept corner face 1 of the
        # tetrahedron set at 12 samples per ring, where its boundary
        # turns whole turns between nodes and the seams read 2.0 apart.
        # The whole depth-0 grid, 3 samples per ring, aliases the same way
        # on its faces 1 and 2, so depth 0 samples from depth 1.
        phat = {"tetrahedron": tetra_phat, "cube": cube_phat}[solid]
        inv = tt.random_admissible_invariants(phat, seed=seed, wrap_override=wraps)
        field = tt.representative_boundary(tt.AdmissibleInvariants.from_invariants(inv, phat),
                                           phat)
        for depth in depths:
            sampled = sample_field(field, depth)
            for key, g in sampled.values.items():
                level = (g.shape[1] // field.charts[key].n_segments).bit_length() - 1
                assert g.shape[1] == field.charts[key].n_segments * 2 ** level
                assert level >= depth and 2 ** depth <= g.shape[0] - 1 <= 2 ** level
            assert validate_tangency(sampled).ok

    def test_takes_each_levels_neighbor_dots_once(self, cube_phat, monkeypatch):
        # The step bound of every level sample_field evaluates is checked
        # once, and the SampledField it returns checks each of its grids
        # once more, as every SampledField does when it is built.
        inv = tt.random_admissible_invariants(cube_phat, seed=9)
        field = tt.representative_boundary(
            tt.AdmissibleInvariants.from_invariants(inv, cube_phat), cube_phat)
        levels, passes = [], []
        evaluate, kernel = AnalyticField.evaluate, fields_mod._level_pass

        def tracking(self, key, rho, phi):
            levels.append((np.size(rho), np.size(phi) + 1))
            return evaluate(self, key, rho, phi)

        def counting(planes, widths, s=None, sums=True):
            # The dots alone, of one grid: no area sum and no cap.
            assert s is None and not sums and len(widths) == 1
            passes.append(planes.shape[1:])
            return kernel(planes, widths, s, sums)

        monkeypatch.setattr(AnalyticField, "evaluate", tracking)
        monkeypatch.setattr(fields_mod, "_level_pass", counting)
        sampled = sample_field(field, 3)
        assert len(levels) > len(cube_phat.face_keys()) == len(sampled.values)
        assert passes == levels + [(g.shape[0], g.shape[1] + 1)
                                   for g in sampled.values.values()]

    def test_mesh_export(self, cube_case, tmp_path):
        _, field = cube_case
        path = tmp_path / "mesh.obj"
        tt.save_mesh_obj(field, path, depth=2)
        lines = path.read_text().splitlines()
        n_v = sum(1 for ln in lines if ln.startswith("v "))
        n_vn = sum(1 for ln in lines if ln.startswith("vn "))
        n_f = sum(1 for ln in lines if ln.startswith("f "))
        assert n_v == n_vn > 0
        assert n_f > 0
        for ln in lines:
            if ln.startswith("f "):
                refs = [int(part.split("//")[0]) for part in ln.split()[1:]]
                assert all(1 <= r <= n_v for r in refs)


def _reference_area_sum(grid):
    """The image-area sum through gathered triangles, as the kernel's
    reference."""
    if not _grid_step_bound_ok(grid):
        return None
    flat = grid.reshape(-1, 3)
    tris = _grid_triangles(grid.shape[0] - 1, grid.shape[1])
    areas, valid = triangle_areas(flat[tris[:, 0]], flat[tris[:, 1]], flat[tris[:, 2]])
    return float(np.sum(areas)) if valid.all() else None


@st.composite
def unit_grids(draw):
    R = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    base = draw(arrays(float, 3, elements=unit))
    noise = draw(arrays(float, (R + 1, K, 3), elements=unit))
    grid = base + draw(st.sampled_from([0.05, 0.3, 1.0, 3.0])) * noise
    norms = np.linalg.norm(grid, axis=-1, keepdims=True)
    assume(np.all(norms > 1e-6))
    return grid / norms


# Cell (0, 0) of this grid has c00 and c11 antipodal, while every
# radial and around-the-ring neighbor pair is less than a quarter turn
# apart: the quarter-turn check passes and a triangle is invalid.
_TILT = np.array([5e-15, 1.0, 0.0]) / np.linalg.norm([5e-15, 1.0, 0.0])
ANTIPODAL_TRIANGLE = np.array([
    [[1.0, 0.0, 0.0], _TILT],
    [_TILT, [-1.0, 1e-14, 0.0]],
])
# The same cell in the second row and the second column of cells, below
# a row of cells with zero area (a repeated ring).
LATE_ANTIPODAL = np.roll(ANTIPODAL_TRIANGLE[[0, 0, 1]], 1, axis=1)
# Neighbors a quarter turn apart, and the first triangle straddles a
# hemisphere: three points of one great circle that wrap it.
STRADDLING = np.array([
    [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
    [[1.0, 0.0, 0.0], [-np.sqrt(0.5), -np.sqrt(0.5), 0.0]],
])


class TestGridAreaSum:
    @settings(max_examples=300, deadline=None)
    @given(unit_grids())
    @example(ANTIPODAL_TRIANGLE)
    @example(LATE_ANTIPODAL)
    @example(STRADDLING)
    @example(-ANTIPODAL_TRIANGLE[:, ::-1])
    def test_equals_the_gathered_triangle_sum(self, grid):
        expected = _reference_area_sum(grid)
        # In one band of rows, and in bands of one row each, so an
        # invalid triangle can sit in a later band.
        for band_entries in (fields_mod.BAND_ENTRIES, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields_mod, "BAND_ENTRIES", band_entries)
                got = grid_pass(grid)[2]
            if expected is None:
                assert got is None
            else:
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("R", [37, 129])
    @pytest.mark.parametrize("band_rows", [None, 10])
    def test_grids_taller_than_one_band(self, R, band_rows, monkeypatch):
        K = 384
        if band_rows is not None:
            monkeypatch.setattr(fields_mod, "BAND_ENTRIES", band_rows * K)
        bands = fields_mod._bands(R, K)
        # Several bands, the last one shorter than the others.
        assert len(bands) > 1 and bands[-1][1] - bands[-1][0] < bands[0][1]
        rho, phi = np.meshgrid(np.linspace(0.0, 1.0, R + 1), np.arange(K) * (2 * np.pi / K),
                               indexing="ij")
        lat = rho * (0.2 + 0.4 * np.sin(3.0 * phi))
        lon = phi + 0.3 * rho * np.cos(2.0 * phi)
        grid = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)],
                        axis=-1)
        expected = _reference_area_sum(grid)
        assert expected is not None
        got = grid_pass(grid)[2]
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_refuses_an_antipodal_triangle_of_a_resolved_grid(self):
        for grid in (ANTIPODAL_TRIANGLE, LATE_ANTIPODAL):
            assert _grid_step_bound_ok(grid)
            assert grid_pass(grid)[2] is None

    def test_equals_the_gathered_sum_on_representative_grids(self, cube_case):
        # Larger than the drawn grids, so np.sum splits the areas into
        # pairwise blocks; the order of the areas must match there too.
        _, field = cube_case
        for a in range(8):
            for depth in (2, 5):
                grid = face_grid(field, (CLEAVED, a), depth)
                got = grid_pass(grid)[2]
                assert got == _reference_area_sum(grid)


@pytest.fixture(scope="module")
def solid_fields(cube_phat, tetra_phat, octa_phat):
    """A representative field of each builtin solid, analytic and sampled."""
    out = []
    for phat, wraps in ((cube_phat, (1, -1, 2, -2, 0, 0, 0, 0)),
                        (tetra_phat, (1, -1, 0, 0)),
                        (octa_phat, (1, -1, 0, 0, 0, 0))):
        inv = tt.random_admissible_invariants(phat, seed=4, wrap_override=wraps)
        adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
        field = tt.representative_boundary(adm, phat)
        out += [field, sample_field(field, 2)]
    return out


def _next_columns(cols, split, M):
    """The column positions of the next level, in a sorted list: each
    position of ``cols`` (at resolution M) doubled, and the midpoint of
    each interval that ``split`` marks, the last one ending at M."""
    ends = list(cols[1:]) + [M]
    return sorted([2 * int(c) for c in cols]
                  + [int(c + e) for c, e, cut in zip(cols, ends, split) if cut])


def _ruled_round(grid, depth):
    """The round from a FaceGrid level by the refinement rule, restated on
    the level's values: R doubles and every interval splits where a
    radial step breaks the quarter-turn bound, or the bound holds and the
    area sum is invalid; otherwise the intervals split in which some ring
    breaks the bound, or all of them when none does."""
    values = grid.values(depth)
    radial = np.einsum("ijk,ijk->ij", values[:-1], values[1:])
    around = np.einsum("ijk,ijk->ij", values, np.roll(values, -1, axis=1))
    broken = (around <= 0.0).any(axis=0)
    if radial.min() <= 0.0 or (not broken.any() and grid.area_sum(depth) is None):
        return True, np.ones_like(broken)
    return False, broken if broken.any() else ~broken


class TestFaceGrid:
    @staticmethod
    def _check_level(field, grid, depth):
        # A level is the whole grid of its own axes: R + 1 rings of
        # linspace, and the depth-``depth`` angles of today's uniform grid
        # at its columns, bit for bit.
        key = grid.key
        R = grid.planes(depth).shape[1] - 1
        M = field.charts[key].n_segments * 2 ** depth
        phi = grid._phi(depth)
        assert phi.tobytes() == _grid_axes(R, M)[1][grid._cols[depth]].tobytes()
        whole = field.evaluate(key, np.linspace(0.0, 1.0, R + 1)[:, None], phi)
        assert grid.values(depth).tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, 5), face=st.integers(0, 13), start=st.integers(0, 4),
           rounds=st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 32 - 1),
                                     st.sampled_from([0.0, 0.2, 0.7, 1.0])),
                           min_size=1, max_size=3),
           stepwise=st.booleans())
    def test_nested_grid_is_the_evaluated_grid(self, solid_fields, which, face, start,
                                               rounds, stepwise):
        # Any sequence of rounds that double R or not and split any
        # nonempty set of intervals, taken one level per call or several
        # at once.
        field = solid_fields[which]
        keys = field.host.face_keys()
        key = keys[face % len(keys)]
        m = field.charts[key].n_segments
        grid, script, taken = FaceGrid(field, key), list(rounds), []

        def scripted(self, depth):
            doubles, seed, share = script.pop(0)
            rng = np.random.default_rng(seed)
            split = rng.random(self.planes(depth).shape[2] - 1) < share
            split[rng.integers(split.size)] = True
            taken.append((doubles, split))
            return doubles, split

        blocks = []
        inner = type(field).evaluate
        top = start + len(rounds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FaceGrid, "_round", scripted)
            mp.setattr(type(field), "evaluate", lambda self, k, rho, phi: (
                blocks.append(rho.size * phi.size) or inner(self, k, rho, phi)))
            for depth in range(start, top + 1) if stepwise else (start, top):
                grid.values(depth)
        assert script == []
        # The first level is whole; each round evaluates the R + 1 held
        # rings at the midpoints of its split intervals, after the R odd
        # rings whole if it doubles R.
        R = 2 ** start
        expected = [(R + 1) * m * R]
        for depth, (doubles, split) in enumerate(taken, start):
            K, n = grid.planes(depth + 1).shape[2] - 1, int(split.sum())
            assert K == split.size + n
            assert grid._cols[depth + 1].tolist() == _next_columns(
                grid._cols[depth], split, m * 2 ** depth)
            expected += [R * K] * doubles + [(R + 1) * n]
            R *= 2 if doubles else 1
            assert grid.planes(depth + 1).shape[1] == R + 1
        assert blocks == expected
        for depth in range(start, top + 1):
            self._check_level(field, grid, depth)
        # Each level is built once: the planes are held, the rows copied.
        assert grid.planes(top) is grid.planes(top)
        # The first level is face_grid; no level is held below it.
        assert grid.values(start).tobytes() == face_grid(field, key, start).tobytes()
        if start:
            with pytest.raises(ValueError):
                grid.planes(start - 1)

    def test_each_round_follows_the_rule(self, cube_phat):
        # A disk that turns 3 pi radially, whose boundary image makes a
        # half turn inside phi in [1, 1.1] and turns back over the rest:
        # radial steps break the quarter-turn bound up to R = 4, where R
        # doubles and every interval splits; then rounds split only the
        # intervals around the half turn, and every interval past a
        # resolved level.  Each round evaluates (R + 1) nodes per split
        # interval, and R K more where R doubles.
        def evaluator(key, rho, phi):
            t = np.interp(phi, [0.0, 1.0, 1.1, 2.0 * np.pi], [0.0, 0.0, np.pi, 0.0])
            lat = 3.0 * np.pi * rho
            return np.stack(np.broadcast_arrays(np.cos(lat) * np.cos(t),
                                                np.cos(lat) * np.sin(t), np.sin(lat)), axis=-1)

        sizes = []
        field = AnalyticField(host=cube_phat, charts=cube_phat.charts, evaluator=lambda *a: (
            sizes.append(np.broadcast(a[1], a[2]).size) or evaluator(*a)))
        grid = FaceGrid(field, (CLEAVED, 0))
        grid.values(0)
        branches = []
        for depth in range(8):
            R, K = (n - 1 for n in grid.planes(depth).shape[1:])
            doubles, split = _ruled_round(grid, depth)
            sizes.clear()
            grid.values(depth + 1)
            R1, K1 = (n - 1 for n in grid.planes(depth + 1).shape[1:])
            assert (R1, K1) == ((2 if doubles else 1) * R, K + split.sum())
            assert grid._cols[depth + 1].tolist() == _next_columns(grid._cols[depth], split,
                                                                   3 * 2 ** depth)
            assert sum(sizes) == (R * K1 if doubles else 0) + (R + 1) * split.sum()
            self._check_level(field, grid, depth + 1)
            branches.append("R" if doubles else "all" if split.all() else "some")
        assert branches == ["R", "R", "R", "all", "some", "some", "all", "all"]
        assert [grid._cols[5].size, grid._cols[6].size] == [49, 50]

    def test_rings_double_where_a_radial_step_fails(self, cube_phat, monkeypatch):
        # Constant around each ring, turning 3 pi radially: radial dots
        # cos(3 pi / R) are <= 0 up to R = 4, and rings double up to 8.
        # No ring breaks the quarter-turn bound, so every round splits
        # every interval.
        def evaluator(key, rho, phi):
            turn = 3.0 * np.pi * rho + 0.0 * phi
            return np.stack([np.cos(turn), np.sin(turn), np.zeros_like(turn)], axis=-1)

        field = AnalyticField(host=cube_phat, charts=cube_phat.charts, evaluator=evaluator)
        key = (CLEAVED, 0)
        grid = FaceGrid(field, key)
        assert [grid.planes(d).shape[1] - 1 for d in range(6)] == [1, 2, 4, 8, 8, 8]
        assert [grid.planes(d).shape[2] - 1 for d in range(6)] == [3 * 2 ** d for d in range(6)]
        # A level that passes the quarter-turn bound with an invalid area
        # sum doubles the rings too.
        kernel = fields_mod._level_pass
        monkeypatch.setattr(fields_mod, "_level_pass", lambda *args: [
            (radial, around, None, top, cap) for radial, around, _, top, cap in kernel(*args)])
        grid = FaceGrid(field, key)
        grid.planes(3)
        assert grid.resolved(3) and grid.area_sum(3) is None
        assert grid.planes(4).shape[1:] == (17, 3 * 16 + 1)

    def test_evaluates_every_node_once(self, cube_case):
        _, field = cube_case
        calls = []

        def evaluator(key, rho, phi):
            calls.append(np.broadcast(rho, phi).size)
            return field.evaluator(key, rho, phi)

        counted = AnalyticField(host=field.host, charts=field.charts, evaluator=evaluator)
        grid = FaceGrid(counted, (CLEAVED, 0))
        nodes = []
        for depth in (3, 4, 5):
            calls.clear()
            grid.values(depth)
            nodes.append(sum(calls))
        # (R + 1) K nodes with K = 3 2**depth on a triangle at depth 3,
        # which is whole, R = 8; depth 4 splits the one interval that
        # breaks the quarter-turn bound, and depth 5, over a resolved
        # level, every interval: (R + 1) nodes per split interval.
        assert [grid.planes(d).shape[1:] for d in (3, 4, 5)] == [(9, 25), (9, 26), (9, 51)]
        assert nodes == [9 * 24, 9 * 1, 9 * 25]
        assert not grid.resolved(3) and grid.resolved(4)
        whole = field.evaluate((CLEAVED, 0), np.linspace(0.0, 1.0, 9)[:, None], grid._phi(5))
        assert grid.area_sum(5) == grid_pass(whole)[2]
        # One neighbor-dot triple per depth, which the step-bound check reads too.
        assert grid.neighbor_dots(5) is grid.neighbor_dots(5)
        assert grid.resolved(5) == _grid_step_bound_ok(grid.values(5))

    @pytest.mark.parametrize("key", [(CLEAVED, 0), ("truncated", 0)])
    def test_each_grid_block_is_one_evaluate_call(self, cube_case, monkeypatch, key):
        # The benchmark's fields.evaluate.analytic.points counter (see
        # bench/spans.py) reads the broadcast size of each evaluate call,
        # so grid blocks must reach it whole, one call per block.
        _, field = cube_case
        sizes = []
        evaluate = AnalyticField.evaluate

        def counted(self, face, rho, phi):
            sizes.append(np.broadcast(np.atleast_1d(rho), np.atleast_1d(phi)).size)
            return evaluate(self, face, rho, phi)

        monkeypatch.setattr(AnalyticField, "evaluate", counted)
        m = field.charts[key].n_segments
        face_grid(field, key, 3)
        assert sizes == [9 * 8 * m]
        sizes.clear()
        grid = FaceGrid(field, key)
        grid.values(2)
        grid.values(4)
        # Depth 2 whole; depth 3 doubles R and splits every interval: the
        # odd rings whole, then the even rings at the midpoints; depth 4
        # splits the n intervals of depth 3 that break the quarter-turn
        # bound, or all of them: every ring at their midpoints.
        assert [grid.planes(d).shape[1] - 1 for d in (2, 3, 4)] == [4, 8, 8]
        n = grid.planes(4).shape[2] - 1 - 8 * m
        assert n == _ruled_round(grid, 3)[1].sum()
        assert sizes == [5 * 4 * m, 4 * 8 * m, 5 * 4 * m, 9 * n]


@pytest.fixture(scope="module")
def block_fields(cube_phat, tetra_phat, octa_phat):
    """A representative field of each builtin solid and of the pentagonal
    pyramid, each followed by its antipodal field."""
    poly = pentagonal_pyramid()
    pyramid = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
    out = []
    for phat, seed in ((cube_phat, 4), (tetra_phat, 1), (octa_phat, 2), (pyramid, 3)):
        inv = tt.random_admissible_invariants(phat, seed=seed)
        field = tt.representative_boundary(
            tt.AdmissibleInvariants.from_invariants(inv, phat), phat)
        out += [field, antipodal(field)]
    return out


RING_SETS = [[0.0], [0.5], [1.0], [0.0, 0.5, 1.0], [0.25, 0.5, 0.75],
             [0.5 - 2.0 ** -53, 0.5], [0.375, 0.625, 1.0], [0.0, 0.125, 0.25]]


class TestGridBlocks:
    """A grid block, rings ``rho[:, None]`` against angles ``phi`` in one
    call, is bit for bit the scattered evaluation at its nodes."""

    @settings(max_examples=120, deadline=None)
    @given(which=st.integers(0, 7), cleaved=st.booleans(), face=st.integers(0, 13),
           rho=st.one_of(st.sampled_from(RING_SETS),
                         st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)),
           grid_angles=st.integers(0, 3),
           phi=st.lists(st.floats(-7.0, 14.0), min_size=1, max_size=8))
    def test_block_equals_scattered_nodes(self, block_fields, which, cleaved, face,
                                          rho, grid_angles, phi):
        field = block_fields[which]
        keys = [k for k in field.host.face_keys() if (k[0] == CLEAVED) == cleaved]
        key = keys[face % len(keys)]
        rho = np.asarray(rho)
        if grid_angles:
            # The angles of a grid, corners and segment ends included.
            m = field.charts[key].n_segments
            phi = np.arange(m * 2 ** grid_angles) * (2.0 * np.pi / (m * 2 ** grid_angles))
        phi = np.asarray(phi)
        block = field.evaluate(key, rho[:, None], phi)
        rr, pp = np.meshgrid(rho, phi, indexing="ij")
        scattered = field.evaluate(key, rr.ravel(), pp.ravel())
        assert block.shape == (rho.size, phi.size, 3)
        # The block is a moved-axis view of contiguous x, y, z planes,
        # which FaceGrid copies into its own planes plane by plane.
        assert np.moveaxis(block, -1, 0).flags.c_contiguous
        assert block.tobytes() == scattered.tobytes()
        # Any broadcasting pair gives the same values, here two 2-D arrays.
        assert field.evaluate(key, rr, pp).tobytes() == block.tobytes()

    def test_face_grids_equal_scattered_nodes(self, block_fields):
        for field in block_fields:
            for key in field.host.face_keys():
                R = 4
                K = field.charts[key].n_segments * R
                scattered = field.evaluate(key, *grid_nodes(R, K))
                assert face_grid(field, key, 2).tobytes() == scattered.tobytes()


class TestCornerBatches:
    """The blocks of several corner faces in one ``evaluate`` call, and
    levels built in lockstep, are bit for bit each face's own."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_batched_blocks_equal_each_face_alone(self, block_fields, mixed):
        # All blocks on the same rings (laid side by side against them), or
        # on other rings as well (point by point).
        for field in block_fields:
            rho = np.linspace(0.0, 1.0, 17)[:, None]
            faces = []
            for a in range(len(field.host.cleaved_faces)):
                M = 16 * field.charts[(CLEAVED, a)].n_segments
                phi = np.arange(M) * (2.0 * np.pi / M)
                blocks = [(rho, phi)] + [(rho[1::2], phi[a % 3::3])] * mixed
                faces.append((FaceGrid(field, (CLEAVED, a)), blocks, None))
            batch = fields_mod._corner_batch(faces)
            for (grid, blocks, _), values in zip(faces, batch):
                for (rr, pp), block in zip(blocks, values):
                    assert np.array_equal(block, field.evaluate(grid.key, rr, pp))

    def test_lockstep_levels_equal_one_grid_alone(self, block_fields):
        for field in block_fields:
            keys = [(CLEAVED, a) for a in range(len(field.host.cleaved_faces))]
            grids = [FaceGrid(field, key) for key in keys]
            for depth in range(2, 6):
                fields_mod._build_levels(grids, depth)
                assert all(max(grid._planes) == depth for grid in grids)
            for grid in grids:
                alone = FaceGrid(field, grid.key)
                for depth in range(2, 6):
                    assert np.array_equal(grid.planes(depth), alone.planes(depth))
                    assert np.array_equal(grid._cols[depth], alone._cols[depth])

    def test_antipodal_field_batches_as_its_representative(self, octa_phat, monkeypatch):
        # The negation keeps the representative's lockstep batches: as many
        # evaluate calls, and the invariants negated against -s.
        inv = tt.random_admissible_invariants(octa_phat, seed=3)
        field = tt.representative_boundary(
            tt.AdmissibleInvariants.from_invariants(inv, octa_phat), octa_phat)
        evaluate, calls = AnalyticField.evaluate, []

        def counted(self, key, rho, phi):
            calls.append(key)
            return evaluate(self, key, rho, phi)

        monkeypatch.setattr(AnalyticField, "evaluate", counted)
        rep = tt.extract_all(field, s=inv.s, seed=0).invariants
        n_rep = len(calls)
        anti = tt.extract_all(antipodal(field), s=-inv.s, seed=0).invariants
        assert len(calls) - n_rep == n_rep
        assert np.array_equal(anti.edge_orientations, -rep.edge_orientations)
        assert anti.kink_numbers == rep.kink_numbers
        assert np.array_equal(anti.wrapping_numbers, -rep.wrapping_numbers)


def _pointwise_grid(field, key, depth, rings=None, columns=None):
    """``face_grid`` of a field through ``evaluate`` at every node, or the
    depth-``depth`` level of a FaceGrid with ``rings`` rings and the
    column positions ``columns`` of the uniform depth-``depth`` grid."""
    R = rings or 2 ** depth
    K = field.charts[key].n_segments * 2 ** depth
    rho, phi = grid_nodes(R, K)
    if columns is not None:
        keep = np.isin(np.arange(rho.size) % K, columns)
        rho, phi, K = rho[keep], phi[keep], len(columns)
    return field.evaluate(key, rho, phi).reshape(R + 1, K, 3)


class TestRowLayout:
    """Rows that reach einsum or matmul, whose sums follow the layout, are
    C-contiguous, and bit for bit the scattered evaluation: grids of
    FaceGrid at whole and refined depths, face_grid, and the face
    boundary rings that kinks, edges and tangency checks read; and the
    cap of a FaceGrid level is that of the scattered boundary ring."""

    @staticmethod
    def _check(rows, expected):
        assert rows.flags.c_contiguous
        assert rows.tobytes() == expected.tobytes()

    @staticmethod
    def _check_cap(grid, depth, ring):
        # The sum over the boundary steps (u, v, -s), gathered as rows.
        s, ring = normalized(np.array([0.3, 0.2, -1.0])), np.ascontiguousarray(ring)
        gamma, valid = triangle_areas(ring, np.roll(ring, -1, axis=0),
                                      np.broadcast_to(-s, ring.shape))
        assert valid.all() and grid.cap(depth, s)[1] == float(np.sum(gamma))

    @pytest.mark.parametrize("which", range(6))
    def test_grids_and_boundaries(self, solid_fields, which):
        # Analytic and sampled fields of each builtin solid, even entries
        # analytic: depth 1 whole, then 2 and 3 by refinement.
        field = solid_fields[which]
        for key in (next(k for k in field.host.face_keys() if k[0] == kind)
                    for kind in (CLEAVED, TRUNCATED)):
            grid = FaceGrid(field, key)
            for depth in (1, 3, 2):
                expected = _pointwise_grid(field, key, depth)
                self._check(grid.values(depth), expected)
                self._check_cap(grid, depth, expected[-1])
                self._check(face_grid(field, key, depth), expected)

    def test_refined_golden_cube_grids(self, cube_phat):
        # The golden cube report's face 2 resolves at depth 8 by refinement,
        # on the 16 rings of depth 4, and 63 of the 768 angles of the
        # uniform depth-8 grid: the 48 of depth 4 and 15 midpoints.
        inv = tt.random_admissible_invariants(cube_phat, seed=0)
        field = tt.representative_boundary(
            tt.AdmissibleInvariants.from_invariants(inv, cube_phat), cube_phat)
        report = tt.extract_all(field)
        assert report.wrapping_depths[2] == 8 and report.wrapping_grids[2] == (16, 63)
        grid = FaceGrid(field, (CLEAVED, 2))
        grid.values(4)
        grid.planes(8)
        columns = grid._cols[8]
        assert set(16 * np.arange(48)) < set(columns.tolist())
        expected = _pointwise_grid(field, (CLEAVED, 2), 8, rings=16, columns=columns)
        self._check(grid.values(8), expected)
        self._check_cap(grid, 8, expected[-1])

    @pytest.mark.parametrize("which", range(6))
    def test_curve_traces(self, solid_fields, which):
        # Seams read from the boundary rings, forward and backward, at 17
        # samples per segment and at every 8th of 129; rings read on the
        # span of one segment or of a whole face boundary, at 17 samples
        # and at their midpoints, as the refinement of a kink row reads.
        field = solid_fields[which]
        phat = field.host
        t = np.linspace(0.0, 1.0, 17)
        curves = [("cleaved", ac) for ac in sorted(phat.cleaved_edges)[:3]]
        curves += [("edge", b) for b in range(3)]
        for samples, stride in ((17, 1), (129, 8)):
            rings = {key: _boundary_ring(field, key, np.linspace(0.0, 1.0, samples))
                     for key in phat.face_keys()}
            for ring in rings.values():
                assert ring.flags.c_contiguous
            for curve in curves:
                for side, row in enumerate(_seam_rows(field, rings, curve)):
                    assert row.flags.c_contiguous
                    self._check(np.ascontiguousarray(row[::stride]),
                                reference_trace(field, curve, side, t))
        mid = 0.5 * (t[:-1] + t[1:])
        for curve in curves + [("boundary", key) for key in phat.face_keys()[:2]]:
            key, span, reverse = curve[1], (0.0, 2.0 * np.pi), False
            if curve[0] != "boundary":
                key = _curve_key(phat, curve, 0)
                seg = field.charts[key].segment_index(*curve)
                span = field.charts[key].segment_span(seg)
                reverse = not field.charts[key].segments[seg].forward
            for params in (t, mid):
                row = _boundary_ring(field, key, 1.0 - params if reverse else params, [span])[0]
                self._check(row, reference_trace(field, curve, 0, params))


class TestSampledGridPath:
    @settings(max_examples=80, deadline=None)
    @given(face=st.integers(0, 13), R=st.integers(1, 12), turns=st.integers(1, 5),
           scale=st.sampled_from([0.0, 1e-12, 0.02, 0.2]),
           depth=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_pointwise_evaluation(self, cube_phat, face, R, turns, scale,
                                         depth, seed):
        # Any stored R, not only powers of two, and K any multiple of the
        # side count; target grids both shallower and deeper than stored.
        key = cube_phat.face_keys()[face]
        charts = cube_phat.charts
        K = charts[key].n_segments * turns
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=3) + scale * rng.normal(size=(R + 1, K, 3))
        grid /= np.linalg.norm(grid, axis=-1, keepdims=True)
        assume(_grid_step_bound_ok(grid))
        sampled = SampledField(host=cube_phat, charts=charts, values={key: grid})
        assert (face_grid(sampled, key, depth).tobytes()
                == _pointwise_grid(sampled, key, depth).tobytes())

    def test_extract_all_reaches_each_node_once_through_evaluate(self, cube_case, tmp_path,
                                                               monkeypatch):
        # The bench's fields.evaluate.sampled span wraps SampledField.evaluate
        # on the class: on a loaded field, every node of every FaceGrid that
        # extract_all builds passes through it, each once, in grid blocks.
        _, field = cube_case
        path = tmp_path / "field.json"
        save_field(sample_field(field, 3), path)
        loaded = tt.load_field(path)[0]
        blocks, grids = [], []
        evaluate, init = SampledField.evaluate, FaceGrid.__init__

        def wrapped(self, key, rho, phi):
            if np.ndim(rho) == 2:  # the boundary rings are 1-D
                rr, pp = np.broadcast_arrays(rho, phi)
                blocks.extend(zip([key] * rr.size, rr.ravel(), pp.ravel()))
            return evaluate(self, key, rho, phi)

        def tracking(grid, *args):
            init(grid, *args)
            grids.append(grid)

        monkeypatch.setattr(SampledField, "evaluate", wrapped)
        monkeypatch.setattr(FaceGrid, "__init__", tracking)
        tt.extract_all(loaded, depth=4)
        monkeypatch.undo()
        nodes = []
        for grid in grids:
            top = max(grid._planes)
            rr, pp = np.meshgrid(np.linspace(0.0, 1.0, grid.planes(top).shape[1]),
                                 grid._phi(top), indexing="ij")
            nodes.extend(zip([grid.key] * rr.size, rr.ravel(), pp.ravel()))
        assert len(grids) == len(field.host.cleaved_faces)
        assert len(set(nodes)) == len(nodes) == len(blocks)
        assert sorted(blocks) == sorted(nodes)

    def test_equals_pointwise_evaluation_on_a_representative(self, cube_case):
        _, field = cube_case
        sampled = sample_field(field, 3)
        for key in field.host.face_keys():
            for depth in (1, 3, 5):
                assert (face_grid(sampled, key, depth).tobytes()
                        == _pointwise_grid(sampled, key, depth).tobytes())


class TestFieldWriter:
    def _check(self, sampled, tmp_path):
        text = reference_field_text(sampled)[1]
        path = tmp_path / "field.json"
        save_field(sampled, path)
        assert path.read_bytes() == text.encode("utf-8")

    def test_analytic_cube_field(self, cube_case, tmp_path):
        self._check(sample_field(cube_case[1], 3), tmp_path)

    def test_loaded_field_with_uneven_rings(self, cube_case, tmp_path):
        # Half again as many rings and samples as sampling needs on each
        # face: 24, 48, ... rings.
        _, field = cube_case
        values = {}
        for key, grid in sample_field(field, 4).values.items():
            R = (grid.shape[0] - 1) * 3 // 2
            K = grid.shape[1] * 3 // 2
            values[key] = field.evaluate(key, *grid_nodes(R, K)).reshape(R + 1, K, 3)
        path = tmp_path / "uneven.json"
        save_field(SampledField(host=field.host, charts=field.charts, values=values), path)
        loaded, diag = tt.load_field(path)
        assert diag.ok
        assert all((g.shape[0] - 1) % 3 == 0 for g in loaded.values.values())
        self._check(loaded, tmp_path)

    def test_non_builtin_solid(self, tmp_path):
        poly = pentagonal_pyramid()
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        inv = tt.random_admissible_invariants(phat, seed=3)
        adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
        field = tt.representative_boundary(adm, phat)
        self._check(sample_field(field, 3), tmp_path)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_names_its_solid_as_its_input_does(self, tmp_path, from_file):
        # A builtin solid is named {"builtin": name}, a solid read from a
        # polyhedron file by its own document; a loaded field, and its
        # antipode, name it as the file it was read from.
        if from_file:
            with open(tmp_path / "poly.json", "w") as fh:
                json.dump(pentagonal_pyramid().to_dict(), fh)
            poly = tt.load_polyhedron(tmp_path / "poly.json")
            entry = poly.to_dict()
        else:
            poly, entry = tt.builtin_polyhedron("tetrahedron"), {"builtin": "tetrahedron"}
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        field = tt.representative_boundary(tt.AdmissibleInvariants.from_invariants(
            tt.random_admissible_invariants(phat, seed=3), phat), phat)
        path = tmp_path / "field.json"
        save_field(sample_field(field, 3), path)
        assert json.loads(path.read_text())["polyhedron"] == entry
        loaded = tt.load_field(path)[0]
        assert loaded.host.parent.entry() == entry
        save_field(antipodal(loaded), path)
        assert json.loads(path.read_text())["polyhedron"] == entry
        assert tt.load_field(path)[0].host.parent.entry() == entry
