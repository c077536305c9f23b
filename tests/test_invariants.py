import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo import fields as fields_mod
from tangent_topo import invariants as inv_mod
from tangent_topo.fields import CLEAVED, MAX_DEPTH, TRUNCATED, AnalyticField, FaceGrid
from tangent_topo.invariants import (
    InvariantSet,
    MARGIN_S,
    face_opposition_count,
    invariant_set_from_dict,
    invariant_set_to_dict,
    parse_invariants_document,
    report_to_dict,
    s_margin,
)
from tangent_topo.sphere import (DEGREE_RESIDUAL_TOL, cross, normalized, triangle_areas,
                                 triangle_sigma)

from helpers import (PINNED_HULLS, constant_field, jumped_field, normal_cone_spec,
                     pentagonal_pyramid, pinned_hull, reference_choose_reference_s,
                     reference_edge_orientations, reference_grid_count, reference_kink_detail,
                     reference_near_cells, reference_tangency, tangent_perturbation,
                     uniform_chain_wrapping)

DIAG = np.ones(3) / np.sqrt(3.0)


def make_representative(phat, seed, **kwargs):
    inv = tt.random_admissible_invariants(phat, seed=seed, **kwargs)
    adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
    return inv, tt.representative_boundary(adm, phat)


def crafted_invariants(phat, s, corner=0, corner_eps_sign=1, wrap=None):
    """All-positive edge orientations with zero kinks at ``corner``; the
    per-face requirements are dumped on other corners."""
    parent = phat.parent
    eps = np.array([
        corner_eps_sign * parent.edge_direction(b) for b in range(parent.n_edges)
    ])
    kinks = {}
    for c, tf in enumerate(phat.trunc_faces):
        corners = [seg[1][0] for seg in tf.segments if seg[0] == "cleaved"]
        required = face_opposition_count(eps, phat, c) // 2 - 1
        vals = {a: 0 for a in corners}
        dump = [a for a in corners if a != corner][-1]
        vals[dump] = required
        for a in corners:
            kinks[(a, c)] = vals[a]
    wraps = np.zeros(len(phat.cleaved_faces), dtype=int)
    if wrap is not None:
        wraps = np.asarray(wrap, dtype=int)
    return InvariantSet(s=s, edge_orientations=eps, kink_numbers=kinks,
                        wrapping_numbers=wraps)


def turned(s, k):
    """The ``k``-th direction at which ``extract_all`` counts preimages."""
    return inv_mod._rotated(s, k, k * inv_mod.PREIMAGE_TURN)


def first_resolved(grid, s, depth):
    """``(w, level)`` of the first level of ``grid`` from ``depth`` on
    that the integral route resolves at ``s``, unchecked."""
    for d in range(depth, MAX_DEPTH + 1):
        at = inv_mod._integral_at(grid, normalized(s), d)
        if at is not None:
            return at[0], d


def grid_dots(grid):
    """``fields._neighbor_dots`` of a bare (R + 1, K, 3) grid."""
    return fields_mod._neighbor_dots(fields_mod._grid_planes(grid))


def counted(grid, s):
    """``invariants._grid_count`` of a bare (R + 1, K, 3) grid."""
    return inv_mod._grid_count(grid_dots(grid), s)


def grid_count(grid, s):
    """``counted``, or None where ``s`` is no regular value."""
    try:
        return counted(grid, s)
    except errors.NotRegularValue:
        return None


def _bench_corpus():
    """``bench/corpus.py``, loaded from its path."""
    name = "bench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).parents[1] / "bench" / "corpus.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


class TestChooseReferenceS:
    def test_margin_and_determinism(self, cube_phat):
        s0 = tt.choose_reference_s(cube_phat, seed=0)
        assert s_margin(cube_phat, s0) >= MARGIN_S
        assert np.array_equal(s0, tt.choose_reference_s(cube_phat, seed=0))
        s1 = tt.choose_reference_s(cube_phat, seed=1)
        assert not np.array_equal(s0, s1)

    @pytest.mark.parametrize("phat_name", ["cube_phat", "octa_phat"])
    def test_every_start_offset_walks_as_before(self, phat_name, request):
        # 131 is invertible mod 997, so seeds 0-996 start at every offset.
        phat = request.getfixturevalue(phat_name)
        for seed in range(997):
            assert np.array_equal(tt.choose_reference_s(phat, seed),
                                  reference_choose_reference_s(phat, seed)), seed

    def test_the_spiral_is_not_rebuilt(self, cube_phat, monkeypatch):
        expected = tt.choose_reference_s(cube_phat, seed=5)

        def rebuilt(n=997):
            raise AssertionError("spiral rebuilt")

        monkeypatch.setattr(inv_mod, "_sphere_sequence", rebuilt)
        assert np.array_equal(tt.choose_reference_s(cube_phat, seed=5), expected)

    def test_mutating_a_result_changes_no_later_result(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=2)
        expected = s.copy()
        s *= -1.0
        assert np.array_equal(tt.choose_reference_s(cube_phat, seed=2), expected)

    def test_diagonal_is_admissible_on_cube(self, cube_phat):
        assert s_margin(cube_phat, DIAG) == pytest.approx(1.0 / np.sqrt(3.0))

    def test_axis_is_rejected_on_cube(self, cube_phat):
        assert s_margin(cube_phat, [1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("solid", tt.BUILTIN_NAMES)
    def test_bench_corpus_settles_s_by_the_library_rule(self, solid):
        # bench/corpus.py picks the input's s by its own copy of the rule
        # by which extract_all settles an omitted s; the CLI workload then
        # reads each field at the input's s only while the two agree.
        corpus = _bench_corpus()
        poly = tt.builtin_polyhedron(solid)
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        moved = set()
        for set_seed in (0, 1, 2):
            def make_set(s):
                return tt.random_admissible_invariants(phat, seed=set_seed, s=s)
            # Seed 430 starts at spiral point 498, z = 0: on the octahedron's
            # equator, where fan triangles of equatorial edges have sides.
            for cli_seed in (0, 17, 430, 2024):
                ref = corpus._library_reference(phat, cli_seed, make_set)
                s = inv_mod._settle_s(phat, ref.edge_orientations, None, cli_seed)[0]
                # An InvariantSet holds its s normalized once more.
                assert np.array_equal(inv_mod.normalized(s), ref.s), (set_seed, cli_seed)
                if not np.array_equal(s, tt.choose_reference_s(phat, cli_seed)):
                    moved.add(cli_seed)
        if solid == "octahedron":
            assert 430 in moved


class TestEdgeOrientations:
    def test_representative_reproduces_input(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=4)
        assert np.array_equal(tt.extract_edge_orientations(field),
                              inv.edge_orientations)

    def test_antipodal_negates(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=4)
        assert np.array_equal(tt.extract_edge_orientations(tt.antipodal(field)),
                              -inv.edge_orientations)

    def test_perturbation_pins_edges(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=4)
        wobbled = tangent_perturbation(field, seed=0)
        assert np.array_equal(tt.extract_edge_orientations(wobbled),
                              inv.edge_orientations)

    def test_non_edge_parallel_rejected(self, cube_phat):
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        with pytest.raises(errors.TangentTopoError, match="is not edge-parallel"):
            tt.extract_edge_orientations(field)


def wound_invariants(phat, s, target):
    """``crafted_invariants`` with kink ``target`` on cleaved edge (0, c0),
    c0 the first face of corner 0's chain, and the face's requirement
    moved onto another of its corners; returns the set and the edge."""
    inv = crafted_invariants(phat, s)
    kinks = dict(inv.kink_numbers)
    (a, c) = (0, phat.cleaved_faces[0].face_chain[0])
    corners = [seg[1][0] for seg in phat.trunc_faces[c].segments
               if seg[0] == "cleaved"]
    other = [x for x in corners if x != a][-1]
    kinks[(other, c)] -= target - kinks[(a, c)]
    kinks[(a, c)] = target
    return InvariantSet(s=s, edge_orientations=inv.edge_orientations, kink_numbers=kinks,
                        wrapping_numbers=inv.wrapping_numbers), (a, c)


def representative(inv, phat):
    return tt.representative_boundary(tt.AdmissibleInvariants.from_invariants(inv, phat), phat)


def spy_on(monkeypatch, owner, name):
    """Calls of ``owner.name``, each as its positional arguments, replaced
    by a recording wrapper."""
    inner, calls = getattr(owner, name), []

    def recording(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


class TestKinks:
    @pytest.mark.parametrize("target", [0, 1, -2])
    def test_prescribed_winding(self, cube_phat, target):
        s = tt.choose_reference_s(cube_phat, seed=0)
        inv, (a, c) = wound_invariants(cube_phat, s, target)
        assert tt.extract_kink(representative(inv, cube_phat), a, c) == target

    def test_kinks_survive_antipodal(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=6)
        anti = tt.antipodal(field)
        for (a, c), k in inv.kink_numbers.items():
            assert tt.extract_kink(anti, a, c) == k

    def test_step_bound_checked_once(self, cube_phat, monkeypatch):
        # The bound is checked once per stack: extract_kink's one row, and
        # in extract_all the rows of each face's cleaved segments.  No row
        # of the seed-9 cube refines.
        inv, field = make_representative(cube_phat, seed=9)
        (a, c), k = max(inv.kink_numbers.items(), key=lambda item: abs(item[1]))
        checks = spy_on(monkeypatch, inv_mod, "unwrap_rotation_angle")
        rows = {c: sum(seg[0] == "cleaved" for seg in tf.segments)
                for c, tf in enumerate(cube_phat.trunc_faces)}
        assert tt.extract_kink(field, a, c) == k
        assert [x.shape for x, _ in checks] == [(1, 129, 3)]
        checks.clear()
        report = tt.extract_all(field, with_preimage=False)
        assert report.invariants.kink_numbers == inv.kink_numbers
        assert [x.shape for x, _ in checks] == [(n, 129, 3) for n in rows.values()]

    def test_refined_row_keeps_the_curve_by_curve_residual(self, cube_phat, monkeypatch):
        # A 40-turn kink steps about 1.96 rad between the 129 samples of
        # its row, past the quarter-turn bound: that row, and the row
        # that takes up the face's requirement, are evaluated again at
        # 257 samples, one stack of the failing rows, and keep the
        # residuals of a bisection curve by curve.
        s = tt.choose_reference_s(cube_phat, seed=0)
        inv, (a, c) = wound_invariants(cube_phat, s, 40)
        field = representative(inv, cube_phat)
        checks = spy_on(monkeypatch, inv_mod, "unwrap_rotation_angle")
        assert tt.extract_kink(field, a, c) == 40
        assert [x.shape for x, _ in checks] == [(1, 129, 3), (1, 257, 3)]
        # Its corner faces do not resolve by MAX_DEPTH; extract_all reads
        # kinks from the trimmed faces only, so it takes the corner faces
        # of the unwound set.
        plain = representative(crafted_invariants(cube_phat, s), cube_phat)
        hybrid = AnalyticField(
            host=field.host, charts=field.charts,
            evaluator=lambda key, rho, phi: (
                field if key[0] == TRUNCATED else plain).evaluator(key, rho, phi))
        checks.clear()
        report = tt.extract_all(hybrid, s=s, with_preimage=False)
        assert report.invariants.kink_numbers == inv.kink_numbers
        assert [x.shape for x, _ in checks if x.shape[1] != 129] == [(2, 257, 3)]
        for ac in inv.kink_numbers:
            kink, residual = reference_kink_detail(hybrid, *ac)
            assert report.invariants.kink_numbers[ac] == kink
            assert np.float64(report.kink_residuals[ac]).tobytes() == \
                np.float64(residual).tobytes()

    def test_evaluates_its_own_row(self, cube_phat, monkeypatch):
        # extract_kink evaluates the 129 samples of its edge, not the ring
        # of the face, in one call.
        _, field = make_representative(cube_phat, seed=9)
        calls = spy_on(monkeypatch, AnalyticField, "evaluate")
        for a, c in sorted(cube_phat.cleaved_edges)[:4]:
            calls.clear()
            tt.extract_kink(field, a, c)
            assert [(key, phi.shape) for _, key, _, phi in calls] == [((TRUNCATED, c), (129,))]

    def test_row_past_the_cap_refused(self, cube_phat, monkeypatch):
        # A jump never comes within the quarter-turn bound: the row doubles
        # its samples from 129 up to MAX_ROW_SAMPLES, then is refused.
        _, field = make_representative(cube_phat, seed=9)
        a, c = sorted(cube_phat.cleaved_edges)[0]
        jumped = jumped_field(field, a, c)
        assert tt.validate_tangency(jumped).ok
        checks = spy_on(monkeypatch, inv_mod, "unwrap_rotation_angle")
        with pytest.raises(errors.ResolutionTooCoarse, match="breaks the quarter-turn bound"):
            tt.extract_kink(jumped, a, c)
        assert inv_mod.MAX_ROW_SAMPLES == 2 ** 16 + 1
        assert [x.shape for x, _ in checks] == [(1, 2 ** n + 1, 3) for n in range(7, 17)]

    def test_row_off_the_great_circle_refused(self, cube_phat):
        _, field = make_representative(cube_phat, seed=9)
        a, c = sorted(cube_phat.cleaved_edges)[0]
        lift = 1e-6 * cube_phat.face_normal(c)
        tilted = AnalyticField(host=field.host, charts=field.charts,
                               evaluator=lambda *args: field.evaluator(*args) + lift)
        with pytest.raises(errors.TangentTopoError, match="leaves the plane of face"):
            tt.extract_kink(tilted, a, c)

    def test_unknown_edge_rejected(self, cube_phat):
        _, field = make_representative(cube_phat, seed=9)
        a, c = next(iter(cube_phat.cleaved_edges))
        other = next(x for x in range(len(cube_phat.cleaved_faces))
                     if (x, c) not in cube_phat.cleaved_edges)
        with pytest.raises(errors.TangentTopoError, match="has no boundary segment cleaved"):
            tt.extract_kink(field, other, c)

    def test_parallel_endpoints_rejected(self, cube_phat):
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        a, c = next(iter(cube_phat.cleaved_edges))
        with pytest.raises(errors.TangentTopoError, match="endpoint values on cleaved edge .* are parallel"):
            tt.extract_kink(field, a, c)


@pytest.fixture(scope="module")
def ring_fields(cube_phat, tetra_phat, octa_phat, tmp_path_factory):
    """Representative fields of the three builtins at three seeds and of
    the pentagonal pyramid, whose face normals are not unit to the last
    bit, the antipodal field of one, and a SampledField read back from
    its file."""
    pyramid = pentagonal_pyramid()
    out = {}
    for name, phat in (("cube", cube_phat), ("tetrahedron", tetra_phat),
                       ("octahedron", octa_phat),
                       ("pyramid", tt.truncate(pyramid, tt.TruncationSpec.from_fraction(
                           pyramid, 0.25)))):
        for seed in (0, 4, 7):
            out[name, seed] = make_representative(phat, seed=seed)[1]
    out["antipodal"] = tt.antipodal(out["cube", 4])
    path = tmp_path_factory.mktemp("ring") / "field.json"
    tt.save_field(tt.sample_field(out["tetrahedron", 4], 2), path)
    out["sampled"] = tt.load_field(path)[0]
    return out


RING_FIELDS = [(name, seed) for name in ("cube", "tetrahedron", "octahedron", "pyramid")
               for seed in (0, 4, 7)] + ["antipodal", "sampled"]


class TestBoundaryRings:
    """Kinks and edge orientations are read from one boundary ring per
    trimmed face, bit for bit the curve-by-curve traces."""

    @pytest.mark.parametrize("which", RING_FIELDS)
    def test_equal_to_curve_by_curve(self, ring_fields, which):
        field = ring_fields[which]
        report = tt.extract_all(field, with_preimage=False)
        for ac in sorted(field.host.cleaved_edges):
            kink, residual = reference_kink_detail(field, *ac)
            assert report.invariants.kink_numbers[ac] == kink
            assert np.float64(report.kink_residuals[ac]).tobytes() == \
                np.float64(residual).tobytes()
            assert tt.extract_kink(field, *ac) == kink
        expected = reference_edge_orientations(field).tobytes()
        assert report.invariants.edge_orientations.tobytes() == expected
        assert tt.extract_edge_orientations(field).tobytes() == expected
        assert tt.validate_tangency(field).to_dict() == reference_tangency(field)

    @pytest.mark.parametrize("which", [("cube", 4), "sampled"])
    def test_one_evaluate_per_face(self, ring_fields, monkeypatch, which):
        # extract_all evaluates each trimmed face once, its ring, and
        # validate_tangency the ring of every face once (the scattered
        # calls; face grids pass rings of rho as a column).
        field = ring_fields[which]
        phat = field.host
        calls = spy_on(monkeypatch, type(field), "evaluate")
        trimmed = [(TRUNCATED, c) for c in range(len(phat.trunc_faces))]
        tt.extract_all(field, with_preimage=False)
        assert [key for _, key, *_ in calls if key[0] == TRUNCATED] == trimmed
        calls.clear()
        tt.validate_tangency(field)
        assert sorted(key for _, key, rho, _ in calls if np.ndim(rho) == 1) == \
            sorted(phat.face_keys())


class TestWrapping:
    def test_constant_face_is_zero(self, cube_phat):
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        s = tt.choose_reference_s(cube_phat, seed=0)
        assert tt.extract_wrapping_integral(field, 0, s, depth=4) == 0
        assert inv_mod.extract_wrapping_preimage(field, 0, s, grid_depth=4) == 0

    def test_patch_preimage_is_single_positive(self, cube_phat):
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(1, -1, 0, 0, 0, 0, 0, 0))
        assert inv_mod.extract_wrapping_preimage(field, 0, turned(inv.s, 1)) == 1
        # The base ring of the covering patch maps onto s itself.
        with pytest.raises(errors.NotRegularValue):
            inv_mod.extract_wrapping_preimage(field, 0, inv.s)

    def test_retry_compares_routes_at_the_rotated_direction(self, cube_phat,
                                                            monkeypatch):
        # The center of an |w| = 2 covering patch is a critical preimage of s.
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        with pytest.raises(errors.NotRegularValue):
            inv_mod.extract_wrapping_preimage(field, 0, inv.s)
        s_1 = turned(inv.s, 1)
        assert not np.allclose(s_1, inv.s, atol=1e-6)
        assert inv_mod.extract_wrapping_preimage(field, 0, s_1) == 2
        assert tt.extract_wrapping_integral(field, 0, s_1) == 2
        assert tt.extract_all(field, s=inv.s).wrapping_preimage[0] == 2

        # An integral route that is off only away from s must be caught.
        integral = inv_mod._integral_at

        def off_at_retries(grid, s, d):
            at = integral(grid, s, d)
            off = not np.allclose(s, inv.s, atol=1e-12)
            return None if at is None else (at[0] + off, at[1])

        monkeypatch.setattr(inv_mod, "_integral_at", off_at_retries)
        with pytest.raises(errors.DualRouteMismatch):
            tt.extract_all(field, s=inv.s)

    def test_apex_is_refused_before_any_evaluate_call(self, cube_phat):
        # Every face's base ring maps to s, at w = 2 (face 0) and w = 0
        # (face 2) alike: s is the image of a grid node, refused on the
        # face grid with no further evaluate call.
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        calls = []

        def evaluator(key, rho, phi):
            calls.append(key)
            return field.evaluator(key, rho, phi)

        counted = AnalyticField(host=cube_phat, charts=field.charts, evaluator=evaluator)
        for a in (0, 2):
            calls.clear()
            with pytest.raises(errors.NotRegularValue):
                inv_mod.extract_wrapping_preimage(counted, a, inv.s)
            assert calls == [(CLEAVED, a)]  # the depth-6 grid, in one call

    def test_preimage_check_makes_no_evaluate_call(self, cube_phat):
        # The count reads the check level one above the resolved one, which
        # the climb evaluates with or without it, and the integral route,
        # taken again at the turned direction, reads it too.
        inv, field = make_representative(cube_phat, seed=3)
        calls = {True: [], False: []}
        for with_preimage, log in calls.items():
            def evaluator(key, rho, phi, log=log):
                log.append((key, rho.tobytes(), phi.tobytes()))
                return field.evaluator(key, rho, phi)

            counted = AnalyticField(host=cube_phat, charts=field.charts,
                                    evaluator=evaluator)
            report = tt.extract_all(counted, s=inv.s, with_preimage=with_preimage)
            if with_preimage:
                assert list(report.wrapping_preimage) == inv.wrapping_numbers.tolist()
        assert calls[True] == calls[False]

    def test_one_neighbor_dot_pass_per_grid(self, cube_phat, monkeypatch):
        # The integral route, the direct area, the preimage count and the
        # integral route again at the turned direction read one neighbor
        # dot triple per (face, depth) built, each taken once.
        inv, field = make_representative(cube_phat, seed=3)
        faces, passes = [], []
        init, kernel = FaceGrid.__init__, fields_mod._neighbor_dots

        def tracking(grid, *args):
            init(grid, *args)
            faces.append(grid)

        def counting(planes):
            passes.append(planes)
            return kernel(planes)

        monkeypatch.setattr(FaceGrid, "__init__", tracking)
        monkeypatch.setattr(fields_mod, "_neighbor_dots", counting)
        report = tt.extract_all(field, s=inv.s, depth=5, with_preimage=True)
        assert list(report.wrapping_preimage) == inv.wrapping_numbers.tolist()
        built = [(grid.key, d) for grid in faces for d in grid._planes]
        read = [(grid.key, d) for planes in passes for grid in faces
                for d, held in grid._planes.items() if held is planes]
        assert len(read) == len(passes) == len(set(read))
        assert sorted(read) == sorted(built)
        # Each face built, and read, every level from depth 5 up to the
        # check one above its resolved level, and some face refined.
        assert sorted(built) == sorted(
            ((CLEAVED, a), d) for a, used in enumerate(report.wrapping_depths)
            for d in range(5, min(used + 1, MAX_DEPTH) + 1))
        assert max(report.wrapping_depths) > 5

    def test_low_depth_cross_check_rescans_the_resolved_grid(self, cube_phat):
        # The depth-1 grids of this set are unresolved (a scan there once
        # counted 1 against 3 on face 2); the count runs only on a resolved
        # grid, one level above the integral route's.
        inv, field = make_representative(cube_phat, seed=3)
        report = tt.extract_all(field, s=inv.s, depth=1)
        assert tt.invariants_equal(report.invariants, inv)
        assert list(report.wrapping_preimage) == inv.wrapping_numbers.tolist()
        assert min(report.wrapping_depths) > 1

    def test_only_the_resolved_scan_decides(self, cube_phat, monkeypatch):
        # One count per face, on the resolved level it is given, at the
        # first turned direction that is a regular value, compared with the
        # integral route there.
        inv, field = make_representative(cube_phat, seed=3)
        grid = FaceGrid(field, (CLEAVED, 0))
        w, used = first_resolved(grid, inv.s, 1)
        assert used > 1
        count, seen, script = inv_mod._grid_count, [], []

        def scripted(dots, s):
            # Each call takes the next step: None refuses s, an integer is
            # added to the true count.
            seen.append((dots, s))
            step = script.pop(0)
            if step is None:
                raise errors.NotRegularValue("scripted")
            return count(dots, s) + step

        monkeypatch.setattr(inv_mod, "_grid_count", scripted)

        def checked(*steps):
            seen.clear()
            script[:] = steps
            return inv_mod._checked_preimage(grid, inv.s, used)

        assert checked(0) == w
        assert len(seen) == 1 and seen[0][0] is grid.neighbor_dots(used)
        assert np.allclose(seen[0][1], turned(inv.s, 1), rtol=0.0, atol=1e-15)
        assert checked(None, 0) == w and len(seen) == 2
        assert np.allclose(seen[1][1], turned(inv.s, 2), rtol=0.0, atol=1e-15)
        # No regular value: no count, and nothing compared.
        assert checked(*[None] * inv_mod.PREIMAGE_ATTEMPTS) is None
        for steps in ((1,), (None, -1), (None, None, 2)):
            with pytest.raises(errors.DualRouteMismatch):
                checked(*steps)
            assert not script  # the first count decides

    def test_dual_routes_agree(self, tetra_phat):
        for seed in (0, 1, 2):
            inv, field = make_representative(tetra_phat, seed=seed)
            for a in range(4):
                w_int = tt.extract_wrapping_integral(field, a, inv.s, depth=5)
                assert w_int == int(inv.wrapping_numbers[a])

    def test_base_point_and_parameterization_independence(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=5)
        a = 0
        w_ref = tt.extract_wrapping_integral(field, a, inv.s, depth=5)
        key = ("cleaved", a)
        chart = field.charts[key]
        rng = np.random.default_rng(8)
        base2 = 0.6 * chart.base + 0.4 * chart.point(
            np.array([rng.uniform(0.2, 0.5)]), np.array([rng.uniform(0, 2 * np.pi)])
        )[0]
        chart2 = dataclasses.replace(chart, base=base2)
        charts2 = dict(field.charts)
        charts2[key] = chart2

        def evaluator2(face_key, rho, phi):
            if face_key != key:
                return field.evaluate(face_key, rho, phi)
            # locate works on a list of points: flatten a grid block.
            shape = np.broadcast(rho, phi).shape
            rho, phi = (x.ravel() for x in np.broadcast_arrays(rho, phi))
            rr, pp, _ = chart.locate(charts2[key].point(rho, phi))
            return field.evaluate(key, rr, pp).reshape(shape + (3,))

        field2 = AnalyticField(host=cube_phat, charts=charts2, evaluator=evaluator2)
        assert tt.extract_wrapping_integral(field2, a, inv.s, depth=5) == w_ref


def _hull_round_trip(g, k):
    """Hull ``k`` of generator seed ``g``, cut by the normal-cone rule,
    its seed-``k`` set, and the report read at that set's ``s``."""
    poly, lam = pinned_hull(g, k)
    phat = tt.truncate(poly, normal_cone_spec(poly, lam))
    inv, field = make_representative(phat, seed=k)
    return inv, tt.extract_all(field, s=inv.s)


class TestLocalRefinement:
    """Face grids refined only in the angular intervals that break the
    quarter-turn bound give the integers, preimage counts and depths of
    the uniform chain of whole grids, and its direct areas up to rounding."""

    @pytest.mark.parametrize("which", ["golden cube", "near-plane cube"])
    def test_equals_the_uniform_chain(self, cube_phat, which):
        if which == "golden cube":
            inv = tt.random_admissible_invariants(cube_phat, seed=0)
            field = tt.representative_boundary(
                tt.AdmissibleInvariants.from_invariants(inv, cube_phat), cube_phat)
            report = tt.extract_all(field)
        else:  # certify corpus seed 1, case 4: margin below 0.1
            case = _bench_corpus().Corpus(1, with_field=True, file_dir=None).case(4)
            assert case.stratum == (0.0, 0.1)
            field = case.field
            report = tt.extract_all(field, s=case.expected.s)
        local = 0
        for a in range(len(field.host.cleaved_faces)):
            w, level, direct, pre = uniform_chain_wrapping(field, a, report.invariants.s)
            assert report.invariants.wrapping_numbers[a] == w
            assert report.wrapping_depths[a] == level
            assert report.wrapping_preimage[a] == pre == w
            assert report.wrapping_checks[a] == 0
            assert abs(report.trapped_direct[a] - direct) <= 1e-12
            local += report.wrapping_grids[a][1] < 3 * 2 ** level
        assert local >= 4  # faces that resolved on fewer angles


def bubbled_field(field):
    """``field`` with a bubble of degree +1 on corner face 0 (3 sides) that
    no node of the depth-4 grid sees: an ellipse about (rho_c, phi_c) =
    (0.25 + hr / 2, 5.5 step), step = 2 pi / 48, of half-widths (hr, hp)
    = (1 / 32, 0.45 step).  At d = hypot((rho - rho_c) / hr, (phi -
    phi_c) / hp) below 1/2 the value covers the sphere once about the
    field value f, in a frame (xi, eta); from 1/2 to 1 it turns back to f
    along the meridian through xi.  The level-5 node (0.25, 5.5 step)
    lies at d = 1/2."""
    key, step = (CLEAVED, 0), 2.0 * np.pi / 48
    hr, hp = 1.0 / 32, 0.45 * step
    rho_c, phi_c = 0.25 + hr / 2, 5.5 * step
    centre = normalized(field.evaluator(key, np.array([rho_c]), np.array([phi_c]))[0])
    axis = np.eye(3)[np.argmin(np.abs(centre))]

    def evaluator(k, rho, phi):
        f = field.evaluator(k, rho, phi)
        if k != key:
            return f
        rho, phi = np.broadcast_arrays(rho, phi)
        f = f / np.linalg.norm(f, axis=-1, keepdims=True)
        x, y = (rho - rho_c) / hr, (phi - phi_c) / hp
        d, theta = np.hypot(x, y)[..., None], np.arctan2(y, x)[..., None]
        xi = np.cross(f, axis)
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        eta = np.cross(xi, f)
        inner = (np.sin(2 * np.pi * d) * (np.cos(theta) * xi + np.sin(theta) * eta)
                 + np.cos(2 * np.pi * d) * f)
        outer = np.cos(np.pi * (2 - 2 * d)) * f + np.sin(np.pi * (2 - 2 * d)) * xi
        return np.where(d < 0.5, inner, np.where(d < 1.0, outer, f))

    return AnalyticField(host=field.host, charts=field.charts, evaluator=evaluator)


class TestLevelCheck:
    """A level resolved below MAX_DEPTH counts only once the level above
    it agrees; a level that does not restarts the climb."""

    def test_a_between_node_bubble_is_caught(self, cube_phat):
        inv = tt.random_admissible_invariants(cube_phat, seed=0)
        field = bubbled_field(representative(inv, cube_phat))
        grid = FaceGrid(field, (CLEAVED, 0))
        # Unchecked, the depth-4 grid resolves and misses the bubble.
        assert inv_mod._integral_at(grid, inv.s, 4)[0] == inv.wrapping_numbers[0] == -3
        assert tt.extract_wrapping_integral(field, 0, inv.s, depth=4) == -2
        report = tt.extract_all(field, s=inv.s)
        assert report.invariants.wrapping_numbers[0] == -2
        assert report.wrapping_checks[0] >= 1
        assert report.wrapping_depths[0] == MAX_DEPTH
        assert report.wrapping_grids[0] == (256, 1536)
        assert report.wrapping_preimage[0] == -2

    def test_a_disagreement_below_the_top_climbs(self, cube_phat, monkeypatch):
        inv, field = make_representative(cube_phat, seed=3)
        plain = tt.extract_all(field, s=inv.s)
        assert plain.wrapping_depths[0] < MAX_DEPTH - 1
        assert plain.wrapping_checks == (0,) * 8
        count, calls = inv_mod.extract_wrapping_preimage, []

        def off(n):
            # The first n counts are one too many.
            def counting(*args):
                calls.append(args)
                return count(*args) + (len(calls) <= n)
            return counting

        # Face 0's check level disagrees once: the climb goes on one level.
        monkeypatch.setattr(inv_mod, "extract_wrapping_preimage", off(1))
        report = tt.extract_all(field, s=inv.s)
        assert tt.invariants_equal(report.invariants, inv)
        assert report.wrapping_checks == (1,) + (0,) * 7
        assert report.wrapping_depths[0] == plain.wrapping_depths[0] + 1
        assert report.wrapping_depths[1:] == plain.wrapping_depths[1:]
        assert list(report.wrapping_preimage) == inv.wrapping_numbers.tolist()
        # Disagreeing at every level, it is refused only at MAX_DEPTH.  The
        # faces climb in lockstep, so their counts interleave: face 0's own
        # run up the levels, then once more at MAX_DEPTH.
        calls.clear()
        monkeypatch.setattr(inv_mod, "extract_wrapping_preimage", off(10 ** 6))
        with pytest.raises(errors.DualRouteMismatch):
            tt.extract_all(field, s=inv.s)
        assert [args[3] for args in calls if args[1] == 0] == list(
            range(plain.wrapping_depths[0] + 1, MAX_DEPTH + 1)) + [MAX_DEPTH]


def face_by_face(field, s, turn):
    """The exception that climbing the corner faces of ``field`` one after
    another raises, or None: the first face's that fails."""
    for a in range(len(field.host.cleaved_faces)):
        try:
            inv_mod._checked_climb(field, [a], s, 4, turn)
        except Exception as exc:
            return exc
    return None


class TestLockstep:
    """The corner faces climb together, and the exception raised is the one
    that climbing them face by face raises."""

    @pytest.mark.parametrize("slow, fast", [(1, 3), (3, 1)])
    def test_the_lowest_failing_face_raises(self, cube_phat, monkeypatch, slow, fast):
        # Face ``slow`` disagrees on every count and fails at MAX_DEPTH;
        # face ``fast`` fails on its first level, whose boundary image
        # is made to hold s.
        inv, field = make_representative(cube_phat, seed=3)
        count, integral = inv_mod.extract_wrapping_preimage, inv_mod._integral_at

        def miscounted(field, a, *args):
            return count(field, a, *args) + (a == slow)

        def blocked(grid, s, d):
            if grid.key[1] == fast:
                raise errors.TangentTopoError(f"scripted on face {fast}")
            return integral(grid, s, d)

        monkeypatch.setattr(inv_mod, "extract_wrapping_preimage", miscounted)
        monkeypatch.setattr(inv_mod, "_integral_at", blocked)
        expected = face_by_face(field, inv.s, inv_mod.PREIMAGE_TURN)
        assert type(expected) is (errors.DualRouteMismatch if slow < fast
                                  else errors.TangentTopoError)
        with pytest.raises(type(expected)) as raised:
            tt.extract_all(field, s=inv.s)
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)

    @pytest.mark.parametrize("miscounted", [False, True])
    def test_a_batch_that_raises_is_evaluated_face_by_face(self, cube_phat, monkeypatch,
                                                           miscounted):
        # The evaluator refuses any call that reaches face 5: the batches
        # of all faces raise, and face 5's own evaluation gives its error,
        # raised unless face 1, which miscounts, fails first face by face.
        inv, field = make_representative(cube_phat, seed=3)
        inner, calls, count = field.evaluator, [], inv_mod.extract_wrapping_preimage

        def refusing(key, rho, phi):
            calls.append(np.size(key[1]))
            if key[0] == CLEAVED and np.any(np.asarray(key[1]) == 5):
                raise errors.TangentTopoError("scripted on face 5")
            return inner(key, rho, phi)

        refusing._corner_batches = True
        refused = dataclasses.replace(field, evaluator=refusing)
        monkeypatch.setattr(inv_mod, "extract_wrapping_preimage", lambda field, a, *args: (
            count(field, a, *args) + (miscounted and a == 1)))
        expected = face_by_face(refused, inv.s, inv_mod.PREIMAGE_TURN)
        assert type(expected) is (errors.DualRouteMismatch if miscounted
                                  else errors.TangentTopoError)
        calls.clear()
        with pytest.raises(type(expected)) as raised:
            tt.extract_all(refused, s=inv.s)
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
        assert max(calls) > 1  # a batched call was made

    def test_one_evaluate_call_per_level(self, cube_phat, monkeypatch):
        # Every level of all eight corner faces, 17 x 48 nodes at depth 4,
        # fits one batch; the report is the face-by-face report.
        inv, field = make_representative(cube_phat, seed=3)
        plain = tt.extract_all(field, s=inv.s, with_preimage=False)
        evaluate, keys = AnalyticField.evaluate, []

        def counted(self, key, rho, phi):
            keys.append(key)
            return evaluate(self, key, rho, phi)

        monkeypatch.setattr(AnalyticField, "evaluate", counted)
        report = tt.extract_all(field, s=inv.s, with_preimage=False)
        corner = [key for key in keys if key[0] == CLEAVED]
        assert len(corner) == max(report.wrapping_depths) - 4 + 2
        assert set(np.unique(corner[0][1])) == set(range(8))
        assert report_to_dict(report, cube_phat) == report_to_dict(plain, cube_phat)


    @pytest.mark.parametrize("room", [0, 4 * 17 * 48])
    def test_the_report_is_the_face_by_face_report(self, cube_phat, monkeypatch, room):
        # With no room for a lockstep every face climbs alone; with room
        # for four depth-4 grids the first faces climb alone, then the
        # last four together.
        inv, field = make_representative(cube_phat, seed=4)
        together = tt.extract_all(field, s=inv.s)
        evaluate, batched = AnalyticField.evaluate, []

        def counted(self, key, rho, phi):
            batched.append(np.ndim(key[1]) > 0)
            return evaluate(self, key, rho, phi)

        monkeypatch.setattr(AnalyticField, "evaluate", counted)
        monkeypatch.setattr(inv_mod, "LOCKSTEP_NODES", room)
        report = tt.extract_all(field, s=inv.s)
        assert any(batched) == (room > 0) and not all(batched)
        assert report_to_dict(report, cube_phat) == report_to_dict(together, cube_phat)
        for name in ("trapped_direct", "trapped_closed", "wrapping_residuals"):
            assert getattr(report, name).tobytes() == getattr(together, name).tobytes()


def at_margin(phat, m):
    """A unit ``s`` with margin ``m``: ``m`` along face normal 0, the rest
    in its plane, toward the first spiral point that keeps every face
    plane but that one at least 3 m away."""
    normals = phat.parent.face_normals
    others = normals[np.abs(normals @ normals[0]) < 1.0 - 1e-9]
    for t in inv_mod._SPIRAL:
        t = normalized(t - (t @ normals[0]) * normals[0])
        s = np.sqrt(1.0 - m * m) * t + m * normals[0]
        if np.min(np.abs(others @ s)) >= 3.0 * m:
            return s
    raise AssertionError("no direction found")


class TestPreimageTurn:
    """The preimage check turns within the margin of the given ``s``: each
    count it reports equals the wrapping number."""

    @pytest.mark.parametrize("solid, seed, s", [
        ("tetrahedron", 554, [0.5558230222109181, 0.2130675370259996, -0.8035315753882952]),
        ("octahedron", 104, [0.4390794321651592, -0.352632659883987, -0.8263531082005231])])
    def test_reproducers(self, tetra_phat, octa_phat, solid, seed, s):
        phat = {"tetrahedron": tetra_phat, "octahedron": octa_phat}[solid]
        inv, field = make_representative(phat, seed, s=np.array(s))
        assert s_margin(phat, inv.s) < MARGIN_S
        report = tt.extract_all(field, s=inv.s)
        w = report.invariants.wrapping_numbers.tolist()
        assert report.wrapping_preimage == tuple(w)

    @pytest.mark.parametrize("margin", [0.02, 0.01])
    @pytest.mark.parametrize("solid", ["cube", "tetrahedron", "octahedron"])
    def test_small_margins(self, cube_phat, tetra_phat, octa_phat, solid, margin):
        phat = {"cube": cube_phat, "tetrahedron": tetra_phat, "octahedron": octa_phat}[solid]
        s = at_margin(phat, margin)
        assert s_margin(phat, s) == pytest.approx(margin, abs=1e-12)
        inv, field = make_representative(phat, 5, s=s)
        try:
            report = tt.extract_all(field, s=inv.s)
        except errors.ResolutionTooCoarse as exc:
            # Near a face plane, refinement bounded by levels rather than
            # by nodes can run out (the octahedron here, at both margins).
            assert "did not resolve by depth" in str(exc)
            return
        assert tt.invariants_equal(report.invariants, inv)
        w = report.invariants.wrapping_numbers.tolist()
        assert [p for p in report.wrapping_preimage if p is not None] == [
            x for x, p in zip(w, report.wrapping_preimage) if p is not None]


class TestRandomHulls:
    @pytest.mark.parametrize("g, k", PINNED_HULLS)
    def test_round_trip(self, g, k):
        # Face 4 of (2, 5) has w = 2 and face 1 of (4, 13) has w = 3: at s
        # itself their patches split near the apex.  The other five each
        # have a |w| = 3 face that a Newton polish of preimages merged into
        # fewer preimages ((17, 15): into none that converged).
        inv, report = _hull_round_trip(g, k)
        assert tt.invariants_equal(report.invariants, inv)
        assert report.verdicts.all_ok
        assert list(report.wrapping_preimage) == inv.wrapping_numbers.tolist()


class TestCandidateCells:
    """``invariants._grid_count``, which counts on the cells its proximity
    filter keeps, against the whole-grid reference count."""

    def test_equals_the_reference_scan_on_representatives(self, cube_phat, tetra_phat):
        rng = np.random.default_rng(11)
        for phat, seed in ((cube_phat, 3), (tetra_phat, 1)):
            inv, field = make_representative(phat, seed=seed)
            for a in range(len(phat.cleaved_faces)):
                for depth in (3, 6):
                    grid = fields_mod.face_grid(field, ("cleaved", a), depth)
                    # s itself and a node value are images of grid nodes.
                    node = grid[rng.integers(grid.shape[0]), rng.integers(grid.shape[1])]
                    for s in (inv.s, node):
                        with pytest.raises(errors.NotRegularValue):
                            counted(grid, s)
                    for s in (turned(inv.s, 1), normalized(rng.normal(size=3))):
                        got = counted(grid, s)
                        assert got == reference_grid_count(grid, s)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_reference_scan_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        R, K = 5 + seed, 8 + 3 * seed
        base = normalized(rng.normal(size=3))
        grid = base + (0.3 + 0.5 * seed) * rng.normal(size=(R + 1, K, 3))
        grid /= np.linalg.norm(grid, axis=-1, keepdims=True)
        for s in (base, -base, grid[1, 2], normalized(rng.normal(size=3))):
            assert grid_count(grid, s) == reference_grid_count(grid, s)
        assert grid_count(grid, grid[1, 2]) is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), R=st.integers(2, 6), turns=st.integers(-3, 3),
           reach=st.floats(0.2, 3.0), noise=st.floats(0.0, 0.1))
    def test_equals_the_reference_and_the_area_cap_degree(self, seed, R, turns, reach,
                                                          noise):
        # A disk that winds ``turns`` times about a random pole out to
        # polar angle ``reach`` (past pi it folds over the antipode), with
        # noise off its rho = 0 ring, which collapses onto the pole as on a
        # face grid: the sheet and the cap over its boundary close up.
        rng = np.random.default_rng(seed)
        pole, e1, e2 = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
        K = 16 * max(abs(turns), 1)
        theta = reach * np.arange(R + 1)[:, None, None] / R
        phi = turns * 2.0 * np.pi * np.arange(K)[None, :, None] / K
        grid = np.cos(theta) * pole + np.sin(theta) * (np.cos(phi) * e1 + np.sin(phi) * e2)
        grid[1:] += noise * rng.normal(size=(R, K, 3))
        grid /= np.linalg.norm(grid, axis=-1, keepdims=True)
        s = normalized(rng.uniform(-1.0, 3.0) * pole + rng.normal(size=3))
        area_sum = fields_mod._grid_area_sum(grid_dots(grid))
        assume(area_sum is not None)  # the quarter-turn bound: a resolved grid
        expected = reference_grid_count(grid, s)
        assert grid_count(grid, s) == expected
        assume(expected is not None)
        boundary = grid[-1]
        gamma, valid = triangle_areas(boundary, np.roll(boundary, -1, axis=0),
                                      np.broadcast_to(-s, boundary.shape))
        assume(valid.all() and np.max(boundary @ s) < 1.0 - 1e-12)
        raw = (float(np.sum(gamma)) - area_sum) / (4.0 * np.pi)
        assert abs(raw - expected) < DEGREE_RESIDUAL_TOL

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), R=st.integers(1, 8), K=st.integers(3, 12),
           spread=st.floats(0.0, 3.0))
    def test_filter_keeps_the_cells_of_the_one_stage_filter_on_random_grids(
            self, seed, R, K, spread):
        # Grids from nearly constant to scattered all over the sphere, with
        # one pair of antipodal neighbors: a neighbor dot of -1, where
        # the one-stage threshold clamps at pi.
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=3) + spread * rng.normal(size=(R + 1, K, 3))
        grid /= np.linalg.norm(grid, axis=-1, keepdims=True)
        grid[0, 0] = -grid[1, 0]
        planes, radial, around = grid_dots(grid)
        assert radial.min() < 0.0
        for s in (grid[R, K - 1], normalized(rng.normal(size=3))):
            dots = fields_mod._dot(planes, s)
            got = inv_mod._near_cells(dots, radial, around)
            expected = reference_near_cells(dots, radial, around)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))

    @settings(max_examples=120, deadline=None)
    @given(m=st.one_of(st.floats(-1.5, 1.5), st.sampled_from(
               [-1.0, 0.0, 1.0, 5e-4, np.cos(np.pi / 4 - 2.5e-4), np.cos(np.pi / 4)])),
           step=st.sampled_from([-1, 0, 1]))
    def test_filter_keeps_a_cell_on_the_one_stage_threshold(self, m, step):
        # Every neighbor dot m and every corner dot one float step below,
        # at or above the one-stage threshold cos(min(2 arccos m + 1e-3, pi)):
        # the cells there are kept alike, with m negative, where the
        # threshold clamps, and where the cheaper bound is tightest (2 h
        # near pi/2).
        radial, around = np.full((2, 4), m), np.full((3, 3), m)
        edge = np.cos(np.minimum(2.0 * np.arccos(np.clip(m, -1.0, 1.0)) + 1e-3, np.pi))
        dots = np.full((3, 4), edge)
        if step:
            dots = np.nextafter(dots, step * np.inf)
        got = inv_mod._near_cells(dots, radial, around)
        expected = reference_near_cells(dots, radial, around)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))
        assert expected[0].size == (6 if step >= 0 else 0)

    @staticmethod
    def _gnomonic_annulus(R=4, K=8):
        # Ring i at planar radius 1 + i, sample j at angle 2 pi j / K,
        # centrally projected: the geodesic image triangles are the images
        # of the planar ones, so a direction lies in one cell only.
        r = 1.0 + np.arange(R + 1)[:, None]
        t = 2.0 * np.pi * np.arange(K) / K
        return normalized(np.stack(
            [r * np.cos(t), r * np.sin(t), np.full((R + 1, K), 10.0)], axis=-1))

    def test_the_wrapped_cell_alone(self):
        # s lies between rings 1 and 2 and between columns K - 1 and 0, in
        # the cell across the seam.  The rings run counterclockwise about
        # the outward normal, the chart's order, which counts -1; read in
        # the other direction they count +1.
        grid = self._gnomonic_annulus()
        K = grid.shape[1]
        s = normalized([2.5 * np.cos(np.pi / K), -2.5 * np.sin(np.pi / K), 10.0])
        assert counted(grid, s) == reference_grid_count(grid, s) == -1
        mirrored = grid[:, ::-1]
        assert counted(mirrored, s) == reference_grid_count(mirrored, s) == 1

    def test_no_near_cell(self):
        grid = self._gnomonic_annulus()
        for s in ([0.0, 0.0, -1.0], [1.0, 0.0, 0.0]):
            assert counted(grid, normalized(s)) == 0
            assert reference_grid_count(grid, normalized(s)) == 0

    @pytest.mark.parametrize("case_id", range(4))
    def test_corpus_faces_at_the_retry_directions(self, case_id):
        # One certify corpus case of each solid.  At s itself the whole
        # rho = 0 ring of every face lands on s; at the turned directions
        # the count on the resolved grid is the face's wrapping number.
        corpus = _bench_corpus().Corpus(1, with_field=True, file_dir=None)
        case = corpus.case(case_id)
        s = case.expected.s
        for a in range(len(case.phat.cleaved_faces)):
            grid = FaceGrid(case.field, (CLEAVED, a))
            w, used = first_resolved(grid, s, 6)
            values = grid.values(used)
            assert w == case.expected.wrapping_numbers[a]
            with pytest.raises(errors.NotRegularValue):
                counted(values, s)
            # A turned direction may lie on the image of a radial edge from
            # s, shared by two image triangles: such a direction is refused.
            counts = [grid_count(values, turned(s, k))
                      for k in range(1, inv_mod.PREIMAGE_ATTEMPTS + 1)]
            assert counts != [None] * len(counts)
            for k, got in enumerate(counts, 1):
                assert got is None or got == reference_grid_count(values, turned(s, k)) == w

    def test_a_collapsed_triangle_refuses_nothing(self):
        # Corpus seed 2, case 6, face 0 at the third turned direction: the
        # only exact-zero side is that of a triangle with two equal nodes
        # on the rho = 0 ring (c00 == c01), which has no interior.
        case = _bench_corpus().Corpus(2, with_field=True, file_dir=None).case(6)
        s = case.expected.s
        grid = FaceGrid(case.field, (CLEAVED, 0))
        w, used = first_resolved(grid, s, 6)
        values, s_3 = grid.values(used), turned(s, 3)
        c00, c01, c11 = values[0], np.roll(values[0], -1, axis=0), np.roll(values[1], -1, axis=0)
        side = fields_mod._dot(cross(c00, c11).T, s_3)
        assert np.any((c00 == c01).all(axis=1) & (side == 0.0))
        assert counted(values, s_3) == reference_grid_count(values, s_3) == w


class TestTrappedAreas:
    def test_octant_corner(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=3)
        assert triangle_sigma([1, 0, 0], [0, 1, 0], [0, 0, 1], s) == 0
        inv = crafted_invariants(cube_phat, s)
        adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        assert tt.trapped_area_from_invariants(inv, cube_phat, 0) == pytest.approx(
            np.pi / 2, abs=1e-12)
        assert tt.trapped_area_direct(field, 0, depth=6) == pytest.approx(
            np.pi / 2, abs=1e-10)

    def test_each_wrap_adds_4pi(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=3)
        base = None
        for w in (0, 1, 2):
            inv = crafted_invariants(cube_phat, s,
                                     wrap=(w, 0, 0, 0, 0, 0, 0, -w))
            value = tt.trapped_area_from_invariants(inv, cube_phat, 0)
            if base is None:
                base = value
                assert value == pytest.approx(np.pi / 2, abs=1e-12)
            else:
                assert value == pytest.approx(base + 4.0 * np.pi * w, abs=1e-12)

    def test_closed_form_matches_quadrature(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=2)
        report = tt.extract_all(field, s=inv.s, depth=5)
        assert report.trapped_max_disagreement < 2e-2

    def test_direct_route_reuses_the_area_sums(self, cube_phat, monkeypatch):
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        area_sum = fields_mod.FaceGrid.area_sum
        kernel = fields_mod._grid_area_sum
        sums, owners = [], {}

        def reading(grid, depth):
            owners.setdefault(grid.key, set()).add(id(grid))
            return area_sum(grid, depth)

        def counting(dots):
            planes, radial, _ = dots
            digest = hashlib.sha1(np.ascontiguousarray(planes).tobytes()).hexdigest()
            sums.append((digest, radial.shape[0]))
            return kernel(dots)

        monkeypatch.setattr(fields_mod.FaceGrid, "area_sum", reading)
        monkeypatch.setattr(fields_mod, "_grid_area_sum", counting)
        # Every direct area is a reuse of the integral route's sum.
        report = tt.extract_all(field, s=inv.s, depth=5)
        assert len({digest for digest, _ in sums}) == len(sums)
        # Every face summed its depth-5 grid, or a finer one, through the patch.
        assert sum(1 for _, rings in sums if rings >= 2 ** 5) >= 8
        # ... and all routes of a face read one FaceGrid.
        assert len(owners) == 8 and all(len(ids) == 1 for ids in owners.values())
        monkeypatch.undo()
        for a in range(8):
            assert report.trapped_direct[a] == tt.trapped_area_direct(field, a, depth=5)

    def test_default_reads_the_integral_routes_grid(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=3)
        report = tt.extract_all(field, s=inv.s, with_preimage=False)
        for a in range(8):
            grid = FaceGrid(field, (CLEAVED, a))
            grid.planes(4)  # the integral route's climb starts at depth 4
            assert report.trapped_direct[a] == -grid.area_sum(report.wrapping_depths[a])

    def test_default_evaluates_no_grid_past_the_check_level(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=3)
        depths = []

        def level(x):
            # The least d with x * 2**d an integer, up to rounding.
            return next(d for d in range(64) if abs(x * 2 ** d - round(x * 2 ** d)) < 1e-9)

        def counting(key, rho, phi):
            # A ring at rho = i / 2**d and an angle at 2 pi j / (m 2**d) on
            # a face of m sides are depth-d nodes.
            if key[0] == CLEAVED:
                turns = np.ravel(phi) * (field.charts[key].n_segments / (2.0 * np.pi))
                depths.extend(level(x) for x in np.unique(np.append(np.ravel(rho), turns)))
            return field.evaluator(key, rho, phi)

        counted = AnalyticField(host=field.host, charts=field.charts, evaluator=counting)
        report = tt.extract_all(counted, s=inv.s, with_preimage=False)
        # The check of a face resolved at level u evaluates level u + 1.
        assert min(report.wrapping_depths) == 4
        assert max(depths) == max(report.wrapping_depths) + 1 == 7

    def test_invariant_across_reference_choices(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=7)
        values = []
        for k in range(5):
            s_k = tt.choose_reference_s(cube_phat, seed=100 + k)
            omegas = np.array([
                tt.extract_wrapping_integral(field, a, s_k, depth=5)
                for a in range(8)
            ])
            inv_k = InvariantSet(s=s_k, edge_orientations=inv.edge_orientations,
                                 kink_numbers=inv.kink_numbers,
                                 wrapping_numbers=omegas)
            values.append([
                tt.trapped_area_from_invariants(inv_k, cube_phat, a)
                for a in range(8)
            ])
        values = np.asarray(values)
        assert np.max(values.max(axis=0) - values.min(axis=0)) < 1e-6

    def test_closed_form_reuses_the_settled_fan(self, octa_phat, monkeypatch):
        # Seed 430 settles at its second direction.  Each face's fan term
        # is taken once, by the closed form with zero kink and wrapping
        # numbers at the settled s, and read again for trapped_closed.
        _, field = make_representative(octa_phat, seed=1)
        closed_form, calls = inv_mod.trapped_area_from_invariants, []

        def counting(inv, phat, a):
            calls.append(a)
            return closed_form(inv, phat, a)

        monkeypatch.setattr(inv_mod, "trapped_area_from_invariants", counting)
        for s, attempts in ((None, 2), (tt.choose_reference_s(octa_phat, 1430), 1)):
            calls.clear()
            report = tt.extract_all(field, s=s, seed=430, depth=5, with_preimage=False)
            assert report.s_attempts == attempts
            assert calls[-6:] == list(range(6)) and len(calls) <= 6 * attempts
            for a in range(6):
                assert report.trapped_closed[a] == tt.trapped_area_from_invariants(
                    report.invariants, octa_phat, a)

    def test_reference_on_fan_boundary_rejected(self, cube_phat):
        s = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        inv = crafted_invariants(cube_phat, s)
        with pytest.raises(errors.SOnTriangleBoundary):
            tt.trapped_area_from_invariants(inv, cube_phat, 0)

    def test_no_route_runs_at_a_rejected_reference(self, octa_phat, monkeypatch):
        # The first direction of seed 430, (0.193, -0.981, 0), lies on the
        # octahedron's equator, on a fan-triangle boundary of this set.
        _, field = make_representative(octa_phat, seed=1)
        rejected = tt.choose_reference_s(octa_phat, 430)
        calls = []
        # s is argument 2 of the public route and 1 of the grid's helper.
        for name, at in (("extract_wrapping_preimage", 2), ("_integral_at", 1)):
            def spy(*args, _route=getattr(inv_mod, name), _at=at, **kwargs):
                calls.append(np.allclose(args[_at], rejected, rtol=0.0, atol=1e-12))
                return _route(*args, **kwargs)
            monkeypatch.setattr(inv_mod, name, spy)
        report = tt.extract_all(field, seed=430, depth=5)
        assert calls and not any(calls)
        monkeypatch.undo()

        s = report.invariants.s
        assert np.array_equal(s, tt.choose_reference_s(octa_phat, 1430))
        given = tt.extract_all(field, s=s, seed=430, depth=5)
        chosen_doc, given_doc = (report_to_dict(r, octa_phat) for r in (report, given))
        assert given_doc["diagnostics"].pop("reference_given")
        assert not chosen_doc["diagnostics"].pop("reference_given")
        assert (chosen_doc["diagnostics"].pop("s_attempts"),
                given_doc["diagnostics"].pop("s_attempts")) == (2, 1)
        assert chosen_doc == given_doc
        with pytest.raises(errors.SOnTriangleBoundary):
            tt.extract_all(field, s=rejected, seed=430, depth=5)

    def test_parallel_fan_pair_rejected(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=3)
        inv = crafted_invariants(cube_phat, s)
        eps = inv.edge_orientations.copy()
        cycle = cube_phat.fan_edge_cycle(0)
        eps[cycle[1]] = eps[cycle[0]]
        bad = InvariantSet(s=s, edge_orientations=eps,
                           kink_numbers=inv.kink_numbers,
                           wrapping_numbers=inv.wrapping_numbers)
        with pytest.raises(errors.TangentTopoError, match="has parallel edge orientations"):
            tt.trapped_area_from_invariants(bad, cube_phat, 0)


class TestSumRules:
    def test_aligned_square_face_needs_minus_one(self, cube_phat):
        eps = np.zeros((cube_phat.parent.n_edges, 3))
        tf = cube_phat.trunc_faces[0]
        # orient every edge of face 0 along its cycle direction, the
        # rest canonically
        for b in range(cube_phat.parent.n_edges):
            eps[b] = cube_phat.parent.edge_direction(b)
        for seg in tf.segments:
            if seg[0] == "edge":
                d = cube_phat.parent.edge_direction(seg[1])
                eps[seg[1]] = d if seg[2] else -d
        assert face_opposition_count(eps, cube_phat, 0) == 0
        # flip alternating edges: every consecutive pair now opposes
        edges = [seg[1] for seg in tf.segments if seg[0] == "edge"]
        for b in edges[::2]:
            eps[b] = -eps[b]
        assert face_opposition_count(eps, cube_phat, 0) == 4

    def test_verdict_values(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=1)
        verdicts = tt.check_sum_rules(inv, cube_phat)
        assert verdicts.all_ok
        for v in verdicts.kink_rules:
            assert v.required == v.q // 2 - 1 == v.actual

    def test_wrapping_rule(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=1)
        good = InvariantSet(s=inv.s, edge_orientations=inv.edge_orientations,
                            kink_numbers=inv.kink_numbers,
                            wrapping_numbers=np.array([1, -1, 0, 0, 0, 0, 0, 0]))
        assert tt.check_sum_rules(good, cube_phat).wrapping_ok
        bad = InvariantSet(s=inv.s, edge_orientations=inv.edge_orientations,
                           kink_numbers=inv.kink_numbers,
                           wrapping_numbers=np.array([1, 0, 0, 0, 0, 0, 0, 0]))
        assert not tt.check_sum_rules(bad, cube_phat).wrapping_ok


class TestDirectorClass:
    def test_kinks_shared_by_pair(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=2)
        assert inv_mod.antipodal_invariants(inv).kink_numbers == inv.kink_numbers


class TestAntipodalIdentities:
    def test_full_report_relation(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=3)
        rep = tt.extract_all(field, s=inv.s, depth=5)
        anti = tt.extract_all(tt.antipodal(field), s=-inv.s, depth=5)
        assert np.array_equal(anti.invariants.edge_orientations,
                              -rep.invariants.edge_orientations)
        assert anti.invariants.kink_numbers == rep.invariants.kink_numbers
        assert np.array_equal(anti.invariants.wrapping_numbers,
                              -rep.invariants.wrapping_numbers)
        assert np.max(np.abs(anti.trapped_direct + rep.trapped_direct)) < 1e-9
        assert np.max(np.abs(anti.trapped_closed + rep.trapped_closed)) < 1e-9

    def test_fixed_reference_counterexample(self, cube_phat):
        # With the reference held fixed, the antipodal wrapping identity
        # fails whenever the +-reference axis threads a corner's
        # edge-orientation polygon; reading the negated field against
        # the negated reference restores it exactly.
        s = -DIAG
        inv = crafted_invariants(cube_phat, s)
        adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        anti = tt.antipodal(field)
        w_base = [tt.extract_wrapping_integral(field, a, s, depth=5)
                  for a in range(8)]
        w_same = [tt.extract_wrapping_integral(anti, a, s, depth=5)
                  for a in range(8)]
        w_flip = [tt.extract_wrapping_integral(anti, a, -s, depth=5)
                  for a in range(8)]
        assert w_same != [-w for w in w_base]
        assert w_flip == [-w for w in w_base]
        assert sum(w_same) == 0  # the sum rule still holds either way


class TestSerialization:
    def test_invariant_set_round_trip(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=5)
        doc = invariant_set_to_dict(inv, cube_phat)
        again = invariant_set_from_dict(cube_phat, doc)
        assert tt.invariants_equal(inv, again, eps_tol=0.0)
        assert np.array_equal(again.s, inv.s)

    def test_report_is_reingestible(self, tetra_phat, tmp_path):
        # A report names a builtin solid {"builtin": name}, and a solid
        # read from a polyhedron file by its own document; either is read
        # back to a solid of the same entry.
        (tmp_path / "poly.json").write_text(json.dumps(pentagonal_pyramid().to_dict()))
        poly = tt.load_polyhedron(tmp_path / "poly.json")
        pyramid = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        for phat, entry in ((tetra_phat, {"builtin": "tetrahedron"}),
                            (pyramid, poly.to_dict())):
            inv, field = make_representative(phat, seed=4)
            report = tt.extract_all(field, s=inv.s, depth=5)
            doc = report_to_dict(report, phat)
            assert doc["invariants"]["polyhedron"] == entry
            phat2, inv2 = parse_invariants_document(doc)
            assert phat2.parent.entry() == entry
            assert tt.invariants_equal(inv2, inv, eps_tol=0.0)

    def test_report_determinism(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=4)
        r1 = tt.extract_all(field, s=inv.s, depth=5)
        r2 = tt.extract_all(field, s=inv.s, depth=5)
        d1 = report_to_dict(r1, tetra_phat)
        d2 = report_to_dict(r2, tetra_phat)
        assert d1 == d2


class TestTruncationIndependence:
    def test_invariants_agree_across_cut_depths(self):
        poly = tt.builtin_polyhedron("cube")
        reference = None
        for lam in (0.1, 0.2, 0.28):
            phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, lam))
            inv = tt.random_admissible_invariants(phat, seed=12, s=DIAG)
            adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
            field = tt.representative_boundary(adm, phat)
            report = tt.extract_all(field, s=inv.s, depth=5)
            extracted = report.invariants
            if reference is None:
                reference = extracted
            else:
                assert tt.invariants_equal(extracted, reference, eps_tol=0.0)
