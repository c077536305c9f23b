import gc
import weakref

import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo.fields import CLEAVED, _boundary_ring
from tangent_topo.geometry import polar_chart
from tangent_topo.invariants import antipodal_invariants, s_margin
from tangent_topo.sphere import mesh_degree, normalized, reference_frame, unwrap_rotation_angle
from tangent_topo.synthesis import (
    AdmissibleInvariants,
    covering_patch,
    random_admissible_invariants,
)

from helpers import polar_sphere_mesh


@pytest.fixture(scope="module")
def frame():
    s = np.array([0.3, -0.5, 0.81])
    s = s / np.linalg.norm(s)
    xi, eta = reference_frame(s)
    return s, xi, eta


class TestReferenceFrame:
    def test_orthonormal_left_pair(self, frame):
        s, xi, eta = frame
        assert abs(xi @ s) < 1e-15 and abs(eta @ s) < 1e-15
        assert abs(xi @ eta) < 1e-15
        assert np.allclose(np.cross(xi, eta), -s, atol=1e-15)


class TestCoveringPatch:
    def test_center_is_reference(self, frame):
        s, xi, eta = frame
        for omega in (-2, 0, 3):
            vals = covering_patch(np.zeros(5), np.linspace(0, 2 * np.pi, 5),
                                  omega, xi, eta, s)
            assert np.allclose(vals, s, atol=1e-15)

    def test_half_radius_is_antipode(self, frame):
        s, xi, eta = frame
        for omega in (-2, 0, 3):
            vals = covering_patch(np.full(7, 0.5), np.linspace(0, 2 * np.pi, 7),
                                  omega, xi, eta, s)
            assert np.allclose(vals, -s, atol=1e-12)

    @pytest.mark.parametrize("omega", [-2, -1, 0, 1, 2, 3])
    def test_degree_of_closed_patch(self, frame, omega):
        # identify the disk boundary (where the patch is constant -s)
        # to a point: the patch becomes a sphere map of degree omega.
        # The disk center sits at the domain's south pole.
        s, xi, eta = frame
        mesh = polar_sphere_mesh(
            32, 32,
            image_fn=lambda alpha, beta: covering_patch(
                np.array([(np.pi - alpha) / (2 * np.pi)]), np.array([beta]),
                omega, xi, eta, s,
            )[0],
        )
        assert mesh_degree(mesh) == omega


class TestTrimmedFaceContraction:
    """The angle-lift contraction of every trimmed face."""

    @pytest.fixture(scope="class")
    def case(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=9)
        adm = AdmissibleInvariants.from_invariants(inv, cube_phat)
        return inv, tt.representative_boundary(adm, cube_phat)

    def test_center_is_constant(self, cube_phat, case):
        _, field = case
        phi = np.linspace(0.0, 2.0 * np.pi, 17)
        for c in range(len(cube_phat.trunc_faces)):
            key = ("truncated", c)
            center = field.evaluate(key, np.zeros_like(phi), phi)
            assert np.array_equal(center, np.tile(center[0], (phi.size, 1)))
            # the value the boundary loop starts from, at phi = 0
            start = field.evaluate(key, np.ones(1), np.zeros(1))
            assert np.array_equal(center[:1], start)

    def test_rim_reproduces_the_boundary_loop(self, cube_phat, case):
        inv, field = case
        for c in range(len(cube_phat.trunc_faces)):
            key = ("truncated", c)
            chart = field.charts[key]
            for k, seg in enumerate(chart.segments):
                if seg.kind != "edge":
                    continue
                phi = np.linspace(*chart.segment_span(k), 5)
                rim = field.evaluate(key, np.ones_like(phi), phi)
                assert np.allclose(rim, inv.edge_orientations[seg.key], atol=1e-12)
            loop = _boundary_ring(field, key, np.linspace(0.0, 1.0, 257), [(0.0, 2.0 * np.pi)])
            axis = normalized(cube_phat.face_normal(c))
            angle, bound, in_plane = unwrap_rotation_angle(loop, axis)
            assert bound[0] and in_plane[0]
            assert angle[0] == pytest.approx(0.0, abs=1e-9)

    def test_values_stay_in_the_face_plane(self, cube_phat, case):
        _, field = case
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.0, 1.0, 200)
        phi = rng.uniform(0.0, 2.0 * np.pi, 200)
        for c in range(len(cube_phat.trunc_faces)):
            vals = field.evaluate(("truncated", c), rho, phi)
            assert np.max(np.abs(vals @ cube_phat.face_normal(c))) < 1e-12

    def test_broken_kink_rule_raises_nonzero_winding(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=0)
        kinks = dict(inv.kink_numbers)
        kinks[next(iter(kinks))] += 1
        broken = tt.InvariantSet(
            s=inv.s, edge_orientations=inv.edge_orientations,
            kink_numbers=kinks, wrapping_numbers=inv.wrapping_numbers,
        )
        # Past the sum-rule check, the face loop itself must refuse.
        adm = AdmissibleInvariants(broken, *reference_frame(broken.s))
        with pytest.raises(errors.TangentTopoError, match="boundary loop winds"):
            tt.representative_boundary(adm, cube_phat)


class TestAdmissibility:
    def test_wrapping_rule_enforced(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=0)
        broken = tt.InvariantSet(
            s=inv.s, edge_orientations=inv.edge_orientations,
            kink_numbers=inv.kink_numbers,
            wrapping_numbers=np.array([1, 0, 0, 0, 0, 0, 0, 0]),
        )
        with pytest.raises(errors.SumRuleViolation):
            AdmissibleInvariants.from_invariants(broken, cube_phat)

    def test_kink_rule_enforced(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=0)
        kinks = dict(inv.kink_numbers)
        key = next(iter(kinks))
        kinks[key] += 1
        broken = tt.InvariantSet(
            s=inv.s, edge_orientations=inv.edge_orientations,
            kink_numbers=kinks, wrapping_numbers=inv.wrapping_numbers,
        )
        with pytest.raises(errors.SumRuleViolation):
            AdmissibleInvariants.from_invariants(broken, cube_phat)

    def test_in_plane_reference_rejected(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=0)
        # Edge 0's orientation tilted 1e-7 toward the normals of its two
        # faces: a margin at which a corner-face boundary value comes
        # within TOL_ANTIPODAL of -s.
        f0, f1 = cube_phat.parent.edge_faces[0]
        near = normalized(inv.edge_orientations[0] + 1e-7 * (
            cube_phat.face_normal(int(f0)) + cube_phat.face_normal(int(f1))))
        assert s_margin(cube_phat, near) == pytest.approx(1e-7)
        for bad_s in (np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),  # orthogonal to ez faces
                      near):
            broken = tt.InvariantSet(
                s=bad_s, edge_orientations=inv.edge_orientations,
                kink_numbers=inv.kink_numbers, wrapping_numbers=inv.wrapping_numbers,
            )
            with pytest.raises(errors.TangentTopoError, match="boundary values could hit -s"):
                AdmissibleInvariants.from_invariants(broken, cube_phat)


class TestRandomAdmissible:
    @pytest.mark.parametrize("name", ["cube", "tetrahedron", "octahedron"])
    def test_rules_hold(self, name):
        poly = tt.builtin_polyhedron(name)
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        for seed in range(12):
            inv = random_admissible_invariants(phat, seed=seed)
            assert tt.check_sum_rules(inv, phat).all_ok
            assert max(abs(k) for k in inv.kink_numbers.values()) <= 3
            assert int(np.max(np.abs(inv.wrapping_numbers))) <= 3

    @pytest.mark.parametrize("seed", [0, 4, 5])
    def test_unreachable_kink_rule_raises(self, cube_phat, seed):
        # With max_kink=0 a face whose rule needs +-1 has no admissible set.
        with pytest.raises(errors.SumRuleViolation, match="face"):
            random_admissible_invariants(cube_phat, seed=seed, max_kink=0)

    def test_failed_draws_are_repaired_exactly(self, cube_phat, monkeypatch):
        # Every draw at the top of its range: no random repair succeeds.
        class Extreme:
            def integers(self, low, high, size):
                return np.full(size, high - 1)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Extreme())
        inv = random_admissible_invariants(cube_phat, seed=0, max_kink=1)
        assert set(inv.kink_numbers) == set(cube_phat.cleaved_edges)
        assert max(abs(k) for k in inv.kink_numbers.values()) <= 1
        assert tt.check_sum_rules(inv, cube_phat).all_ok

    def test_deterministic(self, cube_phat):
        a = random_admissible_invariants(cube_phat, seed=17)
        b = random_admissible_invariants(cube_phat, seed=17)
        assert tt.invariants_equal(a, b, eps_tol=0.0)


class TestRepresentative:
    def test_round_trip_tetrahedron(self, tetra_phat):
        inv = random_admissible_invariants(
            tetra_phat, seed=1, wrap_override=(1, -1, 0, 0))
        adm = AdmissibleInvariants.from_invariants(inv, tetra_phat)
        field = tt.representative_boundary(adm, tetra_phat)
        report = tt.extract_all(field, s=inv.s, depth=5)
        assert tt.invariants_equal(report.invariants, inv, eps_tol=0.0)

    def test_seams_continuous(self, cube_phat):
        inv = random_admissible_invariants(cube_phat, seed=2)
        adm = AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        report = tt.validate_tangency(field)
        assert report.worst_continuity < 1e-12
        assert report.worst_normal_dot < 1e-12

    def test_antipodal_image_of_invariants(self, tetra_phat):
        inv = random_admissible_invariants(tetra_phat, seed=4)
        anti_inv = antipodal_invariants(inv)
        adm = AdmissibleInvariants.from_invariants(anti_inv, tetra_phat)
        field = tt.representative_boundary(adm, tetra_phat)
        report = tt.extract_all(field, s=anti_inv.s, depth=5)
        assert tt.invariants_equal(report.invariants, anti_inv, eps_tol=0.0)

    def test_corner_face_evaluates_point_by_point(self, cube_phat):
        inv = random_admissible_invariants(
            cube_phat, seed=3, wrap_override=(2, -2, 1, -1, 0, 0, 0, 0))
        adm = AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        rng = np.random.default_rng(5)
        rho = np.concatenate([[0.0, 0.5 - 1e-12, 0.5, 1.0], rng.uniform(0.0, 1.0, 60)])
        phi = rng.uniform(0.0, 2.0 * np.pi, rho.size)
        inner = rho < 0.5
        for a in range(4):
            key = (CLEAVED, a)
            mixed = field.evaluate(key, rho, phi)
            for part in (inner, ~inner):
                alone = field.evaluate(key, rho[part], phi[part])
                assert mixed[part].tobytes() == alone.tobytes()
            for i in range(0, rho.size, 7):
                single = field.evaluate(key, rho[i], phi[i])
                assert mixed[i].tobytes() == single[0].tobytes()

    def test_field_is_freed_by_reference_counting(self, cube_phat):
        # No reference cycle through the evaluator: a dropped field frees
        # its closure data at once, not at the next cycle collection.
        inv = random_admissible_invariants(cube_phat, seed=3)
        field = tt.representative_boundary(
            AdmissibleInvariants.from_invariants(inv, cube_phat), cube_phat)
        field.evaluate((CLEAVED, 0), np.linspace(0.0, 1.0, 5)[:, None], np.zeros(3))
        ref = weakref.ref(field.evaluator)
        gc.disable()
        try:
            del field
            assert ref() is None
        finally:
            gc.enable()

    def test_fields_on_one_solid_share_its_charts(self, cube_phat):
        # The charts are derived once per truncation and shared read-only.
        fields = [tt.representative_boundary(
            AdmissibleInvariants.from_invariants(
                random_admissible_invariants(cube_phat, seed=seed), cube_phat), cube_phat)
            for seed in (1, 2)]
        assert fields[0].charts is fields[1].charts is cube_phat.charts
        key = (CLEAVED, 0)
        fresh = polar_chart(cube_phat, key)
        assert np.array_equal(fields[0].charts[key].base, fresh.base)
        assert np.array_equal(fields[0].charts[key].corners, fresh.corners)
        with pytest.raises(TypeError):
            fields[0].charts[key] = None
