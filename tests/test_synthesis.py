import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo.sphere import SphericalPath, mesh_degree
from tangent_topo.synthesis import (
    AdmissibleInvariants,
    covering_patch,
    face_loop_contraction,
    random_admissible_invariants,
    reference_frame,
)

from helpers import polar_sphere_mesh

EZ = np.array([0.0, 0.0, 1.0])


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


class TestLoopContraction:
    def _loop(self, theta_fn, n=128):
        t = np.linspace(0.0, 1.0, n)

        def at(tk):
            tk = np.atleast_1d(np.asarray(tk, dtype=float))
            ang = theta_fn(2.0 * np.pi * tk)
            return np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)

        return SphericalPath(samples=at(t), params=t, refine=at)

    def test_constant_loop(self):
        loop = self._loop(lambda phi: np.zeros_like(phi))
        h = face_loop_contraction(loop, EZ)
        for rho in (0.0, 0.5, 1.0):
            vals = h(np.full(5, rho), np.linspace(0, 1, 5))
            assert np.allclose(vals, [1.0, 0.0, 0.0], atol=1e-12)

    def test_wobble_contracts_to_start(self):
        loop = self._loop(lambda phi: 0.8 * np.sin(phi))
        h = face_loop_contraction(loop, EZ)
        ends = h(np.zeros(9), np.linspace(0, 1, 9))
        assert np.allclose(ends, ends[0], atol=1e-12)
        # the rho = 1 member reproduces the loop at its sample knots
        edge = h(np.ones_like(loop.params), loop.params)
        assert np.allclose(edge, loop.samples, atol=1e-12)

    def test_winding_loop_rejected(self):
        loop = self._loop(lambda phi: phi)
        with pytest.raises(errors.NonzeroWinding):
            face_loop_contraction(loop, EZ)

    def test_out_of_plane_rejected(self):
        t = np.linspace(0.0, 1.0, 16)
        tilted = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
                           np.full_like(t, 0.3)], axis=1)
        loop = SphericalPath(samples=tilted, params=t)
        with pytest.raises(errors.NotInPlane):
            face_loop_contraction(loop, EZ)


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
        bad_s = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)  # orthogonal to ez faces
        broken = tt.InvariantSet(
            s=bad_s, edge_orientations=inv.edge_orientations,
            kink_numbers=inv.kink_numbers, wrapping_numbers=inv.wrapping_numbers,
        )
        with pytest.raises(errors.GeodesicAntipodal):
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
        report = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
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
        anti_inv = tt.antipodal_invariants(inv)
        adm = AdmissibleInvariants.from_invariants(anti_inv, tetra_phat)
        field = tt.representative_boundary(adm, tetra_phat)
        report = tt.extract_all(field, s=anti_inv.s, depth=5, trapped_depth=6)
        assert tt.invariants_equal(report.invariants, anti_inv, eps_tol=0.0)
