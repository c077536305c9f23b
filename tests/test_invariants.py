import hashlib

import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo import errors
from tangent_topo import invariants as inv_mod
from tangent_topo.fields import AnalyticField, charts_for
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

from helpers import tangent_perturbation

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
    probe = InvariantSet(s=s, edge_orientations=eps, kink_numbers={},
                         wrapping_numbers=np.zeros(len(phat.cleaved_faces), dtype=int))
    kinks = {}
    for c, tf in enumerate(phat.trunc_faces):
        corners = [seg[1][0] for seg in tf.segments if seg[0] == "cleaved"]
        required = face_opposition_count(probe, phat, c) // 2 - 1
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


def constant_field(phat, vec):
    charts = charts_for(phat)
    vec = np.asarray(vec, dtype=float)
    return AnalyticField(
        host=phat, charts=charts,
        evaluator=lambda key, rho, phi: np.tile(vec, (rho.shape[0], 1)),
    )


class TestChooseReferenceS:
    def test_margin_and_determinism(self, cube_phat):
        s0 = tt.choose_reference_s(cube_phat, seed=0)
        assert s_margin(cube_phat, s0) >= MARGIN_S
        assert np.array_equal(s0, tt.choose_reference_s(cube_phat, seed=0))
        s1 = tt.choose_reference_s(cube_phat, seed=1)
        assert not np.array_equal(s0, s1)

    def test_diagonal_is_admissible_on_cube(self, cube_phat):
        assert s_margin(cube_phat, DIAG) == pytest.approx(1.0 / np.sqrt(3.0))

    def test_axis_is_rejected_on_cube(self, cube_phat):
        assert s_margin(cube_phat, [1.0, 0.0, 0.0]) == 0.0


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
        with pytest.raises(errors.NonConstantEdge):
            tt.extract_edge_orientations(field)


class TestKinks:
    @pytest.mark.parametrize("target", [0, 1, -2])
    def test_prescribed_winding(self, cube_phat, target):
        s = tt.choose_reference_s(cube_phat, seed=0)
        inv = crafted_invariants(cube_phat, s)
        kinks = dict(inv.kink_numbers)
        # move the requirement of face c0 so edge (corner, c0) holds `target`
        (a, c) = (0, cube_phat.cleaved_faces[0].face_chain[0])
        corners = [seg[1][0] for seg in cube_phat.trunc_faces[c].segments
                   if seg[0] == "cleaved"]
        other = [x for x in corners if x != a][-1]
        kinks[(other, c)] -= target - kinks[(a, c)]
        kinks[(a, c)] = target
        inv = InvariantSet(s=s, edge_orientations=inv.edge_orientations,
                           kink_numbers=kinks,
                           wrapping_numbers=inv.wrapping_numbers)
        adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
        field = tt.representative_boundary(adm, cube_phat)
        assert tt.extract_kink(field, a, c) == target

    def test_kinks_survive_antipodal(self, cube_phat):
        inv, field = make_representative(cube_phat, seed=6)
        anti = tt.antipodal(field)
        for (a, c), k in inv.kink_numbers.items():
            assert tt.extract_kink(anti, a, c) == k

    def test_parallel_endpoints_rejected(self, cube_phat):
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        a, c = next(iter(cube_phat.cleaved_edges))
        with pytest.raises(errors.ParallelEndpoints):
            tt.extract_kink(field, a, c)


class TestWrapping:
    def test_constant_face_is_zero(self, cube_phat):
        field = constant_field(cube_phat, [0.0, 0.0, 1.0])
        s = tt.choose_reference_s(cube_phat, seed=0)
        assert tt.extract_wrapping_integral(field, 0, s, depth=4) == 0
        assert tt.extract_wrapping_preimage(field, 0, s, grid_depth=4) == 0

    def test_patch_preimage_is_single_positive(self, cube_phat):
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(1, -1, 0, 0, 0, 0, 0, 0))
        assert tt.extract_wrapping_preimage(field, 0, inv.s) == 1

    def test_retry_compares_routes_at_the_rotated_direction(self, cube_phat,
                                                            monkeypatch):
        # The center of an |w| = 2 covering patch is a critical preimage of s.
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        with pytest.raises(errors.NotRegularValue):
            tt.extract_wrapping_preimage(field, 0, inv.s)
        count, s_k = inv_mod._preimage_with_retries(field, 0, inv.s, 3, 6)
        assert count == 2 and not np.allclose(s_k, inv.s, atol=1e-6)
        assert inv_mod._wrapping_integral_detail(field, 0, s_k)[0] == 2
        assert tt.extract_all(field, s=inv.s).wrapping_preimage[0] == 2

        # An integral route that is off only away from s must be caught.
        integral = inv_mod._wrapping_integral_detail

        def off_at_retries(field, a, s, *args, **kwargs):
            w, res, depth = integral(field, a, s, *args, **kwargs)
            return w + (not np.allclose(s, inv.s, atol=1e-12)), res, depth

        monkeypatch.setattr(inv_mod, "_wrapping_integral_detail", off_at_retries)
        with pytest.raises(errors.DualRouteMismatch):
            tt.extract_all(field, s=inv.s)

    def test_critical_first_seed_fails_before_the_polish(self, cube_phat):
        # Every face's base point maps to s; at w = 2 (face 0) and w = 0
        # (face 2) it is a critical preimage that the first seed exposes.
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        calls = []

        def evaluator(key, rho, phi):
            calls.append(rho.size)
            return field.evaluator(key, rho, phi)

        counted = AnalyticField(host=cube_phat, charts=field.charts,
                                evaluator=evaluator)
        for a in (0, 2):
            calls.clear()
            with pytest.raises(errors.NotRegularValue):
                tt.extract_wrapping_preimage(counted, a, inv.s)
            assert len(calls) <= 3
        count, s_k = inv_mod._preimage_with_retries(counted, 0, inv.s, 3, 6)
        assert count == 2 and not np.allclose(s_k, inv.s, atol=1e-6)

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
        chart2 = tt.polar_chart(cube_phat, key, base_point=base2)
        charts2 = dict(field.charts)
        charts2[key] = chart2

        def evaluator2(face_key, rho, phi):
            if face_key != key:
                return field.evaluate(face_key, rho, phi)
            rr, pp, _ = chart.locate(charts2[key].point(rho, phi))
            return field.evaluate(key, rr, pp)

        field2 = AnalyticField(host=cube_phat, charts=charts2, evaluator=evaluator2)
        assert tt.extract_wrapping_integral(field2, a, inv.s, depth=5) == w_ref


class TestTrappedAreas:
    def test_octant_corner(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=3)
        assert tt.triangle_sigma([1, 0, 0], [0, 1, 0], [0, 0, 1], s) == 0
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
        report = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
        assert report.trapped_max_disagreement < 2e-2

    def test_direct_route_reuses_the_area_sums(self, cube_phat, monkeypatch):
        inv, field = make_representative(
            cube_phat, seed=3, wrap_override=(2, -2, 0, 0, 0, 0, 0, 0))
        areas = inv_mod.triangle_areas
        rows = []

        def counting(a, b, c):
            digest = hashlib.sha1(b"".join(np.ascontiguousarray(x).tobytes()
                                           for x in (a, b, c))).hexdigest()
            rows.append((digest, len(a)))
            return areas(a, b, c)

        monkeypatch.setattr(inv_mod, "triangle_areas", counting)
        # Both routes start at depth 5, so every direct area is a reuse.
        report = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=5)
        assert len({digest for digest, _ in rows}) == len(rows)
        # Every face summed its depth-5 grid, or a finer one, through the patch.
        grid_rows = 2 * 2 ** 5 * 3 * 2 ** 5
        assert sum(n for _, n in rows if n >= grid_rows) >= 8 * grid_rows
        monkeypatch.undo()
        for a in range(8):
            assert report.trapped_direct[a] == tt.trapped_area_direct(field, a, depth=5)

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

    def test_reference_on_fan_boundary_rejected(self, cube_phat):
        s = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        inv = crafted_invariants(cube_phat, s)
        with pytest.raises(errors.SOnTriangleBoundary):
            tt.trapped_area_from_invariants(inv, cube_phat, 0)

    def test_parallel_fan_pair_rejected(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=3)
        inv = crafted_invariants(cube_phat, s)
        eps = inv.edge_orientations.copy()
        cycle = cube_phat.fan_edge_cycle(0)
        eps[cycle[1]] = eps[cycle[0]]
        bad = InvariantSet(s=s, edge_orientations=eps,
                           kink_numbers=inv.kink_numbers,
                           wrapping_numbers=inv.wrapping_numbers)
        with pytest.raises(errors.AntipodalFanPair):
            tt.trapped_area_from_invariants(bad, cube_phat, 0)


class TestSumRules:
    def test_aligned_square_face_needs_minus_one(self, cube_phat):
        s = tt.choose_reference_s(cube_phat, seed=0)
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
        inv = InvariantSet(s=s, edge_orientations=eps, kink_numbers={},
                           wrapping_numbers=np.zeros(8, dtype=int))
        assert face_opposition_count(inv, cube_phat, 0) == 0
        # flip alternating edges: every consecutive pair now opposes
        edges = [seg[1] for seg in tf.segments if seg[0] == "edge"]
        for b in edges[::2]:
            eps[b] = -eps[b]
        inv2 = InvariantSet(s=s, edge_orientations=eps, kink_numbers={},
                            wrapping_numbers=np.zeros(8, dtype=int))
        assert face_opposition_count(inv2, cube_phat, 0) == 4

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
    def test_canonicalizes_pair(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=2)
        anti = tt.antipodal_invariants(inv)
        assert tt.invariants_equal(tt.director_class(inv), tt.director_class(anti))

    def test_kinks_shared_by_pair(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=2)
        assert tt.antipodal_invariants(inv).kink_numbers == inv.kink_numbers

    def test_deterministic_pick(self, cube_phat):
        inv, _ = make_representative(cube_phat, seed=2)
        chosen = tt.director_class(inv)
        assert chosen.comparison_key() <= tt.antipodal_invariants(inv).comparison_key()


class TestAntipodalIdentities:
    def test_full_report_relation(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=3)
        rep = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
        anti = tt.extract_all(tt.antipodal(field), s=-inv.s, depth=5,
                              trapped_depth=6)
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

    def test_report_is_reingestible(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=4)
        report = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
        doc = report_to_dict(report, tetra_phat,
                             poly_source={"builtin": "tetrahedron"})
        poly, spec, phat2, inv2, source = parse_invariants_document(doc)
        assert tt.invariants_equal(inv2, inv, eps_tol=0.0)
        assert source == {"builtin": "tetrahedron"}

    def test_report_determinism(self, tetra_phat):
        inv, field = make_representative(tetra_phat, seed=4)
        r1 = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
        r2 = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
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
            report = tt.extract_all(field, s=inv.s, depth=5, trapped_depth=6)
            extracted = report.invariants
            if reference is None:
                reference = extracted
            else:
                assert tt.invariants_equal(extracted, reference, eps_tol=0.0)
