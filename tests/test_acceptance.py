"""Acceptance suite: one test per release criterion.

Each test prints a single pass line; tolerances are fixed here and
nowhere else.  The randomized corpus (50 admissible invariant sets on
the cube and the tetrahedron, synthesized and re-extracted at
quadrature depth 6) is built once and shared.  Each report reads its
direct trapped areas from the integral route's resolved grid; criterion
5 also checks the closed form against an independent grid, by
``trapped_area_direct`` at depth 7.
"""
import time
from dataclasses import dataclass

import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo.sphere import spherical_triangle_area, triangle_areas

from helpers import (
    icosahedron_mesh,
    lhuilier_signed_area,
    polar_sphere_mesh,
    subdivide_mesh,
    tangent_perturbation,
)

DEPTH = 6
TRAPPED_DEPTH = 7
N_CASES_PER_SOLID = 25


@dataclass
class Case:
    label: str
    phat: object
    invariants: object
    field: object
    report: object


def _corpus_specs():
    for name in ("cube", "tetrahedron"):
        poly = tt.builtin_polyhedron(name)
        phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
        v = len(phat.cleaved_faces)
        for seed in range(N_CASES_PER_SOLID):
            kwargs = {}
            if seed == 0:
                # pin the extreme magnitudes the criteria call for
                kwargs["wrap_override"] = (3, -3) + (0,) * (v - 2)
                kwargs["kink_overrides"] = {0: (3, -3, 0)}
            inv = tt.random_admissible_invariants(phat, seed=seed, **kwargs)
            yield f"{name}/{seed}", phat, inv


@pytest.fixture(scope="module")
def corpus():
    cases = []
    for label, phat, inv in _corpus_specs():
        adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
        field = tt.representative_boundary(adm, phat)
        report = tt.extract_all(field, s=inv.s, depth=DEPTH)
        cases.append(Case(label, phat, inv, field, report))
    kink_max = max(abs(k) for c in cases for k in c.invariants.kink_numbers.values())
    wrap_max = max(int(np.max(np.abs(c.invariants.wrapping_numbers))) for c in cases)
    assert kink_max >= 3 and wrap_max >= 3
    return cases


def test_criterion_1_spherical_primitives():
    start = time.perf_counter()
    ex, ey, ez = np.eye(3)
    assert abs(spherical_triangle_area(ex, ey, ez) - np.pi / 2) < 1e-12

    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 1000:
        a, b, c = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 3)))
        if max(abs(float(u @ w)) for u, w in ((a, b), (b, c), (c, a))) > 1 - 1e-6:
            continue
        area = spherical_triangle_area(a, b, c)
        if abs(area) > 2 * np.pi - 1e-3:
            continue
        worst = max(worst, abs(area - lhuilier_signed_area(a, b, c)))
        assert abs(spherical_triangle_area(b, a, c) + area) < 1e-12
        checked += 1
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1 PASS: octant exact, 1000 triangles "
          f"within {worst:.2e} of the excess oracle, antisymmetry exact, "
          f"{elapsed:.2f}s")


def test_criterion_2_sum_rules():
    # Times its own synthesis plus the extraction the rules need: edge
    # orientations, kink numbers, and integral-route wrapping numbers,
    # all at the stated depth.
    start = time.perf_counter()
    n = 0
    for label, phat, inv in _corpus_specs():
        adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
        field = tt.representative_boundary(adm, phat)
        eps = tt.extract_edge_orientations(field)
        kinks = {ac: tt.extract_kink(field, *ac) for ac in sorted(phat.cleaved_edges)}
        omegas = np.array([
            tt.extract_wrapping_integral(field, a, inv.s, DEPTH)
            for a in range(len(phat.cleaved_faces))
        ])
        extracted = tt.InvariantSet(s=inv.s, edge_orientations=eps,
                                    kink_numbers=kinks, wrapping_numbers=omegas)
        verdicts = tt.check_sum_rules(extracted, phat)
        for v in verdicts.kink_rules:
            assert v.actual == v.q // 2 - 1, label
        assert verdicts.wrapping_total == 0, label
        n += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 2 PASS: kink and wrapping sum rules exact "
          f"on {n} randomized sets, {elapsed:.1f}s at depth {DEPTH}")


def test_criterion_3_round_trip(corpus):
    cases = corpus
    for case in cases:
        got = case.report.invariants
        want = case.invariants
        assert got.kink_numbers == want.kink_numbers, case.label
        assert np.array_equal(got.wrapping_numbers, want.wrapping_numbers), case.label
        dev = float(np.max(np.abs(got.edge_orientations - want.edge_orientations)))
        assert dev <= 1e-9, case.label
    print(f"\n[acceptance] criterion 3 PASS: representative round trip exact "
          f"on all {len(cases)} sets (|omega| up to 3, |kink| up to 3)")


def test_criterion_4_dual_route_wrapping(corpus):
    cases = corpus
    total = 0
    regular = 0
    for case in cases:
        for a, pre in enumerate(case.report.wrapping_preimage):
            total += 1
            if pre is not None:
                regular += 1
                assert pre == int(case.report.invariants.wrapping_numbers[a]), case.label
    rate = regular / total
    assert rate >= 0.9
    print(f"\n[acceptance] criterion 4 PASS: preimage route regular on "
          f"{regular}/{total} faces ({100 * rate:.1f}%), exact agreement on all")


def test_criterion_5_trapped_area_consistency(corpus):
    cases = corpus
    worst = max(case.report.trapped_max_disagreement for case in cases)
    assert worst < 2e-2
    # The report reads its direct areas from the integral route's grid;
    # the closed form is also checked against an independent, deeper one.
    deep = 0.0
    for case in cases:
        for a, closed in enumerate(case.report.trapped_closed):
            direct = tt.trapped_area_direct(case.field, a, depth=TRAPPED_DEPTH)
            deep = max(deep, abs(closed - direct))
    assert deep < 2e-2

    spread = 0.0
    for case in cases[:3]:
        phat = case.phat
        n_faces = len(phat.cleaved_faces)
        values = []
        for k in range(5):
            s_k = tt.choose_reference_s(phat, seed=100 + k)
            omegas = np.array([
                tt.extract_wrapping_integral(case.field, a, s_k, depth=5)
                for a in range(n_faces)
            ])
            inv_k = tt.InvariantSet(
                s=s_k, edge_orientations=case.invariants.edge_orientations,
                kink_numbers=case.invariants.kink_numbers,
                wrapping_numbers=omegas)
            values.append([
                tt.trapped_area_from_invariants(inv_k, phat, a)
                for a in range(n_faces)
            ])
        values = np.asarray(values)
        spread = max(spread, float(np.max(values.max(0) - values.min(0))))
    assert spread < 1e-6
    print(f"\n[acceptance] criterion 5 PASS: closed form vs quadrature within "
          f"{worst:.2e} on the resolved grids and {deep:.2e} at depth "
          f"{TRAPPED_DEPTH}; reference-choice spread {spread:.2e}")


def test_criterion_6_antipodal_identities(corpus):
    cases = corpus
    for case in cases:
        anti = tt.extract_all(tt.antipodal(case.field), s=-case.invariants.s,
                              depth=5, with_preimage=False)
        rep = case.report
        assert np.array_equal(anti.invariants.edge_orientations,
                              -rep.invariants.edge_orientations), case.label
        assert anti.invariants.kink_numbers == rep.invariants.kink_numbers, case.label
        assert np.array_equal(anti.invariants.wrapping_numbers,
                              -rep.invariants.wrapping_numbers), case.label
        assert np.max(np.abs(anti.trapped_direct + rep.trapped_direct)) < 1e-9
        assert np.max(np.abs(anti.trapped_closed + rep.trapped_closed)) < 1e-9
    print(f"\n[acceptance] criterion 6 PASS: edge orientations and wrappings "
          f"negate (wrappings against the negated reference), kinks and "
          f"trapped-area magnitudes preserved, on all {len(cases)} sets")


def test_criterion_7_perturbation_stability(cube_phat):
    inv = tt.random_admissible_invariants(cube_phat, seed=21)
    adm = tt.AdmissibleInvariants.from_invariants(inv, cube_phat)
    field = tt.representative_boundary(adm, cube_phat)
    base = tt.extract_all(field, s=inv.s, depth=5).invariants
    for k in range(20):
        wobbled = tangent_perturbation(field, seed=k, amplitude=0.1)
        got = tt.extract_all(wobbled, s=inv.s, depth=5).invariants
        assert tt.invariants_equal(got, base, eps_tol=0.0), f"perturbation {k}"
    print("\n[acceptance] criterion 7 PASS: 20 tangent homotopies left every "
          "invariant unchanged")


def test_criterion_8_degree_engine():
    assert tt.mesh_degree(icosahedron_mesh()) == 1

    ident = icosahedron_mesh()
    const = tt.ImageMesh(triangles=ident.triangles,
                         images=np.tile(np.ones(3) / np.sqrt(3),
                                        (ident.images.shape[0], 1)))
    assert tt.mesh_degree(const) == 0

    double = polar_sphere_mesh(
        64, 64,
        image_fn=lambda alpha, beta: np.array([
            np.sin(alpha) * np.cos(2 * beta),
            np.sin(alpha) * np.sin(2 * beta),
            np.cos(alpha),
        ]),
    )
    assert tt.mesh_degree(double) == 2
    assert tt.mesh_degree(subdivide_mesh(double)) == 2

    t = double.triangles
    areas, valid = triangle_areas(double.images[t[:, 0]], double.images[t[:, 1]],
                                  double.images[t[:, 2]])
    assert valid.all()
    residual = abs(float(np.sum(areas)) / (4 * np.pi) - 2.0)
    assert residual < 0.02
    print(f"\n[acceptance] criterion 8 PASS: degrees 1/0/2, subdivision "
          f"stable, residual {residual:.2e} at 64x64")


def test_criterion_9_truncation_geometry(cube_phat, tetra_phat, octa_phat):
    assert cube_phat.n_points == 24
    assert cube_phat.n_edges == 36
    assert cube_phat.n_faces == 14
    assert cube_phat.n_points - cube_phat.n_edges + cube_phat.n_faces == 2
    for phat in (cube_phat, tetra_phat, octa_phat):
        phat.validate()
    print("\n[acceptance] criterion 9 PASS: cube 24/36/14 with Euler 2; "
          "closure and alternation hold on cube, tetrahedron, octahedron")
