"""Seeded benchmark corpus: truncated solids and admissible invariant sets.

Case ``k`` of workload seed ``n`` is a pure function of ``(n, k)``: the
solid and truncation fraction cycle through ``CONFIGS`` and every random
draw comes from ``numpy.random.SeedSequence([n, k])``.  The library
only ever receives the generated inputs (a truncation, an invariant set,
and for the CLI an invariant file).

The reference direction ``s`` is the one the library settles on for a
seeded ``cli_seed``, by the rule of ``extract_all`` when no ``s`` is
given: the first of ``choose_reference_s(phat, cli_seed + 1000 * attempt)``
(at the library's own margin) that sits on no fan-triangle boundary of
the set, where the closed-form trapped area is defined.  A spiral point
can lie exactly on such a boundary (point 498 of the golden spiral has
``z = 0``, on the octahedron's equatorial great circle); given such an
``s``, the library refuses the set with ``SOnTriangleBoundary``, as
documented, and left to choose, it moves on to the next attempt.
``tangent-topo invariants --field --seed <cli_seed>`` therefore reads the
field against the same ``s`` as the input set.

Directions near a face plane (margin ``|s . F|`` below 0.3) make
sampling and quadrature refine, and they are most of what users draw:
of CLI seeds 0-3999, 67% for the cube, 78% for the tetrahedron and
octahedron and 91% for the pentagonal pyramid.  So that a run of a few
cases measures the same mix of work whatever the seed, the draw is
stratified rather than left to chance: case ``k`` re-draws its CLI seed
until the margin falls in stratum ``STRATA[j]``, with ``j`` fixed by
``k``.  Within a stratum the cost still grows fast as the margin
shrinks (a cube case near a face plane takes 0.4 to 1.9 s of integral
work), so case ``k`` draws ``SPREAD`` seeds in its stratum and keeps
the one of margin rank ``r``, with ``r`` also fixed by ``k``:
successive cases of a stratum take its low, middle and high margins in
turn.

The CLI workload draws from the clear stratum only.  Its run holds a
single round of four cases, and near a face plane ``sample_field``
refines some faces by one to three levels, which made a case's field
file up to four times its clear size (7 to 29 MB for the cube at
fraction 0.15) and swung cases per second between 0.059 and 0.083
over five seeds, more than the metric's bound allows.  The two
extraction workloads run a dozen and some seventy cases per run and take
the full mix.

Every aligned ``ROUND`` of four cases holds each solid once and each
stratum once, both truncation fractions twice, and over one ``CYCLE``
each configuration meets every stratum once.  The benchmark runs whole
rounds, so every run has the same mix.

The wrapping numbers are likewise a seeded signed permutation of one
magnitude profile (``0, 1, 2, 3`` in +- pairs, within the default
``max_wrap``), so every case has the same number of ``|w| = 1`` faces,
whose preimage polish dominates the preimage route.  Edge orientations
and kink numbers come from ``random_admissible_invariants`` at its
default magnitudes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import tangent_topo as tt

# Margin |s . F| strata (lower bound inclusive); the library's own
# choose_reference_s never returns a margin below 0.05.
STRATA = ((0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 1.0))
CLEAR = STRATA[-1:]
SPREAD = 4          # margin ranks within a stratum, taken in turn
WRAP_PROFILE = (0, 1, 2, 3)


def pentagonal_pyramid() -> tt.ConvexPolyhedron:
    """A solid with a degree-5 apex and a pentagonal face, as raw data."""
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    verts = [(float(np.cos(t)), float(np.sin(t)), 0.0) for t in ang]
    verts.append((0.0, 0.0, 1.2))
    faces = [[4, 3, 2, 1, 0]] + [[k, (k + 1) % 5, 5] for k in range(5)]
    return tt.ConvexPolyhedron.from_data(verts, faces)


SOLIDS = ("cube", "pyramid5", "tetrahedron", "octahedron")
LAMBDAS = (0.15, 0.25)
CONFIGS = tuple((SOLIDS[i % 4], LAMBDAS[(i + i // 4) % 2]) for i in range(8))
ROUND = len(SOLIDS)                 # == len(STRATA)
CYCLE = len(CONFIGS) * len(STRATA)  # cases until configs and strata repeat


def polyhedron(solid: str) -> tt.ConvexPolyhedron:
    if solid == "pyramid5":
        return pentagonal_pyramid()
    return tt.builtin_polyhedron(solid)


def polyhedron_source(solid: str, poly: tt.ConvexPolyhedron) -> dict:
    """The ``polyhedron`` entry of an invariant file."""
    if solid in tt.BUILTIN_NAMES:
        return {"builtin": solid}
    return poly.to_dict()


@dataclass
class Case:
    """One generated input and the invariant set it must reproduce."""

    case_id: int
    solid: str
    lam: float
    stratum: tuple                   # margin range s was drawn from
    phat: object
    expected: object                 # InvariantSet
    defect: Optional[str] = None     # why the generated set is unusable
    cli_seed: int = 0                # `invariants --seed` that selects s
    field: object = None             # representative field, if built
    inv_path: Optional[Path] = None  # invariant file, cli-roundtrip only


def _library_reference(phat, cli_seed: int, make_set):
    """The set at the direction ``extract_all(seed=cli_seed)`` settles on.

    Mirrors ``extract_all``: six attempts, the last one is kept (and then
    refused by the library) if every attempt sits on a fan boundary."""
    for attempt in range(6):
        inv = make_set(tt.choose_reference_s(phat, cli_seed + 1000 * attempt))
        try:
            for a in range(len(phat.cleaved_faces)):
                tt.trapped_area_from_invariants(inv, phat, a)
        except tt.errors.SOnTriangleBoundary:
            continue
        return inv
    return inv


def _margin(phat, s) -> float:
    return float(np.min(np.abs(phat.parent.face_normals @ s)))


def _reference_direction(rng, phat, lo: float, hi: float, rank: int, make_set):
    """A CLI seed and the set at the direction it selects, with margin in [lo, hi).

    Of ``SPREAD`` seeds whose first direction falls in the band, takes
    the one of rank ``rank`` by margin.  The first direction is the one
    selected unless it sits on a fan boundary, so no set is built before
    the choice."""
    while True:
        drawn = []
        while len(drawn) < SPREAD:
            cli_seed = int(rng.integers(2 ** 31))
            margin = _margin(phat, tt.choose_reference_s(phat, cli_seed))
            if lo <= margin < hi:
                drawn.append((margin, cli_seed))
        cli_seed = sorted(drawn)[rank][1]
        inv = _library_reference(phat, cli_seed, make_set)
        if lo <= _margin(phat, inv.s) < hi:
            return cli_seed, inv


def _wrap_profile(rng, n_faces: int) -> tuple:
    values = []
    for i in range(n_faces // 2):
        m = WRAP_PROFILE[i % len(WRAP_PROFILE)]
        sign = int(rng.choice((-1, 1)))
        values += [sign * m, -sign * m]
    values += [0] * (n_faces % 2)
    return tuple(int(x) for x in rng.permutation(values))


def set_defect(inv, phat) -> Optional[str]:
    """Why ``inv`` is not a complete admissible set of ``phat``, or None."""
    if set(inv.kink_numbers) != set(phat.cleaved_edges):
        return (f"kink set has {len(inv.kink_numbers)} of "
                f"{len(phat.cleaved_edges)} cleaved edges")
    if inv.wrapping_numbers.shape != (len(phat.cleaved_faces),):
        return "wrapping numbers do not cover the corner faces"
    if inv.edge_orientations.shape != (phat.parent.n_edges, 3):
        return "edge orientations do not cover the edges"
    try:
        verdicts = tt.check_sum_rules(inv, phat)
    except (KeyError, tt.errors.TangentTopoError) as exc:
        return f"sum-rule check raised {type(exc).__name__}: {exc}"
    if not verdicts.all_ok:
        return "sum rules fail"
    return None


class Corpus:
    """Cases of one workload seed; truncations are shared across cases."""

    def __init__(self, seed: int, with_field: bool, file_dir: Optional[Path],
                 strata=STRATA):
        self.seed = seed
        self.with_field = with_field
        self.file_dir = file_dir
        self.strata = strata
        self._solids = {}
        self._phats = {}

    def _phat(self, solid: str, lam: float):
        if (solid, lam) not in self._phats:
            if solid not in self._solids:
                self._solids[solid] = polyhedron(solid)
            poly = self._solids[solid]
            spec = tt.TruncationSpec.from_fraction(poly, lam)
            self._phats[(solid, lam)] = tt.truncate(poly, spec)
        return self._phats[(solid, lam)]

    def stratum(self, k: int) -> tuple:
        """The margin range case ``k`` draws its ``s`` from."""
        return self.strata[(k + k // len(CONFIGS)) % len(self.strata)]

    def case(self, k: int) -> Case:
        """Generate case ``k``; a defective set is returned, not skipped."""
        solid, lam = CONFIGS[k % len(CONFIGS)]
        phat = self._phat(solid, lam)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, k]))
        band = self.stratum(k)
        rank = (k + k // ROUND) % SPREAD
        wraps = _wrap_profile(rng, len(phat.cleaved_faces))
        set_seed = int(rng.integers(2 ** 31))

        def make_set(s):
            return tt.random_admissible_invariants(phat, seed=set_seed, s=s,
                                                   wrap_override=wraps)
        cli_seed, inv = _reference_direction(rng, phat, *band, rank, make_set)
        case = Case(k, solid, lam, band, phat, inv, defect=set_defect(inv, phat),
                    cli_seed=cli_seed)
        if case.defect is not None:
            return case
        if self.with_field:
            try:
                adm = tt.AdmissibleInvariants.from_invariants(inv, phat)
                case.field = tt.representative_boundary(adm, phat)
            except tt.errors.TangentTopoError as exc:
                case.defect = f"synthesis raised {type(exc).__name__}: {exc}"
        if self.file_dir is not None:
            case.inv_path = self.file_dir / f"case{k}.inv.json"
            write_invariant_file(case, case.inv_path)
        return case


def write_invariant_file(case: Case, path: Path) -> None:
    """Write the documented ``invariants/1`` file of a case."""
    inv, phat = case.expected, case.phat
    parent = phat.parent
    doc = {
        "format": "invariants/1",
        "polyhedron": polyhedron_source(case.solid, parent),
        "truncation": {"lambda": case.lam},
        "reference_direction": [float(x) for x in inv.s],
        "edge_orientations": {
            str(b): int(np.sign(inv.edge_orientations[b] @ parent.edge_direction(b)))
            for b in range(parent.n_edges)
        },
        "kink_numbers": {f"{a},{c}": int(k)
                         for (a, c), k in sorted(inv.kink_numbers.items())},
        "wrapping_numbers": {str(a): int(w)
                             for a, w in enumerate(inv.wrapping_numbers)},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
