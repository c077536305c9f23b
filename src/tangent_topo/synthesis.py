"""Construction of representative boundary fields.

Given an invariant set that satisfies both sum rules, this module
builds an analytic tangent field realizing it: constant values on
truncated edges, uniform-speed rotations along cleaved edges, an
angle-lift contraction on trimmed faces (the boundary loop has zero
winding exactly when the kink rule holds, so the contraction is a
plain straight-line homotopy of lifted angles), and on each corner
face a geodesic contraction of the boundary to the antipode of the
reference direction wrapped around an explicit sphere covering whose
multiplicity is the wrapping number.

Only the boundary field is built.  The wrapping sum rule is the
admissibility certificate that an interior extension exists; the
artifact never constructs one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import SumRuleViolation, TangentTopoError
from .fields import CLEAVED, TRUNCATED, AnalyticField
from .geometry import TruncatedPolyhedron, segment_position
from .invariants import (
    InvariantSet,
    check_sum_rules,
    choose_reference_s,
    face_opposition_count,
    s_margin,
)
from .sphere import (TOL_ANTIPODAL, _as_rows, _weighted_planes, cross, geodesic_interpolate,
                     normalized, reference_frame)

# A corner-face boundary value lies on the great circle normal to its
# trimmed face F, so its dot with -s can reach -sqrt(1 - (s . F)**2),
# which geodesic_interpolate refuses from a margin |s . F| just below
# this floor on.
MARGIN_FLOOR = np.sqrt(2.0 * TOL_ANTIPODAL)


def covering_patch(rho, phi, omega, xi, eta, s) -> np.ndarray:
    """Sphere covering of multiplicity ``omega`` in polar face coordinates;
    ``omega`` is an integer, or integers that broadcast against ``phi``.

    Returns ``sin(2 pi rho) cos(omega phi) xi + sin(2 pi rho) sin(omega
    phi) eta + cos(2 pi rho) s``; the value is ``s`` at rho = 0 and
    ``-s`` on the whole rho = 1/2 circle.  ``rho`` and ``phi`` broadcast
    against each other and the result has their broadcast shape + (3,),
    as a moved-axis view of x, y, z planes filled one component at a
    time: each sine and cosine is taken once per entry of the array it
    depends on, so rings ``rho[:, None]`` against angles ``phi`` take
    them once per ring and once per angle.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    sr = np.sin(2.0 * np.pi * rho)
    planes = _weighted_planes((sr * np.cos(omega * phi), np.asarray(xi)),
                              (sr * np.sin(omega * phi), np.asarray(eta)),
                              (np.cos(2.0 * np.pi * rho), np.asarray(s)))
    return _as_rows(planes)


@dataclass(frozen=True)
class AdmissibleInvariants:
    """An invariant set whose sum rules have been verified, with the
    reference frame used by the covering patch."""

    invariants: InvariantSet
    xi: np.ndarray
    eta: np.ndarray

    @classmethod
    def from_invariants(cls, inv: InvariantSet,
                        phat: TruncatedPolyhedron) -> "AdmissibleInvariants":
        verdicts = check_sum_rules(inv, phat)
        if not verdicts.all_ok:
            bad = [v.face for v in verdicts.kink_rules if not v.ok]
            parts = []
            if bad:
                parts.append(f"kink rule fails on faces {bad}")
            if not verdicts.wrapping_ok:
                parts.append(
                    f"wrapping numbers sum to {verdicts.wrapping_total}, not 0"
                )
            raise SumRuleViolation("; ".join(parts))
        if s_margin(phat, inv.s) <= MARGIN_FLOOR:
            raise TangentTopoError(
                "reference direction lies too close to a face plane; "
                "boundary values could hit -s"
            )
        xi, eta = reference_frame(inv.s)
        return cls(invariants=inv, xi=xi, eta=eta)


def _spiral_parts(phat, eps, kinks, a, c):
    ce = phat.cleaved_edges[(a, c)]
    axis = phat.face_normal(c)
    e0 = eps[ce.start_edge]
    e1 = eps[ce.end_edge]
    sin_eta = float(cross(e0, e1) @ axis)
    cos_eta = float(e0 @ e1)
    if abs(sin_eta) < 1e-12:
        raise TangentTopoError(
            f"consecutive edge orientations parallel at corner {a}, face {c}"
        )
    eta = float(np.arctan2(sin_eta, cos_eta))
    total = eta + 2.0 * np.pi * kinks[(a, c)]
    return e0, cross(axis, e0), total


def representative_boundary(
    adm: AdmissibleInvariants,
    phat: TruncatedPolyhedron,
) -> AnalyticField:
    """Analytic boundary field whose invariants are ``adm.invariants``."""
    inv = adm.invariants
    eps = inv.edge_orientations
    s = inv.s
    minus_s = -s
    charts = phat.charts

    # Each cleaved-edge spiral, built once as its trimmed face's loop
    # reaches it and read again by its corner face.
    spirals = {}
    trunc_data = {}
    for c in range(len(phat.trunc_faces)):
        chart = charts[(TRUNCATED, c)]
        normal = phat.face_normal(c)
        segs = chart.segments
        if segs[0].kind == "edge":
            b0 = segs[0].key
        else:
            b0 = segs[-1].key
        u1 = eps[b0]
        u2 = cross(normal, u1)
        knots = [0.0]
        for seg in segs:
            if seg.kind == "edge":
                knots.append(knots[-1])
            else:
                spirals[seg.key] = _spiral_parts(phat, eps, inv.kink_numbers, *seg.key)
                knots.append(knots[-1] + spirals[seg.key][2])
        knots = np.asarray(knots)
        if abs(knots[-1] - knots[0]) > 1e-9:
            raise TangentTopoError(
                f"face {c} boundary loop winds; kink data inconsistent"
            )
        trunc_data[c] = (u1, u2, knots)

    # The spirals of every corner face, stacked: side k of face a is row
    # first[a] + k.
    segs = [charts[(CLEAVED, a)].segments for a in range(len(phat.cleaved_faces))]
    e0s, axcs, totals = (np.asarray(x) for x in zip(*(spirals[seg.key] for face in segs
                                                        for seg in face)))
    sides = np.array([len(face) for face in segs])
    first = np.cumsum(sides) - sides
    omegas = np.asarray(inv.wrapping_numbers, dtype=int)

    xi, eta = adm.xi, adm.eta

    def evaluator(key, rho, phi):
        # Factors of rho alone are taken once per entry of rho, factors
        # of phi alone once per entry of phi (see ``AnalyticField``).
        kind, idx = key
        if kind == TRUNCATED:
            u1, u2, knots = trunc_data[idx]
            k, u = charts[key].segment_position(phi)
            theta = knots[k] + (knots[k + 1] - knots[k]) * u
            full = rho * theta + (1.0 - rho) * knots[0]
            return _as_rows(_weighted_planes((np.cos(full), u1), (np.sin(full), u2)))
        # One face, or several (see fields._build_levels): idx is then an
        # array of face indices that broadcasts against phi.
        shape = np.broadcast_shapes(rho.shape, phi.shape)
        rho, phi, idx = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
                         for x in (rho, phi, np.asarray(idx)))
        if any(n > 1 for n in rho.shape[1:]):
            # rho varies along more than the first axis: point by point.
            rho, phi, idx = (x.ravel() for x in np.broadcast_arrays(rho, phi, idx))
        # The covering fills the rows (rings) with rho < 1/2, the geodesic
        # from -s to the boundary spiral the others.
        lead = np.broadcast_shapes(rho.shape, phi.shape)
        inner = np.broadcast_to(rho.reshape(-1) < 0.5, lead[:1])

        def rows(x, part):
            # The rows ``part`` of x, or x when it broadcasts along rows.
            return x if x.shape[0] == 1 else x[part]

        # Both parts are x, y, z planes, copied into one set of planes.
        out = np.empty((3,) + lead)
        if inner.any():
            out[:, inner] = np.moveaxis(covering_patch(
                rows(rho, inner), rows(phi, inner), omegas[rows(idx, inner)], xi, eta, s), -1, 0)
        outer = ~inner
        if outer.any():
            # The boundary spiral, needed only where rho >= 1/2.
            face = rows(idx, outer)
            k, u = segment_position(rows(phi, outer), sides[face])
            row = first[face] + k
            ang = totals[row] * (1.0 - u)
            bval = np.cos(ang)[..., None] * e0s[row] + np.sin(ang)[..., None] * axcs[row]
            # Left unnormalized: AnalyticField.evaluate normalizes every value.
            out[:, outer] = np.moveaxis(geodesic_interpolate(
                minus_s, bval, 2.0 * rows(rho, outer) - 1.0, normalize=False), -1, 0)
        return _as_rows(out).reshape(shape + (3,))

    evaluator._corner_batches = True
    return AnalyticField(host=phat, charts=charts, evaluator=evaluator)


def random_admissible_invariants(
    phat: TruncatedPolyhedron,
    seed: int = 0,
    max_kink: int = 3,
    max_wrap: int = 3,
    s: Optional[np.ndarray] = None,
    kink_overrides: Optional[Dict[int, Tuple[int, ...]]] = None,
    wrap_override: Optional[Tuple[int, ...]] = None,
) -> InvariantSet:
    """Random invariant set satisfying both sum rules, seeded.

    Edge-orientation signs are uniform; kink numbers are drawn within
    ``max_kink`` and repaired on the last cleaved edge of each face so
    the kink rule holds, and likewise for the wrapping numbers.
    Overrides pin specific faces (keyed by face index, values in the
    face's cleaved-segment order, last entry recomputed) for corpus
    construction.
    """
    rng = np.random.default_rng(seed)
    parent = phat.parent
    signs = rng.integers(0, 2, parent.n_edges) * 2 - 1
    eps = np.array([
        float(signs[b]) * parent.edge_direction(b) for b in range(parent.n_edges)
    ])
    s_vec = normalized(s) if s is not None else choose_reference_s(phat, seed)

    kinks = {}
    for c, tf in enumerate(phat.trunc_faces):
        corners = [seg.key[0] for seg in tf.segments if seg.kind == "cleaved"]
        required = face_opposition_count(eps, phat, c) // 2 - 1
        override = (kink_overrides or {}).get(c)
        for _ in range(1000):
            if override is not None:
                vals = list(override[: len(corners) - 1])
            else:
                vals = list(rng.integers(-max_kink, max_kink + 1, len(corners) - 1))
            last = required - sum(vals)
            if abs(last) <= max_kink or override is not None:
                vals.append(last)
                break
        else:
            # No draw fits max_kink: set the entries from the last one
            # back, each as near the requirement as the bound allows.
            vals.append(0)
            for i in reversed(range(len(vals))):
                vals[i] = int(np.clip(vals[i] + required - sum(vals), -max_kink, max_kink))
            if sum(vals) != required:
                raise SumRuleViolation(f"kink rule of face {c} needs {required} "
                                       f"within max_kink={max_kink}")
        for a, k in zip(corners, vals):
            kinks[(a, c)] = int(k)

    v = len(phat.cleaved_faces)
    if wrap_override is not None:
        omegas = np.asarray(wrap_override, dtype=int)
        if omegas.sum() != 0:
            raise SumRuleViolation("wrap override does not sum to zero")
    else:
        for _ in range(1000):
            vals = rng.integers(-max_wrap, max_wrap + 1, v - 1)
            last = -int(vals.sum())
            if abs(last) <= max_wrap:
                omegas = np.concatenate([vals, [last]])
                break
        else:
            omegas = np.zeros(v, dtype=int)

    return InvariantSet(
        s=s_vec,
        edge_orientations=eps,
        kink_numbers=kinks,
        wrapping_numbers=omegas,
    )
