"""Command-line front end.

Subcommands: ``truncate``, ``invariants``, ``synthesize``, ``check``,
``export-mesh``.  The randomness of ``invariants`` and ``synthesize``
flows from one seed (flag, then the ``TANGENT_TOPO_SEED`` environment
variable, then 0), which is recorded in their reports; identical
configuration and seed produce byte-equal files.  The other commands
draw nothing at random and take no seed.

Exit codes: 0 success / all verdicts pass; 2 usage or configuration
error (including |wrapping| above MAX_WRAPPING, a depth below 0 or above
fields.MAX_DEPTH and a non-integer TANGENT_TOPO_SEED);
3 validation failure (geometry, tangency, schema contents, non-finite
numbers); 4 sum-rule violation; 5 resolution or refinement failure;
6 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, fields, geometry, invariants, synthesis
from .errors import ResolutionTooCoarse, SumRuleViolation, TangentTopoError, load_document

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_SUMRULE = 4
EXIT_RESOLUTION = 5
EXIT_IO = 6

MAX_WRAPPING = 8  # documented limit for synthesized fields


def _lambda_arg(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 0.5):
        raise argparse.ArgumentTypeError(
            f"truncation fraction must be in (0, 0.5), got {value}"
        )
    return value


def _depth_arg(text: str) -> int:
    value = int(text)
    if not 0 <= value <= fields.MAX_DEPTH:
        raise argparse.ArgumentTypeError(
            f"depth must be in [0, {fields.MAX_DEPTH}], got {value}")
    return value


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TANGENT_TOPO_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"TANGENT_TOPO_SEED must be an integer, got {env!r}") from None


def _dump_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_truncate(args) -> int:
    poly = (geometry.builtin_polyhedron(args.poly) if args.poly in geometry.BUILTIN_NAMES
            else geometry.load_polyhedron(args.poly))
    spec = geometry.TruncationSpec.from_fraction(poly, args.lam)
    phat = geometry.truncate(poly, spec)
    report = {
        "format": "truncation-report/1",
        "tool_version": __version__,
        "polyhedron": poly.entry(),
        "truncation": {"lambda": args.lam},
        "counts": {
            "vertices": phat.n_points,
            "edges": phat.n_edges,
            "faces": phat.n_faces,
            "euler_characteristic": phat.n_points - phat.n_edges + phat.n_faces,
            "cleaved_faces": len(phat.cleaved_faces),
            "truncated_faces": len(phat.trunc_faces),
            "truncated_edges": phat.parent.n_edges,
            "cleaved_edges": len(phat.cleaved_edges),
        },
        "points": [[float(x) for x in p] for p in phat.points],
        "truncated_faces": [
            {"face": tf.face, "polygon": list(tf.polygon)} for tf in phat.trunc_faces
        ],
        "cleaved_faces": [
            {"vertex": cf.vertex, "polygon": list(cf.polygon),
             "face_chain": list(cf.face_chain)}
            for cf in phat.cleaved_faces
        ],
    }
    _dump_json(report, args.out)
    return EXIT_OK


def _field_from_args(args):
    """The field and invariant set (None for --field) of --field or --inv
    input; None for a --field file that fails tangency validation."""
    if getattr(args, "field", None):
        field, diagnostics = fields.load_field(args.field)
        if not diagnostics.ok:
            sys.stderr.write("tangency validation failed:\n")
            sys.stderr.write(json.dumps(diagnostics.to_dict(), indent=2, sort_keys=True))
            sys.stderr.write("\n")
            return None
        return field, None
    data = load_document(args.inv, "invariant")
    phat, inv = invariants.parse_invariants_document(data)
    if np.max(np.abs(inv.wrapping_numbers)) > MAX_WRAPPING:
        raise argparse.ArgumentTypeError(
            f"|wrapping| is limited to {MAX_WRAPPING} per face"
        )
    adm = synthesis.AdmissibleInvariants.from_invariants(inv, phat)
    field = synthesis.representative_boundary(adm, phat)
    return field, inv


def cmd_invariants(args) -> int:
    seed = _resolve_seed(args)
    loaded = _field_from_args(args)
    if loaded is None:
        return EXIT_VALIDATION
    field, inv = loaded
    s = inv.s if inv is not None else None
    report = invariants.extract_all(field, s=s, seed=seed, depth=args.depth)
    _dump_json(invariants.report_to_dict(report, field.host), args.out)
    return EXIT_OK if report.verdicts.all_ok else EXIT_SUMRULE


def cmd_synthesize(args) -> int:
    seed = _resolve_seed(args)
    field, inv = _field_from_args(args)  # --inv only: never refused
    sampled = fields.sample_field(field, args.depth)
    fields.save_field(sampled, args.out)
    report = invariants.extract_all(sampled, s=inv.s, seed=seed)
    report_path = args.report or (str(args.out) + ".report.json")
    _dump_json(invariants.report_to_dict(report, field.host), report_path)
    if not invariants.invariants_equal(report.invariants, inv):
        sys.stderr.write("synthesized field does not reproduce the invariants\n")
        return EXIT_RESOLUTION
    return EXIT_OK


def cmd_check(args) -> int:
    data = load_document(args.inv, "invariant")
    phat, inv = invariants.parse_invariants_document(data)
    verdicts = invariants.check_sum_rules(inv, phat)
    out = {
        "format": "sum-rule-check/1",
        "tool_version": __version__,
        "polyhedron": phat.parent.entry(),
        "verdicts": verdicts.to_dict(),
    }
    if args.out:
        _dump_json(out, args.out)
    else:
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if verdicts.all_ok else EXIT_SUMRULE


def cmd_export_mesh(args) -> int:
    if args.fmt != "obj":
        raise argparse.ArgumentTypeError(f"unknown mesh format {args.fmt!r}")
    loaded = _field_from_args(args)
    if loaded is None:
        return EXIT_VALIDATION
    fields.save_mesh_obj(loaded[0], args.out, depth=args.depth)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangent-topo",
        description=(
            "Homotopy invariants of tangent unit-vector fields on "
            "truncated convex polyhedra"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truncate", help="truncate a polyhedron and report it")
    p.add_argument("--poly", required=True,
                   help=f"builtin name {geometry.BUILTIN_NAMES} or a JSON file")
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=0.2,
                   help="truncation fraction in (0, 0.5)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("invariants", help="extract the invariant report of a field")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--field", help="sampled-field JSON file")
    src.add_argument("--inv", help="invariant-set file, extracted from its representative")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=_depth_arg, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("synthesize",
                       help="build the representative field of an invariant set")
    p.add_argument("--inv", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=_depth_arg, default=5,
                   help="sampling depth of the exported field")
    p.add_argument("--out", required=True, help="output field file")
    p.add_argument("--report", default=None,
                   help="report path (default: <out>.report.json)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("check", help="verify the sum rules of an invariant set")
    p.add_argument("--inv", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export-mesh", help="export a field as a viewable mesh")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--field")
    src.add_argument("--inv")
    p.add_argument("--depth", type=_depth_arg, default=4)
    p.add_argument("--fmt", default="obj", help="mesh format (obj)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_mesh)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SumRuleViolation as exc:
        sys.stderr.write(f"sum-rule violation: {exc}\n")
        return EXIT_SUMRULE
    except ResolutionTooCoarse as exc:
        sys.stderr.write(f"resolution failure: {exc}\n")
        return EXIT_RESOLUTION
    except TangentTopoError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
