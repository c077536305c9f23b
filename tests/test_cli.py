import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tangent_topo as tt
from tangent_topo import errors, fields
from tangent_topo.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOLUTION,
    EXIT_SUMRULE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _depth_arg,
    main,
)
from tangent_topo.fields import MAX_DEPTH, TRUNCATED, SampledField, _grid_axes
from tangent_topo.invariants import invariant_set_to_dict

from helpers import (decode_vectors, encode_vectors, jumped_field, reference_field_text,
                     seam_turned_field)


@pytest.fixture(scope="module")
def inv_file(tmp_path_factory, tetra_phat):
    inv = tt.random_admissible_invariants(
        tetra_phat, seed=5, wrap_override=(1, -1, 0, 0))
    doc = {
        "format": "invariants/1",
        "polyhedron": {"builtin": "tetrahedron"},
        "truncation": {"lambda": 0.25},
    }
    doc.update(invariant_set_to_dict(inv, tetra_phat))
    path = tmp_path_factory.mktemp("cli") / "inv.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


class TestTruncateCommand:
    def test_cube_report(self, tmp_path):
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--poly", "cube", "--lambda", "0.25",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["counts"]["faces"] == 14
        assert doc["counts"]["vertices"] == 24
        assert doc["counts"]["edges"] == 36
        assert doc["counts"]["euler_characteristic"] == 2

    def test_tetrahedron_faces(self, tmp_path):
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--poly", "tetrahedron", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["counts"]["faces"] == 8

    def test_bad_lambda_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["truncate", "--poly", "cube", "--lambda", "0.7",
                  "--out", str(tmp_path / "x.json")])
        assert err.value.code == EXIT_USAGE

    def test_custom_poly_file(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        with open(poly_path, "w", encoding="utf-8") as fh:
            json.dump(tt.builtin_polyhedron("octahedron").to_dict(), fh)
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--poly", str(poly_path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["counts"]["cleaved_faces"] == 6


class TestPipeline:
    def test_synthesize_check_invariants_export(self, inv_file, tmp_path):
        field_path = tmp_path / "field.json"
        report_path = tmp_path / "syn-report.json"
        assert main(["check", "--inv", str(inv_file),
                     "--out", str(tmp_path / "check.json")]) == EXIT_OK
        assert main(["synthesize", "--inv", str(inv_file), "--depth", "4",
                     "--seed", "7", "--out", str(field_path),
                     "--report", str(report_path)]) == EXIT_OK
        assert field_path.exists() and report_path.exists()

        out1 = tmp_path / "report1.json"
        out2 = tmp_path / "report2.json"
        assert main(["invariants", "--field", str(field_path), "--seed", "7",
                     "--depth", "5", "--out", str(out1)]) == EXIT_OK
        assert main(["invariants", "--field", str(field_path), "--seed", "7",
                     "--depth", "5", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

        doc = json.loads(out1.read_text())
        assert doc["verdicts"]["all_ok"]
        assert doc["seed"] == 7
        assert doc["tool_version"] == tt.__version__

        # reports are re-ingestible as invariant input
        assert main(["synthesize", "--inv", str(out1), "--depth", "4",
                     "--seed", "7", "--out", str(tmp_path / "f2.json")]) == EXIT_OK

        mesh_path = tmp_path / "mesh.obj"
        assert main(["export-mesh", "--field", str(field_path), "--depth", "2",
                     "--out", str(mesh_path)]) == EXIT_OK
        assert mesh_path.read_text().count("\nf ") > 0

    def test_field_report_names_the_field_files_solid(self, field_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["invariants", "--field", str(field_file), "--depth", "3",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(field_file.read_text())["polyhedron"] == {"builtin": "tetrahedron"}
        assert json.loads(out.read_text())["invariants"]["polyhedron"] == {
            "builtin": "tetrahedron"}

    def test_invariants_from_representative_spec(self, inv_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["invariants", "--inv", str(inv_file), "--depth", "5",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["all_ok"]
        src = json.loads(inv_file.read_text())
        assert doc["invariants"]["wrapping_numbers"] == src["wrapping_numbers"]
        assert doc["invariants"]["kink_numbers"] == src["kink_numbers"]

    def test_invariants_at_depth_one(self, cube_phat, tmp_path):
        # A depth-1 grid does not resolve this set; the preimage count
        # runs only on a resolved grid, one level above the integral
        # route's, so the two routes agree instead of exiting 5.
        inv = tt.random_admissible_invariants(cube_phat, seed=3)
        doc = {"format": "invariants/1", "polyhedron": {"builtin": "cube"},
               "truncation": {"lambda": 0.25}, **invariant_set_to_dict(inv, cube_phat)}
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["invariants", "--inv", str(inv_path), "--depth", "1",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["invariants"]["wrapping_numbers"] == doc["wrapping_numbers"]
        assert report["wrapping_preimage"] == doc["wrapping_numbers"]

    def test_synthesize_at_depth_zero(self, tetra_phat, tmp_path):
        # Depth 0 samples from depth 1: the whole depth-0 grid, one sample
        # per side on one ring, keeps the quarter-turn bound on corner
        # faces 1 and 2 of this set while their boundary turns between the
        # corners, and the file it made read 2.0 apart at the seams.
        inv = tt.random_admissible_invariants(tetra_phat, seed=3, wrap_override=(0, 0, 0, 0))
        doc = {"format": "invariants/1", "polyhedron": {"builtin": "tetrahedron"},
               "truncation": {"lambda": 0.25}, **invariant_set_to_dict(inv, tetra_phat)}
        inv_path, field_path, out = (tmp_path / name for name in
                                     ("inv.json", "field.json", "report.json"))
        inv_path.write_text(json.dumps(doc))
        assert main(["synthesize", "--inv", str(inv_path), "--depth", "0",
                     "--out", str(field_path)]) == EXIT_OK
        # extract_all with seed 3 settles on the set's own s.
        assert main(["invariants", "--field", str(field_path), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())["invariants"]
        for entry in ("reference_direction", "edge_orientations", "kink_numbers",
                      "wrapping_numbers"):
            assert report[entry] == doc[entry]

    def test_minimal_mesh_depth_zero(self, inv_file, tmp_path):
        mesh_path = tmp_path / "mesh.obj"
        assert main(["export-mesh", "--inv", str(inv_file), "--depth", "0",
                     "--out", str(mesh_path)]) == EXIT_OK
        assert mesh_path.read_text().startswith("#")


@pytest.fixture(scope="module")
def synthesized_field(inv_file):
    path = inv_file.with_name("field.json")
    assert main(["synthesize", "--inv", str(inv_file), "--depth", "4",
                 "--seed", "1", "--out", str(path)]) == EXIT_OK
    return path


FIELD_EDITS = ["zero_rho_steps", "vectors_not_numbers", "huge_rho_steps",
               "infinite_rho_steps", "nan_vector", "zero_vector", "invalid_base64",
               "short_payload", "vectors_as_list"]
V2_ONLY_FIELD_EDITS = ("invalid_base64", "short_payload", "vectors_as_list")


def _edit_field(doc: dict, edit: str) -> dict:
    """``doc`` with its first face block edited in place; the values of a
    ``tangentfield/2`` block are edited as decoded rows and re-encoded."""
    face = doc["faces"][0]
    v2 = doc["format"] == "tangentfield/2"
    vecs = decode_vectors(face["vectors"]) if v2 else face["vectors"]
    if edit == "zero_rho_steps":  # a single ring, consistent in size
        face["rho_steps"] = 0
        vecs = vecs[:face["phi_steps"]]
        if not v2:
            face["positions"] = face["positions"][:face["phi_steps"]]
    elif edit == "huge_rho_steps":  # refused before any grid is built
        face["rho_steps"] = 10 ** 12
    elif edit == "infinite_rho_steps":
        face["rho_steps"] = float("inf")
    elif edit in ("nan_vector", "zero_vector"):
        vecs[3] = [float("nan") if edit == "nan_vector" else 0.0] * 3
    face["vectors"] = encode_vectors(vecs) if v2 else vecs
    if edit == "vectors_not_numbers":
        face["vectors"] = "x"
    elif edit == "invalid_base64":
        face["vectors"] = "*" + face["vectors"][1:]
    elif edit == "short_payload":
        face["vectors"] = encode_vectors(vecs.reshape(-1)[:-1])
    elif edit == "vectors_as_list":
        face["vectors"] = vecs.tolist()
    return doc


class TestErrorPaths:
    def test_sum_rule_violation(self, inv_file, tmp_path):
        doc = json.loads(inv_file.read_text())
        doc["wrapping_numbers"]["0"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["synthesize", "--inv", str(bad),
                     "--out", str(tmp_path / "f.json")]) == EXIT_SUMRULE
        assert main(["check", "--inv", str(bad),
                     "--out", str(tmp_path / "c.json")]) == EXIT_SUMRULE

    def test_wrapping_bound_enforced(self, inv_file, tmp_path):
        doc = json.loads(inv_file.read_text())
        doc["wrapping_numbers"]["0"] = 9
        doc["wrapping_numbers"]["1"] = -9
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        # The set meets the sum rules; the bound is a usage limit.
        assert main(["check", "--inv", str(bad)]) == EXIT_OK
        for command in ("synthesize", "invariants", "export-mesh"):
            assert main([command, "--inv", str(bad),
                         "--out", str(tmp_path / "f.json")]) == EXIT_USAGE, command

    @pytest.mark.parametrize("command", ["invariants", "synthesize", "export-mesh"])
    def test_negative_depth_is_usage_error(self, inv_file, tmp_path, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--inv", str(inv_file), "--depth", "-1",
                  "--out", str(tmp_path / "x.json")])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["invariants", "synthesize", "export-mesh"])
    def test_depth_above_max_depth_is_usage_error(self, inv_file, tmp_path, command):
        # Refused while parsing, before anything is sampled or written.
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as err:
            main([command, "--inv", str(inv_file), "--depth", str(MAX_DEPTH + 1),
                  "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        assert not out.exists()
        assert _depth_arg(str(MAX_DEPTH)) == MAX_DEPTH

    def test_export_mesh_takes_no_seed(self, inv_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["export-mesh", "--inv", str(inv_file), "--seed", "0",
                  "--out", str(tmp_path / "x.obj")])
        assert err.value.code == EXIT_USAGE

    @staticmethod
    def _non_tangent_copy(synthesized_field, tmp_path):
        # The field file with one truncated face's vectors all (1, 0, 0).
        doc = json.loads(synthesized_field.read_text())
        face = next(f for f in doc["faces"] if f["kind"] == "truncated")
        rows = (face["rho_steps"] + 1) * face["phi_steps"]
        face["vectors"] = encode_vectors([[1.0, 0.0, 0.0]] * rows)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        return broken

    def test_non_tangent_field_rejected(self, synthesized_field, tmp_path, capsys):
        broken = self._non_tangent_copy(synthesized_field, tmp_path)
        assert main(["invariants", "--field", str(broken),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        assert "tangency validation failed" in capsys.readouterr().err

    def test_non_tangent_field_rejected_by_export_mesh(self, synthesized_field, tmp_path,
                                                       capsys):
        # The export-mesh twin: the same exit code and diagnostics, no mesh.
        broken = self._non_tangent_copy(synthesized_field, tmp_path)
        mesh = tmp_path / "x.obj"
        assert main(["export-mesh", "--field", str(broken),
                     "--out", str(mesh)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("tangency validation failed:\n")
        assert json.loads(err.split("\n", 1)[1])["ok"] is False
        assert not mesh.exists()

    @staticmethod
    def _lifted_copy(synthesized_field, tmp_path, node):
        # One trimmed face resampled at twice the samples per ring, its node
        # (ring, column) ``node`` of a cleaved segment (ring R on the
        # boundary, column 1 at t = 1/32) lifted 1e-6 off the face plane,
        # written as a field file; the field, its face and the file.
        field, _ = tt.load_field(synthesized_field)
        phat = field.host
        a, c = sorted(phat.cleaved_edges)[0]
        key, chart = (TRUNCATED, c), field.charts[(TRUNCATED, c)]
        R, K = field.values[key].shape[0] - 1, 2 * field.values[key].shape[1]
        rho, phi = _grid_axes(R, K)
        fine = np.ascontiguousarray(field.evaluate(key, rho[:, None], phi))
        ring, column = node(R)
        fine[ring, chart.segment_index("cleaved", (a, c)) * K // chart.n_segments + column] += (
            1e-6 * phat.face_normal(c))
        tilted = SampledField(host=phat, charts=field.charts,
                              values={**field.values, key: fine}, source=field.source)
        path = tmp_path / "tilted.json"
        tt.save_field(tilted, path)
        return tilted, (a, c), path

    def test_kink_row_off_the_face_plane_is_a_validation_error(self, synthesized_field,
                                                               tmp_path, capsys):
        # The lifted boundary node lies on a kink row, which refuses it,
        # and tangency validation reads it at load, as every stored node.
        tilted, (a, c), path = self._lifted_copy(synthesized_field, tmp_path,
                                                 lambda R: (R, 1))
        with pytest.raises(errors.NotInPlane):
            tt.extract_kink(tilted, a, c)
        report = tt.load_field(path)[1]
        assert not report.ok and report.face_normal_dots[c] > fields.TOL_TANGENCY
        assert main(["invariants", "--field", str(path),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        assert "tangency validation failed" in capsys.readouterr().err

    def test_off_plane_node_inside_a_face_is_a_validation_error(self, synthesized_field,
                                                                tmp_path, capsys):
        # A node inside the face, off every depth-4 node and kink row: the
        # depth-4 grid keeps the plane, and only the stored node shows it.
        tilted, (_, c), path = self._lifted_copy(synthesized_field, tmp_path,
                                                 lambda R: (R // 2, 1))
        depth4 = fields.face_grid(tilted, (TRUNCATED, c), fields.TANGENCY_DEPTH)
        assert np.max(np.abs(depth4 @ tilted.host.face_normal(c))) <= fields.TOL_TANGENCY
        loaded, report = tt.load_field(path)
        assert not report.ok
        assert report.face_normal_dots[c] == pytest.approx(1e-6, rel=1e-3)
        assert [d for d, dot in report.face_normal_dots.items()
                if dot > fields.TOL_TANGENCY] == [c]
        assert main(["invariants", "--field", str(path),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("tangency validation failed:\n")
        assert json.loads(err.split("\n", 1)[1])["ok"] is False

    def test_seam_node_off_the_seam_is_a_validation_error(self, cube_phat, tmp_path,
                                                          capsys):
        # A corner-face boundary node turned off its seam between the 17
        # samples per side of a depth-4 read: the seams are read at every
        # stored boundary node, so the file fails validation at load.
        path = tmp_path / "seam.json"
        tt.save_field(seam_turned_field(cube_phat), path)
        assert not tt.load_field(path)[1].ok
        assert main(["invariants", "--field", str(path),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("tangency validation failed:\n")
        assert json.loads(err.split("\n", 1)[1])["worst_continuity"] > fields.TOL_CONTINUITY

    def test_kink_row_past_the_cap_is_a_resolution_failure(self, tetra_phat, tmp_path,
                                                           monkeypatch, capsys):
        # A field file holds no jump, as its grids keep neighbors within a
        # quarter turn, so the loader hands over an analytic field with
        # one on a cleaved row, which passes tangency validation, and the
        # ``source`` a loaded field carries.
        inv = tt.random_admissible_invariants(tetra_phat, seed=5, wrap_override=(1, -1, 0, 0))
        adm = tt.AdmissibleInvariants.from_invariants(inv, tetra_phat)
        jumped = jumped_field(tt.representative_boundary(adm, tetra_phat),
                              *sorted(tetra_phat.cleaved_edges)[0])
        object.__setattr__(jumped, "source", {"builtin": "tetrahedron"})
        monkeypatch.setattr(fields, "load_field",
                            lambda path: (jumped, fields.validate_tangency(jumped)))
        assert main(["invariants", "--field", "jumped.json",
                     "--out", str(tmp_path / "r.json")]) == EXIT_RESOLUTION
        assert "quarter-turn bound" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", FIELD_EDITS)
    def test_bad_field_contents_are_validation_errors(self, synthesized_field, tmp_path,
                                                      capsys, edit):
        # Each edit of a tangentfield/2 document, and of the tangentfield/1
        # document of the same field where the edit applies to it, is a
        # malformed document (not a tangency failure).
        doc = json.loads(synthesized_field.read_text())
        docs = [doc]
        if edit not in V2_ONLY_FIELD_EDITS:
            field, _ = tt.load_field(synthesized_field)
            docs.append(reference_field_text(field, poly_source=field.source,
                                             fmt="tangentfield/1")[0])
        bad = tmp_path / "bad.json"
        for doc in docs:
            bad.write_text(json.dumps(_edit_field(doc, edit)))
            assert main(["invariants", "--field", str(bad),
                         "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION, doc["format"]
            assert capsys.readouterr().err.startswith("validation failure: ")

    def test_missing_file(self, tmp_path):
        assert main(["invariants", "--field", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == EXIT_IO

    def test_unknown_mesh_format(self, inv_file, tmp_path):
        assert main(["export-mesh", "--inv", str(inv_file), "--fmt", "stl",
                     "--out", str(tmp_path / "m.stl")]) == EXIT_USAGE

    @pytest.mark.parametrize("edit", ["zero_reference", "missing_wrapping", "list",
                                      "infinite_wrapping", "infinite_kink",
                                      "infinite_edge_sign", "infinite_reference",
                                      "nan_reference", "short_reference",
                                      "long_reference", "fractional_kink",
                                      "fractional_wrapping", "fractional_edge_sign",
                                      "unknown_wrapping_face", "unknown_edge_sign",
                                      "tilted_edge_vector"])
    def test_bad_invariant_contents_are_validation_errors(self, inv_file,
                                                          tmp_path, edit):
        doc = json.loads(inv_file.read_text())
        inf, nan = float("inf"), float("nan")
        if edit == "zero_reference":
            doc["reference_direction"] = [0.0, 0.0, 0.0]
        elif edit == "missing_wrapping":
            del doc["wrapping_numbers"]["2"]
        elif edit == "list":
            doc = [doc]
        elif edit == "infinite_wrapping":
            doc["wrapping_numbers"]["2"] = inf
        elif edit == "infinite_kink":
            doc["kink_numbers"][next(iter(doc["kink_numbers"]))] = inf
        elif edit == "infinite_edge_sign":
            doc["edge_orientations"]["0"] = inf
        elif edit == "infinite_reference":
            doc["reference_direction"] = [inf, 0.0, 0.0]
        elif edit == "short_reference":
            doc["reference_direction"] = doc["reference_direction"][:2]
        elif edit == "long_reference":
            doc["reference_direction"].append(0.0)
        elif edit == "fractional_kink":
            doc["kink_numbers"][next(iter(doc["kink_numbers"]))] += 0.5
        elif edit == "fractional_wrapping":
            doc["wrapping_numbers"]["2"] = 0.5
        elif edit == "fractional_edge_sign":
            doc["edge_orientations"]["0"] = 1.5
        elif edit == "unknown_wrapping_face":
            doc["wrapping_numbers"]["9"] = 5
        elif edit == "unknown_edge_sign":
            doc["edge_orientations"]["99"] = 7
        elif edit == "tilted_edge_vector":  # 45 degrees off edge 0
            doc["edge_orientation_vectors"]["0"] = [0.0, 0.0, 1.0]
        else:
            doc["reference_direction"][1] = nan
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", "--inv", str(bad)]) == EXIT_VALIDATION
        if edit.endswith("reference"):
            assert main(["invariants", "--inv", str(bad),
                         "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION

    def test_corrupt_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--inv", str(bad)]) == EXIT_IO


def _edit_polyhedron(doc: dict, edit: str) -> object:
    """A ``polyhedron/1`` document with one entry retyped, deleted or
    put out of range."""
    inf, nan = float("inf"), float("nan")
    if edit == "document_is_list":
        return [doc]
    if edit in ("vertices", "faces", "format"):
        doc[edit] = {"vertices": "x", "faces": 7, "format": 1}[edit]
    elif edit.startswith("no_"):
        del doc[edit[3:]]
    elif edit.startswith("vertex_"):
        doc["vertices"][0][0] = {"vertex_text": "x", "vertex_infinite": inf,
                                 "vertex_nan": nan, "vertex_list": [0.0]}[edit]
    elif edit == "short_vertex_row":
        doc["vertices"][0] = [0.0, 0.0]
    elif edit == "face_not_list":
        doc["faces"][0] = 7
    else:
        doc["faces"][0][0] = {"face_index_99": 99, "face_index_negative": -1,
                              "face_index_half": 0.5, "face_index_text": "0",
                              "face_index_huge": 10 ** 30,
                              "face_index_infinite": inf}[edit]
    return doc


POLY_EDITS = ["document_is_list", "vertices", "faces", "format", "no_vertices",
              "no_faces", "vertex_text", "vertex_infinite", "vertex_nan",
              "vertex_list", "short_vertex_row", "face_not_list", "face_index_99",
              "face_index_negative", "face_index_half", "face_index_text",
              "face_index_huge", "face_index_infinite"]


class TestPolyhedronDocuments:
    @pytest.mark.parametrize("edit", POLY_EDITS)
    def test_bad_entry_is_a_validation_error(self, cube_phat, tmp_path, edit):
        poly = _edit_polyhedron(tt.builtin_polyhedron("cube").to_dict(), edit)
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps(poly))
        assert main(["truncate", "--poly", str(poly_path),
                     "--out", str(tmp_path / "t.json")]) == EXIT_VALIDATION

        inv = tt.random_admissible_invariants(cube_phat, seed=1)
        doc = {"format": "invariants/1", "polyhedron": poly,
               "truncation": {"lambda": 0.25}}
        doc.update(invariant_set_to_dict(inv, cube_phat))
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(doc))
        assert main(["check", "--inv", str(inv_path)]) == EXIT_VALIDATION

    def test_unedited_document_is_accepted(self, cube_phat, tmp_path):
        inv = tt.random_admissible_invariants(cube_phat, seed=1)
        doc = {"format": "invariants/1",
               "polyhedron": tt.builtin_polyhedron("cube").to_dict(),
               "truncation": {"lambda": 0.25}}
        doc.update(invariant_set_to_dict(inv, cube_phat))
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(doc))
        assert main(["check", "--inv", str(inv_path),
                     "--out", str(tmp_path / "c.json")]) == EXIT_OK


def _entry_paths(doc, path=()):
    """The path of every entry of a JSON document, the first element
    standing for the rest of its list."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list) and doc:
        children = [(0, doc[0])]
    else:
        return
    for key, value in children:
        yield path + (key,)
        yield from _entry_paths(value, path + (key,))


# Each edit deletes an entry or replaces it by a value of a wrong type.
ENTRY_EDITS = {"delete": None, "text": "x", "null": None, "nan": float("nan"),
               "list": [], "object": {}}


def _edited(doc, path: tuple, edit: str):
    """``doc`` with the entry at ``path`` edited; only the containers on
    the path are copied."""
    head, *rest = path
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    if rest:
        copy[head] = _edited(doc[head], rest, edit)
    elif edit == "delete":
        del copy[head]
    else:
        copy[head] = ENTRY_EDITS[edit]
    return copy


# Entries an invariant document may leave out (``truncation`` then
# defaults to lambda = 0.2).
OPTIONAL_INVARIANT_ENTRIES = [("format",), ("truncation",), ("edge_orientation_vectors",)]


def _document_edits(doc: dict, optional=()):
    return [(path, edit) for path in _entry_paths(doc) for edit in ENTRY_EDITS
            if not (edit == "delete" and path in optional)]


@pytest.fixture(scope="module")
def field_file(tmp_path_factory, tetra_phat):
    # A set whose depth-1 field stays small: its faces refine to 4-16 rings.
    inv = tt.random_admissible_invariants(tetra_phat, seed=3, wrap_override=(0, 0, 0, 0))
    doc = {"polyhedron": {"builtin": "tetrahedron"}, "truncation": {"lambda": 0.25}}
    doc.update(invariant_set_to_dict(inv, tetra_phat))
    inv_path = tmp_path_factory.mktemp("field") / "inv.json"
    inv_path.write_text(json.dumps(doc))
    path = inv_path.with_name("field.json")
    assert main(["synthesize", "--inv", str(inv_path), "--depth", "1",
                 "--out", str(path)]) == EXIT_OK
    return path


class TestDocumentEntries:
    """Every one-entry edit of a valid invariant or field document exits
    with a documented code, usage or validation, and never raises."""

    def test_invariant_document(self, inv_file, tmp_path):
        doc = json.loads(inv_file.read_text())
        bad = tmp_path / "bad.json"
        edits = _document_edits(doc, OPTIONAL_INVARIANT_ENTRIES)
        assert len(edits) > 250
        codes = {}
        for path, edit in edits:
            bad.write_text(json.dumps(_edited(doc, path, edit)))
            codes[path, edit] = main(["check", "--inv", str(bad)])
        assert {k: c for k, c in codes.items() if c not in (EXIT_USAGE, EXIT_VALIDATION)} == {}
        for path in OPTIONAL_INVARIANT_ENTRIES:
            bad.write_text(json.dumps(_edited(doc, path, "delete")))
            assert main(["check", "--inv", str(bad)]) == EXIT_OK, path

    def test_non_finite_cut_plane(self, inv_file, tetra_phat, tmp_path):
        # An invariant document with the solid's cut planes; NaN, Infinity
        # or null in any of their entries is refused by every command that
        # reads the document.
        doc = json.loads(inv_file.read_text())
        doc["truncation"] = tetra_phat.spec.to_dict()
        bad, out = tmp_path / "bad.json", str(tmp_path / "out.json")
        commands = (["check", "--inv", str(bad)],
                    ["invariants", "--inv", str(bad), "--out", out],
                    ["synthesize", "--inv", str(bad), "--depth", "0", "--out", out])
        bad.write_text(json.dumps(doc))
        assert main(commands[0]) == EXIT_OK
        codes = {}
        for entry in ("normals", "points"):
            for a, row in enumerate(doc["truncation"][entry]):
                for j in range(len(row)):
                    for value in (float("nan"), float("inf"), None):
                        edited = json.loads(json.dumps(doc))
                        edited["truncation"][entry][a][j] = value
                        bad.write_text(json.dumps(edited))
                        for argv in commands:
                            codes[entry, a, j, value, argv[0]] = main(argv)
        assert len(codes) == 2 * 4 * 3 * 3 * 3
        assert {k: c for k, c in codes.items() if c != EXIT_VALIDATION} == {}

    def test_field_document(self, field_file, tmp_path):
        doc = json.loads(field_file.read_text())
        bad = tmp_path / "bad.json"
        out = str(tmp_path / "mesh.obj")
        edits = _document_edits(doc)
        assert len(edits) > 100
        codes = {}
        for path, edit in edits:
            bad.write_text(json.dumps(_edited(doc, path, edit)))
            codes[path, edit] = main(["export-mesh", "--field", str(bad), "--depth", "0",
                                      "--out", out])
        assert {k: c for k, c in codes.items() if c not in (EXIT_USAGE, EXIT_VALIDATION)} == {}
        assert main(["export-mesh", "--field", str(field_file), "--depth", "0",
                     "--out", out]) == EXIT_OK


def test_field_extraction_never_imports_numpy_ma(field_file):
    # numpy.ma costs 9-25 ms to import, paid once by each process that
    # loads a field file and extracts its invariants.
    script = ("import sys, tangent_topo as tt\n"
              f"field, diagnostics = tt.load_field({str(field_file)!r})\n"
              "assert diagnostics.ok\n"
              "tt.extract_all(field, seed=0, depth=3)\n"
              "assert 'numpy' in sys.modules and 'numpy.ma' not in sys.modules\n")
    src = str(Path(tt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestSeedHandling:
    def test_env_fallback(self, inv_file, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGENT_TOPO_SEED", "41")
        out = tmp_path / "report.json"
        assert main(["invariants", "--inv", str(inv_file), "--depth", "5",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 41

    def test_flag_overrides_env(self, inv_file, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGENT_TOPO_SEED", "41")
        out = tmp_path / "report.json"
        assert main(["invariants", "--inv", str(inv_file), "--seed", "3",
                     "--depth", "5", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 3

    def test_non_integer_env_is_usage_error(self, inv_file, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGENT_TOPO_SEED", "x")
        assert main(["invariants", "--inv", str(inv_file),
                     "--out", str(tmp_path / "r.json")]) == EXIT_USAGE
