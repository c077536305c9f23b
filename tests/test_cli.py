import json

import pytest

import tangent_topo as tt
from tangent_topo.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOLUTION,
    EXIT_SUMRULE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from tangent_topo.invariants import invariant_set_to_dict


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
        tt.save_polyhedron(tt.builtin_polyhedron("octahedron"), poly_path)
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

    def test_invariants_from_representative_spec(self, inv_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["invariants", "--inv", str(inv_file), "--depth", "5",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["all_ok"]
        src = json.loads(inv_file.read_text())
        assert doc["invariants"]["wrapping_numbers"] == src["wrapping_numbers"]
        assert doc["invariants"]["kink_numbers"] == src["kink_numbers"]

    def test_minimal_mesh_depth_zero(self, inv_file, tmp_path):
        mesh_path = tmp_path / "mesh.obj"
        assert main(["export-mesh", "--inv", str(inv_file), "--depth", "0",
                     "--out", str(mesh_path)]) == EXIT_OK
        assert mesh_path.read_text().startswith("#")


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
        assert main(["synthesize", "--inv", str(bad),
                     "--out", str(tmp_path / "f.json")]) == EXIT_USAGE

    def test_non_tangent_field_rejected(self, inv_file, tmp_path):
        field_path = tmp_path / "field.json"
        assert main(["synthesize", "--inv", str(inv_file), "--depth", "4",
                     "--seed", "1", "--out", str(field_path)]) == EXIT_OK
        doc = json.loads(field_path.read_text())
        face = next(f for f in doc["faces"] if f["kind"] == "truncated")
        face["vectors"] = [[1.0, 0.0, 0.0] for _ in face["vectors"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["invariants", "--field", str(broken),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("edit", ["zero_rho_steps", "vectors_not_numbers"])
    def test_bad_field_contents_are_validation_errors(self, inv_file, tmp_path, edit):
        field_path = tmp_path / "field.json"
        assert main(["synthesize", "--inv", str(inv_file), "--depth", "4",
                     "--seed", "1", "--out", str(field_path)]) == EXIT_OK
        doc = json.loads(field_path.read_text())
        face = doc["faces"][0]
        if edit == "zero_rho_steps":  # a single ring, consistent in size
            face["rho_steps"] = 0
            face["vectors"] = face["vectors"][:face["phi_steps"]]
            face["positions"] = face["positions"][:face["phi_steps"]]
        else:
            face["vectors"] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["invariants", "--field", str(bad),
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        assert main(["invariants", "--field", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == EXIT_IO

    def test_unknown_mesh_format(self, inv_file, tmp_path):
        assert main(["export-mesh", "--inv", str(inv_file), "--fmt", "stl",
                     "--out", str(tmp_path / "m.stl")]) == EXIT_USAGE

    @pytest.mark.parametrize("edit", ["zero_reference", "missing_wrapping", "list"])
    def test_bad_invariant_contents_are_validation_errors(self, inv_file,
                                                          tmp_path, edit):
        doc = json.loads(inv_file.read_text())
        if edit == "zero_reference":
            doc["reference_direction"] = [0.0, 0.0, 0.0]
        elif edit == "missing_wrapping":
            del doc["wrapping_numbers"]["2"]
        else:
            doc = [doc]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", "--inv", str(bad)]) == EXIT_VALIDATION

    def test_corrupt_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--inv", str(bad)]) == EXIT_IO


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
