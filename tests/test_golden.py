"""Golden sha256 hashes of report and CLI bytes.

Pinned under Python 3.11.7 and numpy 2.4.6 on x86-64 Linux; another
libm or numpy may round a transcendental function differently in the
last bit and change them.  A change to any field value, area sum or
serialization in the last bit changes them too: such a change is a
deliberate output revision that re-pins the hashes here and records its
before and after numbers in CHANGES.md.
"""
import hashlib
import json

import pytest

import tangent_topo as tt
from tangent_topo.cli import EXIT_OK, main
from tangent_topo.invariants import invariant_set_to_dict, report_to_dict

REPORTS = {
    "cube": "614cece0bb090a8008d1d9c4e8baa6fd132275207f8a89db4e11cf626fdefb71",
    "tetrahedron": "c27c8c25af1132c2bc007c268b618e4094ce9a5986850d67236f2a1553dd382f",
    "octahedron": "b9179b918031d9cc748150486b94cafb2820c043963d0ed0b0e43780392a8712",
}
TETRAHEDRON_CLI = {
    "field.json": "25b2ac56e97d137394f8ad52488e4eff4233cad51a9d35de64e5ecbc39398411",
    "synthesize-report.json": "685c519cd84228a6a1c22516f5b312dc9c4039d4e70b74f781d530db9b09f6bc",
    "invariants-report.json": "85f176d83fe8d8481eb51ab2f79216c95f7d2eef036fd4bf076ebe8a345fa6b1",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _solid(name):
    poly = tt.builtin_polyhedron(name)
    phat = tt.truncate(poly, tt.TruncationSpec.from_fraction(poly, 0.25))
    return phat, tt.random_admissible_invariants(phat, seed=0)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name):
    # The octahedron's first direction of seed 0 lies on a fan-triangle
    # boundary, so its report also pins a re-chosen s (s_attempts 2).
    phat, inv = _solid(name)
    field = tt.representative_boundary(tt.AdmissibleInvariants.from_invariants(inv, phat),
                                       phat)
    doc = report_to_dict(tt.extract_all(field), phat, poly_source={"builtin": name})
    # As the CLI writes a report.
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _sha256(text.encode()) == REPORTS[name]


def test_tetrahedron_cli_bytes(tmp_path):
    phat, inv = _solid("tetrahedron")
    doc = {"format": "invariants/1", "polyhedron": {"builtin": "tetrahedron"},
           "truncation": {"lambda": 0.25}, **invariant_set_to_dict(inv, phat)}
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps(doc))
    paths = {name: tmp_path / name for name in TETRAHEDRON_CLI}
    assert main(["synthesize", "--inv", str(inv_path), "--depth", "3", "--seed", "0",
                 "--out", str(paths["field.json"]),
                 "--report", str(paths["synthesize-report.json"])]) == EXIT_OK
    assert main(["invariants", "--field", str(paths["field.json"]), "--seed", "0",
                 "--out", str(paths["invariants-report.json"])]) == EXIT_OK
    assert {name: _sha256(path.read_bytes()) for name, path in paths.items()} \
        == TETRAHEDRON_CLI
