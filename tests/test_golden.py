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
    "cube": "147c5f5d2c6ca4e2220ffc96f961460469c85b179c03d4948523dce58876b0f9",
    "tetrahedron": "582ce6a77039c5421256bd83a836d102d54a437da2e2668ead08ff850dd77c4e",
    "octahedron": "849284e0c06d6c18ed42388e367e5c07b9726142fa54bca7c7ba89f3b35a72c5",
}
TETRAHEDRON_CLI = {
    "field.json": "f122abdad2f63aab308479c263fa5e8f9d072b2fa93f920879349d0b9991886f",
    "synthesize-report.json": "595e7e7fd71baf22fbfebc42f1a37bbd358eb35f6c5386ce0029e95627c96a4c",
    "invariants-report.json": "04efae091691d846f1a13f469e9a22ced3d1a691d405bc8a510d254a5f502760",
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
