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
    "cube": "e52addad5312eb8483a553b70db4dd138ac21dc94c33a8736e03ffac82234868",
    "tetrahedron": "eec1616a64ec6ff9dd824470a93ed24bd20b02a73ccdd0c038289198e2aa6afa",
    "octahedron": "bc2718586e8e9e45043f3d58fbdb0a37ceceb9bc1334cf9e1253af2570435b6f",
}
TETRAHEDRON_CLI = {
    "field.json": "25b2ac56e97d137394f8ad52488e4eff4233cad51a9d35de64e5ecbc39398411",
    "synthesize-report.json": "9c0e7ad2ec0ca87aa5703ff44d2745a583ace7554803c715200defa568767dcb",
    "invariants-report.json": "b4e5637644da3a4d0a69485632d863121b8220c6970de6d12e018f2e21dffc3e",
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
