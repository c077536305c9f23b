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
    "cube": "8fe5f9952894c6c41a6216664cba9e687dd2ed708bebe47e2c46bb2398f30c8f",
    "tetrahedron": "875ea885abba708e0a54b9c65c07aeea367f7b9373506cf034f3bc6ad995e1f7",
    "octahedron": "ab2fad1cf96e3fac1956de39fe96627c9882759224b798fa11e1c2cfc46cfc3c",
}
TETRAHEDRON_CLI = {
    "field.json": "f122abdad2f63aab308479c263fa5e8f9d072b2fa93f920879349d0b9991886f",
    "synthesize-report.json": "bea11b4e8598f0c90a00a3498a597c06f6896bda62db80251123846aec8e4d5e",
    "invariants-report.json": "a3f62873e18f6e7ada2cdf13c15d87da4af46c61decabd6fc34ec1befe33e7f0",
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
    doc = report_to_dict(tt.extract_all(field), phat)
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
