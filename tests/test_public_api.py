"""Guards on the public surface and on the names the benchmark traces."""
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import tangent_topo as tt
from tangent_topo import cli

PUBLIC = {
    "AdmissibleInvariants", "AnalyticField", "BUILTIN_NAMES", "ConvexPolyhedron",
    "ImageMesh", "InvariantReport", "InvariantSet", "PolarChart", "SampledField",
    "TruncatedPolyhedron", "TruncationSpec", "antipodal", "builtin_polyhedron",
    "check_sum_rules", "choose_reference_s", "errors", "extract_all",
    "extract_edge_orientations", "extract_kink", "extract_wrapping_integral",
    "invariants_equal", "load_field",
    "load_polyhedron", "mesh_degree", "random_admissible_invariants",
    "representative_boundary", "sample_field", "save_field", "save_mesh_obj",
    "trapped_area_direct", "trapped_area_from_invariants", "truncate",
    "validate_tangency",
}

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# Every error class and the exit code and stderr prefix ``cli.main`` gives it.
EXITS = {
    "TangentTopoError": (3, "validation failure"),
    "NotRegularValue": (3, "validation failure"),
    "SumRuleViolation": (4, "sum-rule violation"),
    "ResolutionTooCoarse": (5, "resolution failure"),
    "SOnTriangleBoundary": (5, "resolution failure"),
    "DualRouteMismatch": (5, "resolution failure"),
}


def test_all_is_the_public_surface():
    assert set(tt.__all__) == PUBLIC
    assert len(tt.__all__) == len(PUBLIC)
    for name in tt.__all__:
        assert getattr(tt, name, None) is not None, name


def _bench_spans():
    """``bench/spans.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_trace_targets_resolve():
    # The tracer skips a missing name silently and reports its metrics as 0,
    # so a renamed route would zero a per-layer metric with no failure:
    # every target resolves in its module (a method on its class), and
    # ``Tracer.install`` wraps each of them there.
    spans = _bench_spans()
    homes = []
    for module, attr, _ in spans.TARGETS:
        *owner, name = attr.split(".")
        home = importlib.import_module(f"tangent_topo.{module}")
        for part in owner:
            home = getattr(home, part, None)
            assert home is not None, f"{module}.{attr}"
        fn = getattr(home, name, None)
        assert callable(fn), f"{module}.{attr}"
        homes.append((home, name, fn))
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [name for home, name, fn in homes if getattr(home, name) is fn]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert all(getattr(home, name) is fn for home, name, fn in homes)


def test_bench_error_names_resolve():
    # The bench evaluates an ``except`` clause's class only when a case
    # fails, so a removed name would surface only on a failing case.
    names = {name for path in BENCH.glob("*.py")
             for name in re.findall(r"\berrors\.(\w+)", path.read_text())}
    assert {"TangentTopoError", "DualRouteMismatch"} <= names
    for name in names:
        cls = getattr(tt.errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, Exception), name


def test_error_classes_are_the_exit_table():
    defined = {name for name, obj in vars(tt.errors).items()
               if isinstance(obj, type) and obj.__module__ == tt.errors.__name__}
    assert defined == set(EXITS)


@pytest.mark.parametrize("name", sorted(EXITS))
def test_main_maps_each_error_class_to_its_exit(name, monkeypatch, capsys):
    code, prefix = EXITS[name]

    def refused(args):
        raise getattr(tt.errors, name)("scripted")

    monkeypatch.setattr(cli, "cmd_check", refused)
    assert cli.main(["check", "--inv", "unread.json"]) == code
    assert capsys.readouterr().err == f"{prefix}: scripted\n"


def test_integer_routes_return_int(tetra_phat):
    # The benchmark compares these results with the input set by `!=`.
    inv = tt.random_admissible_invariants(tetra_phat, seed=1,
                                          wrap_override=(1, -1, 0, 0))
    adm = tt.AdmissibleInvariants.from_invariants(inv, tetra_phat)
    field = tt.representative_boundary(adm, tetra_phat)
    a, c = sorted(tetra_phat.cleaved_edges)[0]
    kink = tt.extract_kink(field, a, c)
    wrap = tt.extract_wrapping_integral(field, 0, inv.s, depth=5)
    assert type(kink) is int and kink == inv.kink_numbers[(a, c)]
    assert type(wrap) is int and wrap == 1
