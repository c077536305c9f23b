"""Self-tests of the benchmark harness.

Run from the repository root (about four minutes on two cores):

    python3 bench/selftest.py

- Smoke: one short run of every workload, untraced and traced.  The
  result line must name every metric of ``BENCHMARK.json`` with its unit
  and report correct outputs, and the traced run must repeat its
  deterministic counts, within the run and across two runs of one seed.
- Negative: a deliberately wrong expected set must show up as a failed
  case (``failed / attempted`` above zero, ``correct`` false).
- Bare directory: with only ``BENCHMARK.json`` and ``bench/``, the
  benchmark must exit non-zero without printing a result.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("geometry.locate.calls", "fields.evaluate.analytic.points",
                 "fields.evaluate.sampled.points", "fields.save_field.bytes")


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, specs) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0, res
    assert res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)


def test_smoke() -> None:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        check_metrics(result(bench(name, 0)), SPEC["end_to_end"])
        traced = result(bench(name, 1))
        check_metrics(traced, SPEC["per_layer"])  # correct: counts repeated in-run
        if name == "certify":
            again = result(bench(name, 1))
            for key in DETERMINISTIC:
                assert again["metrics"][key] == traced["metrics"][key], key
        print(f"smoke {name}: ok")


def test_wrong_expected_set_fails() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import corpus
    import run
    import tangent_topo as tt

    make_case = corpus.Corpus.case

    def tampered(self, k):
        case = make_case(self, k)
        inv = case.expected
        wrong = inv.wrapping_numbers.copy()
        wrong[0] += 1
        wrong[1] -= 1
        case.expected = tt.InvariantSet(s=inv.s, edge_orientations=inv.edge_orientations,
                                        kink_numbers=dict(inv.kink_numbers),
                                        wrapping_numbers=wrong)
        return case

    corpus.Corpus.case = tampered
    try:
        for name in ("certify-integral", "cli-roundtrip"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["--workload", name, "--seed", "1", "--seconds", "1"])
            res = json.loads(out.getvalue().strip().splitlines()[-1])
            assert res["failed"] >= 1 and res["correct"] is False, res
            assert re.search(r"^# case 0 .*FAILED", out.getvalue(), re.M)
            print(f"negative {name}: fail_ratio {res['failed'] / res['attempted']:.3g}")
    finally:
        corpus.Corpus.case = make_case


def test_bare_directory_fails() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare, env=env)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print("bare directory: exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_bare_directory_fails()
    test_wrong_expected_set_fails()
    test_smoke()
    print("selftest: all passed")
