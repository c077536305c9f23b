"""Benchmark: certify homotopy classes of tangent fields on truncated solids.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads, each one closed loop of a single client on one process:

- ``certify``: ``extract_all`` with both wrapping routes on representative
  fields, at the library defaults (``jobs=1``).
- ``certify-integral``: the same cases with ``with_preimage=False``.
- ``cli-roundtrip``: ``tangent-topo synthesize --inv F`` and then
  ``tangent-topo invariants --field``, one subprocess at a time.

Cases come from ``bench/corpus.py``: case ``k`` of seed ``n`` cycles
through four solids at two truncation fractions, and draws its
reference direction from one of four strata of distance to the nearest
face plane (``cli-roundtrip`` only from the one clear of every plane;
see ``bench/corpus.py``).  A run sets up five times (a fresh-interpreter
import plus the first ``corpus.CYCLE`` cases) and reports the median as
set-up time.  It then runs whole rounds of four cases, each round one of
every solid and every stratum, until the time spent in the program is
``--seconds`` to the nearest round; it runs at least one round.

Times are at reference host speed: a fixed kernel (``bench/hostspeed.py``)
is timed before and after each set-up and each case, and the seconds in
between are scaled by its reference time over its mean time around
them.  The host drifts by a quarter over tens of seconds; the scaling
takes most of that drift out of set-up time, the stopping rule and the
throughput, so a seed runs the same rounds whatever the host's speed.

Peak memory is the median over cases of the peak resident set while the
case runs.  Every case is checked: the invariant set comes back exactly,
the sum rules hold, both trapped-area routes agree, and for the CLI the
exit codes are 0 and the first case's report is byte-identical on a
repeat.  A case the program refuses (it raises, exits non-zero, or
the generator returns a defective set) counts as failed; a wrong output
also counts as failed and makes ``correct`` false.

With ``--trace 1`` the run takes the first two cases, runs them once
untraced and once with every public layer function wrapped (see
``bench/spans.py``), re-runs the first case to confirm that the
deterministic counts repeat, and reports per-layer metrics.  Spans are
written to ``.bench_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

WORKLOADS = ("certify", "certify-integral", "cli-roundtrip")
SETUP_REPEATS = 5
TRACE_CASES = 2
TRAPPED_TOL = 2e-2          # acceptance-suite bound on the two trapped-area routes
CLI_TIMEOUT_S = 150.0
PROBE_EVERY_S = 1.0         # program time between host speed probes, at most a round
EXIT_SUMRULE = 4            # documented exit code of `tangent-topo invariants`


def metric_units() -> dict:
    """Name -> unit of every metric that ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# numpy's own import is the same for every commit and dominates the
# probe's noise, so only the library's import is timed.
IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import tangent_topo; "
                "print(time.perf_counter() - t)")


def import_library() -> None:
    """Import the library from this checkout's ``src``; fail loudly if absent."""
    if not (SRC / "tangent_topo" / "__init__.py").is_file():
        sys.exit(f"error: no tangent_topo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tangent_topo
    if SRC.resolve() not in Path(tangent_topo.__file__).resolve().parents:
        sys.exit(f"error: tangent_topo imported from {tangent_topo.__file__}, "
                 f"not from {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return env


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class SelfPeak:
    """Peak resident set of this process over a block, in MB.

    ``ru_maxrss`` cannot be reset between cases, so a thread samples
    ``/proc/self/statm`` every millisecond while the block runs.
    """

    PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20

    @classmethod
    def rss_mb(cls) -> float:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * cls.PAGE_MB

    def __enter__(self):
        self.mb = self.rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.001):
            self.mb = max(self.mb, self.rss_mb())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.mb = max(self.mb, self.rss_mb())


# --- case runners -------------------------------------------------------------
#
# A runner returns (seconds spent in the program, Failure or None).  Only
# the program's work is timed; the checks that follow are not.


@dataclass(frozen=True)
class Failure:
    """Why a case did not verify.

    ``wrong`` marks an output that contradicts the input set; otherwise
    the program refused the case (it raised, exited non-zero, or the
    generator returned a defective set).  Both count as failed cases;
    only a wrong output makes the run incorrect.
    """

    wrong: bool
    message: str

    def __str__(self) -> str:
        return ("wrong: " if self.wrong else "refused: ") + self.message


def refused(message: str) -> Failure:
    return Failure(False, message)


def wrong(message: str | None) -> Failure | None:
    return None if message is None else Failure(True, message)


def check_report(report, expected) -> str | None:
    import tangent_topo as tt
    if not tt.invariants_equal(report.invariants, expected):
        return "extracted invariants differ from the input set"
    if not report.verdicts.all_ok:
        return "sum-rule verdicts fail"
    if not report.trapped_max_disagreement < TRAPPED_TOL:
        return f"trapped areas disagree by {report.trapped_max_disagreement:.3g}"
    return None


def run_extract(case, with_preimage: bool):
    """Time ``extract_all`` on one case and check its report."""
    import tangent_topo as tt
    if case.defect is not None:
        return 0.0, refused(case.defect)
    start = time.perf_counter()
    try:
        report = tt.extract_all(case.field, s=case.expected.s,
                                with_preimage=with_preimage)
    except tt.errors.TangentTopoError as exc:
        message = f"{type(exc).__name__}: {exc}"
        # The two wrapping routes disagreeing is a wrong answer, not a refusal.
        failure = Failure(isinstance(exc, tt.errors.DualRouteMismatch), message)
        return time.perf_counter() - start, failure
    elapsed = time.perf_counter() - start
    return elapsed, wrong(check_report(report, case.expected))


def public_routes(case) -> Failure | None:
    """Kinks and integral wrapping through their public functions.

    ``extract_all`` reaches these routes through private helpers, so the
    traced run times them by calling the public ones on the same field.
    """
    import tangent_topo as tt
    inv = case.expected
    try:
        for (a, c), k in sorted(inv.kink_numbers.items()):
            if tt.extract_kink(case.field, a, c) != k:
                return wrong(f"extract_kink differs on cleaved edge ({a},{c})")
        for a, w in enumerate(inv.wrapping_numbers):
            if tt.extract_wrapping_integral(case.field, a, inv.s) != int(w):
                return wrong(f"extract_wrapping_integral differs on face {a}")
    except tt.errors.TangentTopoError as exc:
        return refused(f"{type(exc).__name__}: {exc}")
    return None


class CliRunner:
    """Runs the CLI pipeline on invariant files, one subprocess at a time."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()
        self.peak_mb = 0.0   # largest child resident set of the last case

    def command(self, args, span: str | None):
        """Run one CLI command; returns (seconds, exit code, stderr).

        The child is reaped with ``os.wait4`` to read its own peak
        resident set."""
        if self.tracer is None or span is None:
            argv = [sys.executable, "-m", "tangent_topo.cli", *args]
            spans_path = None
        else:
            spans_path = self.workdir / "child-spans.json"
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path),
                    "--", *args]
            idx = self.tracer.open(span)
        with open(self.workdir / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read()
        self.peak_mb = max(self.peak_mb, usage.ru_maxrss / 1024.0)
        if spans_path is not None:
            self.tracer.close(idx)
            if spans_path.is_file():
                self.tracer.merge(json.loads(spans_path.read_text()), idx,
                                  self.tracer.case)
                spans_path.unlink()
        return elapsed, code, message

    def run(self, case, repeat: bool = False):
        self.peak_mb = 0.0
        if case.defect is not None:
            return 0.0, refused(case.defect)
        field = self.workdir / f"case{case.case_id}.field.json"
        synth_report = self.workdir / f"case{case.case_id}.synth.json"
        reports = [self.workdir / f"case{case.case_id}.report{i}.json" for i in (1, 2)]
        invariants = ["invariants", "--field", str(field), "--seed", str(case.cli_seed),
                      "--out"]
        try:
            t1, code, err = self.command(
                ["synthesize", "--inv", str(case.inv_path), "--out", str(field),
                 "--report", str(synth_report)], "cli.synthesize")
            if code != 0:
                return t1, refused(f"synthesize exited {code}: {err.strip()[-300:]}")
            t2, code, err = self.command(invariants + [str(reports[0])], "cli.invariants")
            if code != 0:
                # Exit 4: the extracted set of an admissible field fails the sum rules.
                return t1 + t2, Failure(code == EXIT_SUMRULE,
                                        f"invariants exited {code}: {err.strip()[-300:]}")
            if repeat:
                _, code, err = self.command(invariants + [str(reports[1])], None)
                if code != 0 or reports[0].read_bytes() != reports[1].read_bytes():
                    return t1 + t2, wrong("invariants report is not byte-identical "
                                          "on repeat")
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                return t1 + t2, wrong(check_cli_reports(case, synth_report, reports[0]))
        finally:
            for path in (field, synth_report, *reports):
                path.unlink(missing_ok=True)


def check_cli_reports(case, synth_path: Path, report_path: Path) -> str | None:
    """Compare both CLI reports with the input set.

    The synthesize report is taken at the input's reference direction,
    and the field report at the direction that ``--seed`` selects, which
    the corpus chose to be the input's; a CLI that picked another
    direction shows up as differing wrapping numbers.
    """
    import numpy as np
    import tangent_topo as tt
    source = json.loads(case.inv_path.read_text())
    try:
        synth = json.loads(synth_path.read_text())
        field = json.loads(report_path.read_text())
        for name, doc in (("synthesize", synth), ("invariants", field)):
            for key in ("edge_orientations", "kink_numbers", "wrapping_numbers"):
                if doc["invariants"][key] != source[key]:
                    return f"{name} report {key} differ from the input set"
            if not doc["verdicts"]["all_ok"]:
                return f"{name} report sum-rule verdicts fail"
            if not doc["trapped_areas"]["max_disagreement"] < TRAPPED_TOL:
                return f"{name} report trapped-area routes disagree"
        closed = field["trapped_areas"]["closed_form"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    for a in range(len(case.phat.cleaved_faces)):
        expected = tt.trapped_area_from_invariants(case.expected, case.phat, a)
        if not abs(closed.get(str(a), np.inf) - expected) < TRAPPED_TOL:
            return f"trapped area of face {a} differs from the input set"
    return None


# --- runs ----------------------------------------------------------------------


def build_corpus(workload: str, seed: int, workdir: Path, repeats: int):
    """Set up ``repeats`` times: import the library in a fresh interpreter,
    then build the first cycle of cases.  Keeps the last corpus.  Each
    time is scaled to reference host speed by the probes around it."""
    from corpus import CLEAR, CYCLE, STRATA, Corpus
    from hostspeed import at_reference, probe
    cli = workload == "cli-roundtrip"
    times = []
    before = probe()
    for _ in range(repeats):
        imported = import_seconds()
        start = time.perf_counter() - imported
        corpus = Corpus(seed, with_field=not cli, file_dir=workdir if cli else None,
                        strata=CLEAR if cli else STRATA)
        first = [corpus.case(k) for k in range(CYCLE)]
        elapsed = time.perf_counter() - start
        after = probe()
        times.append(at_reference(elapsed, before, after))
        before = after
    return corpus, first, times


def make_runner(workload: str, workdir: Path, tracer=None):
    """A function of a case returning (seconds, Failure or None, peak MB)."""
    if workload == "cli-roundtrip":
        cli = CliRunner(workdir, tracer)

        def run_cli(case):
            return (*cli.run(case, repeat=case.case_id == 0), cli.peak_mb)
        return run_cli

    def run_in_process(case):
        with SelfPeak() as peak:
            elapsed, failure = run_extract(case, workload == "certify")
        return elapsed, failure, peak.mb
    return run_in_process


def timed_run(corpus, first, seconds, runner):
    """Closed loop over whole rounds of cases until the middle of the next
    round would take the program's time at reference speed past
    ``seconds``: the run lasts ``seconds`` to the nearest round.

    Returns the results and the program's time at reference speed.  The
    host speed probe runs before the first case, at the end of every
    round and after any case that ends ``PROBE_EVERY_S`` or more past
    the last probe; the cases in between are scaled by the two probes
    around them.  Untimed checks and repeats do not count, and every
    round has the same mix of solids and strata."""
    from corpus import ROUND
    from hostspeed import at_reference, probe
    results = []
    busy = 0.0
    segment = 0.0      # program seconds since the last probe
    start = time.perf_counter()
    before = probe()
    k = 0
    while True:
        case = first[k] if k < len(first) else corpus.case(k)
        elapsed, failure, peak = runner(case)
        results.append((case, elapsed, failure, peak))
        segment += elapsed
        k += 1
        if segment >= PROBE_EVERY_S or k % ROUND == 0:
            after = probe()
            busy += at_reference(segment, before, after)
            before, segment = after, 0.0
        if k % ROUND:
            continue
        # The wall-clock cap ends a run whose cases all fail at once.
        rounds = k // ROUND
        if busy + busy / rounds / 2 > seconds or time.perf_counter() - start > 2 * seconds:
            return results, busy


def summarize(workload: str, results) -> list:
    """Print every case, its time and any failure, and the fail ratio;
    return the failures."""
    failures = [r[2] for r in results if r[2] is not None]
    for case, elapsed, failure, *_ in results:
        print(f"# case {case.case_id} ({case.solid}, lambda={case.lam}, margin in "
              f"{case.stratum}): {elapsed:.4g} s, "
              + ("ok" if failure is None else f"FAILED {failure}"))
    print(f"# {workload}: {len(results)} cases attempted, {len(failures)} failed, "
          f"fail_ratio {len(failures) / len(results):.4g}")
    return failures


def end_to_end(args, workdir):
    corpus, first, setup_times = build_corpus(args.workload, args.seed, workdir,
                                              SETUP_REPEATS)
    results, busy_ref = timed_run(corpus, first, args.seconds,
                                  make_runner(args.workload, workdir))
    failures = summarize(args.workload, results)
    busy = sum(r[1] for r in results)
    verified = len(results) - len(failures)
    times = sorted(r[1] for r in results)
    peaks = [r[3] for r in results if r[2] is None]
    tail = ""
    if len(times) > 20:
        # The highest percentile with at least ten samples beyond it.
        tail = f", p{100 * (len(times) - 10) // len(times)} {times[-11]:.4g} s"
    print(f"# case_s_p50 {statistics.median(times):.4g} s{tail} over {len(times)} cases; "
          f"set-up samples {[round(t, 4) for t in setup_times]} s")
    print(f"# {verified} verified cases in {busy:.4g} s of program time "
          f"({verified / busy if busy > 0 else 0.0:.4g} cases/s), "
          f"{busy_ref:.4g} s at reference speed")
    metrics = {
        "cases_per_ref_s": verified / busy_ref if busy_ref > 0 else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
    }
    return len(results), failures, metrics, True


def traced_run(args, workdir):
    """Fixed cases untraced, then traced, then the first case again."""
    from spans import REPEAT_CASE, Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    _, first, _ = build_corpus(args.workload, args.seed, workdir, 1)
    cases = first[:TRACE_CASES]
    certify = args.workload != "cli-roundtrip"

    tracer.uninstall()
    plain = make_runner(args.workload, workdir)
    untraced = [plain(case) for case in cases]

    tracer.install()
    runner = make_runner(args.workload, workdir, tracer)

    def trace_case(case, case_id):
        tracer.case = case_id
        elapsed, failure, _ = runner(case)
        if failure is None and certify:
            failure = public_routes(case)
        return case, elapsed, failure

    traced = [trace_case(case, case.case_id) for case in cases]
    trace_case(cases[0], REPEAT_CASE)
    first_counts = tracer.case_counts(cases[0].case_id)
    repeat_counts = tracer.case_counts(REPEAT_CASE)
    tracer.uninstall()

    startup = []
    if not certify:
        cli = CliRunner(workdir)
        startup = [cli.command(["--version"], None)[0] for _ in range(3)]

    results = [(case, t, u[1] or f) for u, (case, t, f) in zip(untraced, traced)]
    failures = summarize(args.workload, results)
    repeated = first_counts == repeat_counts
    if not repeated:
        print(f"# deterministic counts differ on re-run: {first_counts} vs "
              f"{repeat_counts}")
    untraced_s = sum(u[0] for u in untraced)
    traced_s = sum(t for _, t, _ in traced)
    metrics = layer_metrics(tracer)
    metrics.update({
        "cli.startup.s": statistics.median(startup) if startup else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    out = WORK / f"trace-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps({"env": environment(), "workload": args.workload,
                               "seed": args.seed, **tracer.to_dict()}))
    print(f"# spans in {out.relative_to(ROOT)}; tracing overhead "
          f"{traced_s - untraced_s:.4g} s on {untraced_s:.4g} s untraced")
    return len(cases), failures, metrics, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_library()
    print("# env " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced_run if args.trace else end_to_end
        attempted, failures, metrics, consistent = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units()
    print(json.dumps({
        "correct": consistent and not any(f.wrong for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
