"""Span recorder for traced benchmark runs.

``Tracer.install`` wraps public functions and methods of ``tangent_topo``
where the calling module looks them up: every module of the package
that holds a given function object under some name gets the wrapper in
its place, and methods are wrapped on their class.  Each call records a
span (name, start, end, parent span, case id, exception name) in memory,
and the benchmark writes them out when the run ends.  Private helpers are never
wrapped, so the recorder survives refactors of library internals; a
public name that no longer exists is skipped and its metrics read 0.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

# (module, attribute, span name); attribute "Class.method" wraps a method.
TARGETS = (
    ("geometry", "truncate", "geometry.truncate"),
    ("geometry", "PolarChart.locate", "geometry.locate"),
    ("sphere", "triangle_areas", "sphere.triangle_areas"),
    ("sphere", "unwrap_rotation_angle", "sphere.unwrap_rotation_angle"),
    ("fields", "AnalyticField.evaluate", "fields.evaluate.analytic"),
    ("fields", "SampledField.evaluate", "fields.evaluate.sampled"),
    ("fields", "sample_field", "fields.sample_field"),
    ("fields", "save_field", "fields.save_field"),
    ("fields", "load_field", "fields.load_field"),
    ("fields", "validate_tangency", "fields.validate_tangency"),
    ("synthesis", "random_admissible_invariants",
     "synthesis.random_admissible_invariants"),
    ("synthesis", "representative_boundary", "synthesis.representative_boundary"),
    ("invariants", "extract_edge_orientations", "invariants.edge_orientations"),
    ("invariants", "extract_kink", "invariants.kinks"),
    ("invariants", "extract_wrapping_integral", "invariants.wrapping_integral"),
    ("invariants", "extract_wrapping_preimage", "invariants.wrapping_preimage"),
    ("invariants", "trapped_area_direct", "invariants.trapped_direct"),
    ("invariants", "trapped_area_from_invariants", "invariants.trapped_closed"),
    ("invariants", "check_sum_rules", "invariants.sum_rules"),
    ("invariants", "extract_all", "invariants.extract_all"),
    ("invariants", "report_to_dict", "invariants.report_to_dict"),
)

SETUP_CASE = -1    # spans recorded while the corpus is built
REPEAT_CASE = -2   # spans of the determinism re-run, left out of metrics


def _rows(args, kwargs):
    arrays = args[:3] if len(args) >= 3 else [kwargs.get(k) for k in "abc"]
    return max(np.atleast_2d(np.asarray(x)).shape[0] for x in arrays)


def _points(args, kwargs):
    rho = args[2] if len(args) > 2 else kwargs["rho"]
    phi = args[3] if len(args) > 3 else kwargs["phi"]
    return np.broadcast(np.atleast_1d(rho), np.atleast_1d(phi)).size


def _saved_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _depth_sum(args, kwargs, report):
    return int(sum(report.wrapping_depths))


def _none_faces(args, kwargs, report):
    if not kwargs.get("with_preimage", True):
        return 0
    return sum(1 for w in report.wrapping_preimage if w is None)


# Counters taken from a call's arguments (before it runs) or result.
ARG_COUNTERS = {
    "sphere.triangle_areas": {"rows": _rows},
    "fields.evaluate.analytic": {"points": _points},
    "fields.evaluate.sampled": {"points": _points},
}
AFTER_COUNTERS = {
    "fields.save_field": {"bytes": _saved_bytes},
    "invariants.extract_all": {"wrapping_depth_sum": _depth_sum,
                               "preimage_none_faces": _none_faces},
}


class Tracer:
    """In-memory spans plus per-case counters for one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, case, error]
        self.counters = {}   # (case, counter name) -> summed value
        self.case = SETUP_CASE
        self.active = True
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value) -> None:
        key = (self.case, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.case, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = error
        self._stack.pop()

    def _wrap(self, name, fn):
        before = ARG_COUNTERS.get(name, {})
        after = AFTER_COUNTERS.get(name, {})
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            for key, counter in before.items():
                tracer.count(f"{name}.{key}", counter(args, kwargs))
            idx = tracer.open(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(idx, error)
            for key, counter in after.items():
                tracer.count(f"{name}.{key}", counter(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where the package's modules look it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tangent_topo" or n.startswith("tangent_topo."))]
        for mod_name, attr, span in TARGETS:
            home = sys.modules.get(f"tangent_topo.{mod_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, meth, self._wrap(span, fn))
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(span, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    # -- merging and output ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [[case, name, value]
                         for (case, name), value in sorted(self.counters.items())],
        }

    def merge(self, data: dict, parent: int, case: int) -> None:
        """Adopt the spans and counters a child process recorded."""
        offset = len(self.spans)
        for name, start, end, par, _, error in data["spans"]:
            par = parent if par < 0 else par + offset
            self.spans.append([name, start, end, par, case, error])
        for _, name, value in data["counters"]:
            key = (case, name)
            self.counters[key] = self.counters.get(key, 0) + value

    def case_counts(self, case: int) -> dict:
        """Deterministic counts of one case: calls, points and bytes."""
        calls = sum(1 for s in self.spans
                    if s[4] == case and s[0] == "geometry.locate")
        out = {"geometry.locate.calls": calls}
        for (c, name), value in self.counters.items():
            if c == case and (name.endswith(".points") or name.endswith(".bytes")):
                out[name] = value
        return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over every span outside the determinism re-run."""
    spans = tracer.spans
    keep = [s[4] != REPEAT_CASE for s in spans]
    dur = [(s[2] - s[1]) for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def outer(i):
        # A span nested in a span of the same name is already counted.
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    calls, secs, self_secs, ok = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if not keep[i]:
            continue
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        ok[name] = ok.get(name, 0) + (s[5] is None)
        self_secs[name] = self_secs.get(name, 0.0) + dur[i] - child_time[i]
        if outer(i):
            secs[name] = secs.get(name, 0.0) + dur[i]

    counters = {}
    for (case, name), value in tracer.counters.items():
        if case != REPEAT_CASE:
            counters[name] = counters.get(name, 0) + value

    m = {}
    for _, _, span in TARGETS:
        m[f"{span}.s"] = secs.get(span, 0.0)
    m["geometry.locate.calls"] = calls.get("geometry.locate", 0)
    m["sphere.triangle_areas.calls"] = calls.get("sphere.triangle_areas", 0)
    m["sphere.triangle_areas.rows"] = counters.get("sphere.triangle_areas.rows", 0)
    for kind in ("analytic", "sampled"):
        name = f"fields.evaluate.{kind}"
        n = calls.get(name, 0)
        points = counters.get(f"{name}.points", 0)
        m[f"{name}.calls"] = n
        m[f"{name}.points"] = points
        m[f"{name}.points_per_call"] = points / n if n else 0.0
    m["fields.save_field.bytes"] = counters.get("fields.save_field.bytes", 0)
    m["invariants.wrapping_integral.depth_sum"] = counters.get(
        "invariants.extract_all.wrapping_depth_sum", 0)
    attempts = calls.get("invariants.wrapping_preimage", 0)
    m["invariants.wrapping_preimage.attempts"] = attempts
    m["invariants.wrapping_preimage.ok_ratio"] = (
        ok.get("invariants.wrapping_preimage", 0) / attempts if attempts else 0.0)
    m["invariants.wrapping_preimage.none_faces"] = counters.get(
        "invariants.extract_all.preimage_none_faces", 0)
    m["invariants.extract_all.self_s"] = self_secs.get("invariants.extract_all", 0.0)
    for name in ("cli.synthesize", "cli.invariants"):
        m[f"{name}.s"] = secs.get(name, 0.0)
    return m
