"""In-memory span recorder that wraps hicrit's layer functions from outside.

Each trace point replaces one function where the calling module resolves it
(``calibrate.hc_scores_sorted_batch``, ``arw.ndtr``, ``cli.ingest_pvalues``,
...), so nothing under ``src/`` carries tracing code. A span records its
name, start, end, parent span, request id, the calls it covered (always 1)
and whether the call failed, plus size counters taken from the arguments.
Spans stay in memory; the benchmark writes them out when the run ends.

This module imports neither numpy nor hicrit at import time, so a fresh
interpreter can time ``import hicrit.cli`` before loading it.
"""

from __future__ import annotations

import importlib
import math
import os
import time


def _kernel_meta(args, kwargs):
    p = args[0]
    alpha0 = args[2] if len(args) > 2 else kwargs.get("alpha0", 0.5)
    rows, n = p.shape
    k_max = int(math.floor(alpha0 * n + 1e-9))
    # Computed from shapes, not measured: the kernel must read each float64
    # of the (rows x k_max) window at least once.
    return {"elems": rows * k_max, "bytes": 8 * rows * k_max}


def _size_meta(args, kwargs):
    a = args[0]
    return {"elems": int(getattr(a, "size", 1))}


def _file_meta(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _profile_meta(args, kwargs):
    reps = args[2] if len(args) > 2 else kwargs.get("replicates", 500)
    return {"reps": int(reps)}


def _shuffle_meta(args, kwargs):
    return {"reps": int(args[1])}


# (module, attribute, span name, counter function). The attribute is looked
# up on the module; "Class.method" patches the method on the class.
TRACE_POINTS = [
    ("hicrit.cli", "dispatch", "cli.dispatch", None),
    ("hicrit.cli", "ingest_pvalues", "_io.ingest", _file_meta),
    ("hicrit.cli", "ingest_labeled", "_io.ingest", _file_meta),
    ("hicrit.cli", "ingest_plain", "_io.ingest", _file_meta),
    ("hicrit.cli", "ingest_pairs", "_io.ingest", _file_meta),
    ("hicrit.cli", "hc_star", "hc_core.series", None),
    ("hicrit.cli", "hc_plus", "hc_core.series", None),
    ("hicrit.cli", "berk_jones", "hc_core.series", None),
    ("hicrit.cli", "avg_likelihood_ratio", "hc_core.series", None),
    ("hicrit.arw", "hc_star", "hc_core.series", None),
    ("hicrit.arw", "hc_plus", "hc_core.series", None),
    ("hicrit.covtest", "ohc_plus_band", "hc_core.series", None),
    ("hicrit.hc_core", "PValueSeries.__post_init__", "hc_core.series", None),
    ("hicrit.calibrate", "simulate_null_scores", "calibrate.simulate_null_scores", None),
    ("hicrit.calibrate", "hc_scores_sorted_batch", "hc_core.kernel", _kernel_meta),
    ("hicrit.calibrate", "load_cache", "calibrate.cache_read", None),
    ("hicrit.calibrate", "append_cache_entry", "calibrate.cache_write", None),
    ("hicrit.arw", "hc_scores_sorted_batch", "hc_core.kernel", _kernel_meta),
    ("hicrit.arw", "detection_experiment", "arw.detect", None),
    ("hicrit.arw", "ndtr", "arw.ndtr", _size_meta),
    ("hicrit.arw", "permutation_test", "arw.permutation", _shuffle_meta),
    ("hicrit.covtest", "correlation_summary", "covtest.correlation", None),
    ("hicrit.covtest", "student_t_sf", "numerics.t_tail", _size_meta),
    ("hicrit.covtest", "student_t_cdf", "numerics.t_tail", _size_meta),
    ("hicrit.covtest", "eigen_null_profile", "covtest.profile", _profile_meta),
    ("hicrit.covtest", "load_profile", "covtest.profile_cache_read", None),
    ("hicrit.covtest", "save_profile", "covtest.profile_cache_write", None),
    ("hicrit.hct", "train", "hct.train", None),
    ("hicrit.hct", "evaluate", "hct.predict", None),
    ("hicrit.hct", "decision_scores", "hct.predict", None),
    ("hicrit.pairhc", "RankedPairs.from_data", "pairhc.rank", None),
    ("hicrit.pairhc", "pair_hc_star", "pairhc.score", None),
    ("hicrit.phase", "boundary_table", "phase.table", None),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores every function."""

    def __init__(self):
        self.spans = []
        self.request_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, meta):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "request": self.request_id, "calls": 1, "failed": 0}
            if meta is not None:
                span.update(meta(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["failed"] = 1
                raise
            finally:
                span["end"] = clock()
                stack.pop()

        return traced

    def install(self):
        for module, attr, name, meta in TRACE_POINTS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__, meta))
            else:
                patched = self._wrap(name, raw, meta)
            setattr(owner, attr, patched)
            self._restore.append((owner, attr, raw))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def summary(spans):
    """Calls, failures, summed inclusive seconds and self seconds per span name."""
    selfs = self_times(spans)
    out = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(s["name"], {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += s["calls"]
        row["failed"] += s["failed"]
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return out


def merge(into, spans, request_id):
    """Append spans recorded in another process, re-basing parent indices."""
    base = len(into)
    for s in spans:
        s = dict(s)
        if s["parent"] is not None:
            s["parent"] += base
        s["request"] = request_id
        into.append(s)
