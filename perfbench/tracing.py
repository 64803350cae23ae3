"""Spans kept in memory, the wrappers of the traced run, and per-layer metrics.

A span is [trace, span_id, parent_id, name, start, end, attrs]. All spans of
one trial (or one pool series built at set-up) share its trace identifier.
The wrappers replace module attributes of pemnet while a traced block runs and
are removed afterwards, so untraced blocks call the program unmodified.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trace = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [self.trace, span_id, parent, name, time.perf_counter(), None, attrs]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        keys = ("trace", "span", "parent", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


class NullTracer:
    """Stand-in used by untraced calls of the stage-by-stage path."""

    trace = None
    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null


NULL = NullTracer()


def _recurrence_attrs(w, noise, *args, **kwargs):
    p, n, _ = w.shape
    steps = noise.shape[0]
    return {"steps": steps, "flops": 2 * p * n * n * steps}


# (pemnet module, attribute, span name, attrs from the call's arguments)
PATCHES = (
    ("graphs", "gen_graph", "graphs.draw", None),
    ("graphs", "spectral_radius", "numerics.spectral_radius", None),
    ("dynamics", "spectral_radius", "numerics.spectral_radius", None),
    ("dynamics", "sdd_recurrence", "dynamics.recurrence", _recurrence_attrs),
    ("pem", "sample_lagged_cov", "pem.lagged_cov", None),
    ("pem", "estimate_tau_inv", "pem.tau_estimate", None),
)


def _wrap(tracer: Tracer, name: str, fn, attrs_fn):
    def wrapper(*args, **kwargs):
        attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


class MissingTarget(LookupError):
    """A patch target that the program no longer has: its counters would read 0."""


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore.

    Raises MissingTarget when pemnet lacks one of the targets.
    """
    saved = []
    try:
        for module_name, attr, name, attrs_fn in PATCHES:
            module = importlib.import_module(f"pemnet.{module_name}")
            if not hasattr(module, attr):
                raise MissingTarget(f"pemnet.{module_name}.{attr}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, attrs_fn))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanIndex:
    """Totals over the spans of a set of traces."""

    def __init__(self, spans: list[list], traces):
        traces = set(traces)
        self.spans = [s for s in spans if s[0] in traces]
        self.by_id = {s[1]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for s in self.spans:
            if s[2] is not None:
                self.children.setdefault(s[2], []).append(s)

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[3] == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def seconds(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s[6][key] for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Duration minus the time covered by direct children (never overlapping,
        since the benchmark runs one caller on one thread)."""
        total = 0.0
        for s in self.named(name):
            covered = sum(c[5] - c[4] for c in self.children.get(s[1], ()))
            total += (s[5] - s[4]) - covered
        return total

    def has_ancestor(self, span: list, names: set[str]) -> bool:
        parent = span[2]
        while parent is not None:
            p = self.by_id[parent]
            if p[3] in names:
                return True
            parent = p[2]
        return False


def _per(value: float, units: int) -> float:
    return value / units if units else 0.0


def layer_metrics(spans: list[list], build_traces, work_traces) -> dict[str, float]:
    """Per-layer metrics as numbers; the caller attaches units.

    build_traces hold graph sampling and simulation (the trials themselves on
    the sweeps, the pool series built at set-up on infer-lags); work_traces
    hold the edge measures, thresholding and accuracy. Times are ms per unit.
    """
    build = SpanIndex(spans, build_traces)
    work = SpanIndex(spans, work_traces)
    nb, nw = len(set(build_traces)), len(set(work_traces))
    rec_s = build.seconds("dynamics.recurrence")
    corrected = {"pem.lccf", "pem.lcrc"}
    cov_in_corrected = sum(
        1 for s in work.named("pem.lagged_cov") if work.has_ancestor(s, corrected)
    )
    return {
        "graphs.sample_ms": 1e3 * _per(build.seconds("graphs.sample"), nb),
        "graphs.attempts_per_graph": _per(build.count("graphs.draw"),
                                          build.count("graphs.sample")),
        "graphs.normalize_ms": 1e3 * _per(build.seconds("graphs.normalize"), nb),
        "numerics.spectral_radius_ms":
            1e3 * _per(build.seconds("numerics.spectral_radius"), nb),
        "numerics.spectral_radius_calls":
            _per(build.count("numerics.spectral_radius"), nb),
        "dynamics.simulate_ms": 1e3 * _per(build.seconds("dynamics.simulate"), nb),
        "dynamics.recurrence_ms": 1e3 * _per(rec_s, nb),
        "dynamics.steps_per_s":
            _per(build.attr_sum("dynamics.recurrence", "steps"), rec_s),
        "dynamics.recurrence_gflops_computed":
            1e-9 * _per(build.attr_sum("dynamics.recurrence", "flops"), rec_s),
        "pem.lc_ms": 1e3 * _per(work.seconds("pem.lc"), nw),
        "pem.lccf_ms": 1e3 * _per(work.seconds("pem.lccf"), nw),
        "pem.lcrc_ms": 1e3 * _per(work.seconds("pem.lcrc"), nw),
        "pem.tau_estimate_ms": 1e3 * _per(work.seconds("pem.tau_estimate"), nw),
        "pem.lagged_cov_calls": _per(
            cov_in_corrected, work.count("pem.lccf") + work.count("pem.lcrc")
        ),
        "bench.threshold_ms": 1e3 * _per(work.seconds("bench.threshold"), nw),
        "bench.accuracy_ms": 1e3 * _per(work.seconds("bench.accuracy"), nw),
        "bench.trial_self_ms": 1e3 * _per(work.self_seconds("bench.trial"), nw),
    }
