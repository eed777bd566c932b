"""In-memory spans around the benchmark's calls into each layer.

A span is a dict with ``name``, ``start``, ``end`` (perf_counter seconds),
``parent`` (index of the enclosing span, or None) and ``job``.  The layer
of a span is its name up to the first dot, e.g. ``optics`` for
``optics.likelihood_table``.  Spans are only appended to the list when
tracing is on; the timing itself is always taken, since the job spans
are what the untraced run reports.
"""

import time
from contextlib import contextmanager

# the package's modules, as the benchmark names its layers
LAYERS = ("__init__", "optics", "bayes", "fidelity", "optimizer", "cli")


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, job):
        record = {"name": name, "job": job, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        if self.enabled:
            self._open.append(len(self.spans))
            self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if self.enabled:
                self._open.pop()


def layer_of(name):
    return name.split(".", 1)[0]


def duration(span):
    return span["end"] - span["start"]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Seconds per layer: each span's duration minus the part of it that its
    child spans cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    totals = {}
    for index, span in enumerate(spans):
        inside = [(max(child["start"], span["start"]), min(child["end"], span["end"]))
                  for child in children.get(index, ())]
        own = duration(span) - covered([(s, e) for s, e in inside if e > s])
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
