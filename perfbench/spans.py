"""Traced-run harness: an in-memory span recorder and the layer wrappers.

The traced run replaces each layer's public entry point with a wrapper
that records a span ``(name, start, end, parent, request id)`` and, where
the layer returns one, a work count.  Wrappers are installed only for the
traced phase and restored afterwards, so the untraced phases run the
program exactly as shipped.  Spans nest per thread; a layer's self time
is its span minus its children.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

#: Span name -> per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "projection.covariances": "projection.covariances_ms",
    "projection.preprocess": "projection.preprocess_ms",
    "sorting.duplicate_keys": "sorting.duplicate_keys_ms",
    "sorting.bin_and_sort": "sorting.bin_sort_ms",
    "rasterize.tiles": "rasterize.tiles_ms",
    "hardware.simulate_frame": "hardware.simulate_ms",
    "storage.get_scene": "storage.get_scene_ms",
}


class SpanRecorder:
    """Spans of one traced phase, kept in memory until written out.

    Each span is ``[name, start_ns, end_ns, parent, request_id]``; the
    parent is the index of the enclosing span on the same thread (-1 for
    a root).  ``counts`` accumulates the work counters the wrappers read
    from layer results.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id=None):
        """Record one span around the body (nested under the current one)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request_id is None and parent >= 0:
            request_id = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, request_id])
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            stack.pop()

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to the work counter ``key``."""
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name (span minus its children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child_ns[index]) / 1e9
        return totals

    def total_times(self, name: str) -> float:
        """Total seconds of every span called ``name`` (children included)."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) / 1e9

    def root_cover_seconds(self) -> float:
        """Wall seconds covered by the union of the root spans."""
        intervals = sorted((s[1], s[2]) for s in self.spans if s[3] < 0)
        covered = 0
        cursor = None
        for start, end in intervals:
            if cursor is None or start > cursor:
                covered += end - start
                cursor = end
            elif end > cursor:
                covered += end - cursor
                cursor = end
        return covered / 1e9

    def write(self, path) -> None:
        """Write the spans and work counts to ``path`` as one JSON object."""
        fields = ("name", "start_ns", "end_ns", "parent", "request_id")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [dict(zip(fields, span)) for span in self.spans],
                 "counts": self.counts},
                handle,
            )


def _wrapped(recorder: SpanRecorder, name: str, function, on_result=None):
    """``function`` recording a span ``name`` and, optionally, its counts."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = function(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder, stores=()):
    """Wrap every layer entry point for the duration of the block.

    Wraps the ``repro.gaussians.pipeline`` globals ``preprocess``,
    ``bin_and_sort`` and ``rasterize_tiles``, ``sorting.duplicate_keys``,
    ``GaussianCloud.covariances``, ``ScaledGauRast.simulate_frame`` and the
    ``get_scene`` of each store in ``stores``; everything is restored on
    exit, even when the block raises.
    """
    from repro.gaussians import pipeline, sorting
    from repro.gaussians.gaussian import GaussianCloud
    from repro.hardware.multi import ScaledGauRast

    def keys(binning):
        recorder.count("sorting.keys", binning.num_keys)

    def fragments(result):
        recorder.count("rasterize.fragments", result[1].fragments_evaluated)

    def frame(result):
        report = result[1]
        recorder.count("hardware.frames", 1)
        recorder.count("hardware.fragments", report.fragments_evaluated)

    patches = [
        (pipeline, "preprocess", "projection.preprocess", None),
        (pipeline, "bin_and_sort", "sorting.bin_and_sort", keys),
        (pipeline, "rasterize_tiles", "rasterize.tiles", fragments),
        (sorting, "duplicate_keys", "sorting.duplicate_keys", None),
        (GaussianCloud, "covariances", "projection.covariances", None),
        (ScaledGauRast, "simulate_frame", "hardware.simulate_frame", frame),
    ]
    saved = []
    try:
        for owner, attribute, name, on_result in patches:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(recorder, name, original, on_result))
        for store in stores:
            store.get_scene = _wrapped(recorder, "storage.get_scene", store.get_scene)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        for store in stores:
            store.__dict__.pop("get_scene", None)


class ServiceProxy:
    """A render service that records a span per ``serve``/``submit`` call.

    Passed in place of the real service (to the gateway, to
    ``evaluate_trace``, or called by the closed-loop client); every other
    attribute reads through.  ``windows`` maps ``id(request)`` to the
    ``(start, end)`` of the ``serve`` call that carried it, and
    ``on_report`` sees each report ``serve`` returns.
    """

    def __init__(self, service, recorder: SpanRecorder, name: str, on_report=None):
        self._service = service
        self._recorder = recorder
        self._name = name
        self._on_report = on_report
        self.windows: Dict[int, tuple] = {}

    def __getattr__(self, attribute):
        return getattr(self._service, attribute)

    def serve(self, requests, *args, **kwargs):
        requests = list(requests)
        started = time.perf_counter()
        with self._recorder.span(self._name + ".serve"):
            report = self._service.serve(requests, *args, **kwargs)
        ended = time.perf_counter()
        for request in requests:
            self.windows[id(request)] = (started, ended)
        if self._on_report is not None:
            self._on_report(report)
        return report

    def submit(self, request):
        with self._recorder.span(self._name + ".submit"):
            return self._service.submit(request)


def layer_times_ms(recorder: SpanRecorder, requests: int) -> Dict[str, float]:
    """Self time per layer metric, in ms per request (0 for absent layers)."""
    self_times = recorder.self_times()
    per_request = 1e3 / max(requests, 1)
    return {
        metric: self_times.get(name, 0.0) * per_request
        for name, metric in LAYER_OF_SPAN.items()
    }
