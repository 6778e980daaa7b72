"""In-memory spans for the traced run, their self-time arithmetic and
their Chrome trace export.

A span is (name, layer, start, end, parent, job).  Spans are recorded
from the benchmark's own code around calls into one ``src/repro/``
package each; nothing inside the program is instrumented.  Where one
call covers several layers (``run_to_final`` is code generation plus
stepping, ``trace_run`` is telemetry plus metering plus stepping), an
ablation rerun outside the job measures the inner parts and
:meth:`Tracer.split` records them as nested parts of that span.  The
parts telescope: the innermost layer gets its measured time, each
enclosing layer the difference to the next measurement, and the span's
own layer the rest, so a job's layer self times plus its unattributed
remainder equal its wall time exactly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The layer of a job's root span: time inside a job that no layer
#: span covers (glue between calls, the benchmark's own bookkeeping).
UNATTRIBUTED = "unattributed"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "parts")

    def __init__(self, name, layer, start, parent, job):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        #: Ablation parts, innermost first: (layer, measured seconds).
        self.parts: List[Tuple[str, float]] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with a parent stack; ``clock`` is injectable so the
    self-time arithmetic can be tested with exact numbers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, job: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        index = len(self.spans)
        self.spans.append(Span(name, layer, self.clock(), parent, job))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], job: Optional[str] = None) -> int:
        """A span whose bounds were taken elsewhere (receipt stamps)."""
        if job is None and parent is not None:
            job = self.spans[parent].job
        span = Span(name, layer, start, parent, job)
        span.end = end
        self.spans.append(span)
        return len(self.spans) - 1

    def split(self, index: int, parts: Sequence[Tuple[str, float]]) -> None:
        """Attribute part of span *index* to inner layers measured by
        ablation: *parts* are (layer, seconds), innermost first, each
        measurement covering the ones before it."""
        self.spans[index].parts = list(parts)


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's,
    with ablation parts telescoped out of the span's own share."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - child_time[index]
        inner = 0.0
        for layer, measured in span.parts:
            totals[layer] = totals.get(layer, 0.0) + (measured - inner)
            inner = measured
        totals[span.layer] = totals.get(span.layer, 0.0) + (own - inner)
    return totals


def per_job(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Spans grouped by job id, each list in recording order with
    parent indices rewritten to positions within the list."""
    groups: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        if span.job is not None:
            groups.setdefault(span.job, []).append(index)
    out: Dict[str, List[Span]] = {}
    for job, indices in groups.items():
        where = {old: new for new, old in enumerate(indices)}
        local = []
        for old in indices:
            span = spans[old]
            copy = Span(span.name, span.layer, span.start,
                        where.get(span.parent), span.job)
            copy.end = span.end
            copy.parts = span.parts
            local.append(copy)
        out[job] = local
    return out


def check_jobs(spans: Sequence[Span], tolerance: float = 1e-6) -> List[str]:
    """The layer table check, per job: every span lies inside its
    parent, and no span's share goes negative: its children and its
    ablation parts fit in its duration, and each ablation measurement
    covers the one inside it.  A break means spans overlap or an
    ablation rerun took longer than the call it splits, so the table
    would attribute time twice.  Returns one line per break (empty when
    the table holds)."""
    broken = []
    for job, local in per_job(spans).items():
        child_time = [0.0] * len(local)
        for span in local:
            if span.parent is None:
                continue
            parent = local[span.parent]
            child_time[span.parent] += span.duration
            if (span.start < parent.start - tolerance
                    or span.end > parent.end + tolerance):
                broken.append(f"{job}: {span.name} lies outside "
                              f"{parent.name}")
        for index, span in enumerate(local):
            inner = 0.0
            for layer, measured in span.parts:
                if measured < inner - tolerance:
                    broken.append(f"{job}: {span.name}'s {layer} part is "
                                  f"{measured - inner:.6f} s")
                inner = measured
            own = span.duration - child_time[index] - inner
            if own < -tolerance:
                broken.append(f"{job}: {span.name} keeps {own:.6f} s after "
                              "its children and ablation parts")
    return broken


def _lanes(spans: Sequence[Span]) -> List[int]:
    """A track per span: jobs that overlap in time (the serve clients)
    get different tracks, so every track's slices nest; children share
    their root's track."""
    lane_end: List[float] = []
    lanes = [0] * len(spans)
    roots = sorted((span.start, index) for index, span in enumerate(spans)
                   if span.parent is None)
    for start, index in roots:
        lane = next((i for i, end in enumerate(lane_end) if end <= start),
                    len(lane_end))
        if lane == len(lane_end):
            lane_end.append(0.0)
        lane_end[lane] = spans[index].end
        lanes[index] = lane
    for index, span in enumerate(spans):
        if span.parent is not None:
            lanes[index] = lanes[span.parent]
    return lanes


def chrome_trace(spans: Iterable[Span], pid: int = 1) -> dict:
    """Chrome trace JSON (Perfetto opens it): one complete event per
    span, and one per ablation part laid out from the span's start on a
    parallel track."""
    events = []
    spans = list(spans)
    lanes = _lanes(spans)
    origin = min((span.start for span in spans), default=0.0)
    for index, span in enumerate(spans):
        start_us = (span.start - origin) * 1e6
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": start_us, "dur": span.duration * 1e6,
            "pid": pid, "tid": 2 * lanes[index] + 1,
            "args": {"job": span.job, "parent": span.parent,
                     "index": index},
        })
        offset = 0.0
        inner = 0.0
        for layer, measured in span.parts:
            events.append({
                "name": f"{layer} (ablation)", "cat": layer, "ph": "X",
                "ts": start_us + offset * 1e6,
                "dur": max(0.0, measured - inner) * 1e6,
                "pid": pid, "tid": 2 * lanes[index] + 2,
                "args": {"job": span.job, "of": index},
            })
            offset += max(0.0, measured - inner)
            inner = measured
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)
