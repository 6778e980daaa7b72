"""Exporters: JSONL event logs, Chrome trace files, metrics dumps.

Three on-disk formats, all plain JSON so downstream tooling needs no
schema library:

- :func:`write_jsonl` — one JSON object per line; the first line is a
  ``meta`` record (the bus's run description plus drop/sample
  accounting), each following line one event.  :func:`read_jsonl`
  inverts it and :func:`replay` (from the bus module) runs on the
  result, so a trace file is a complete, machine-checkable receipt of
  the run.
- :class:`JsonlStreamWriter` — the *streaming* counterpart: attach it
  as a bus ``sink`` and each event is written the moment it is
  emitted, so unbounded corpus runs export in constant memory (pair
  with ``TraceBus(retain=False)``) with no ring-capacity tuning.  The
  opening meta record is written eagerly and every buffered line is
  flushed in the ``close()``/context-manager path, so the file on
  disk is valid JSONL even when the traced run dies mid-stream; a
  clean close appends a second ``meta`` record with the final event
  count and the bus's run description.
- :func:`write_chrome_trace` — the Chrome ``trace_event`` JSON object
  format (``{"traceEvents": [...]}``), loadable in Perfetto /
  ``chrome://tracing``: phases become duration (B/E) events, space
  samples become counter (C) tracks, GC and apply events become
  instants.  Passing a :class:`~repro.telemetry.blame.BlameSeries`
  adds a per-holder ``space-blame`` counter track (one series per
  holder, stacked by Perfetto), timed by matching each sample's step
  to the bus's space events.
- :func:`write_metrics` — a :meth:`MetricsRegistry.as_dict` dump (or
  a pre-merged dict) with a small envelope.

The ``validate_*`` functions are the schema checks CI's telemetry
smoke step runs against the artifacts it uploads
(:func:`validate_jsonl`, :func:`validate_chrome_trace`, and
:func:`validate_blame_census` for ``BENCH_blame_census.json``).
"""

from __future__ import annotations

import json
from typing import List, Optional

from .bus import EVENT_KINDS, Event, TraceBus
from .metrics import MetricsRegistry

JSONL_VERSION = 1


def write_jsonl(bus: TraceBus, path: str) -> int:
    """Write the bus's retained events as JSON lines (meta line first).
    Returns the number of event lines written."""
    with open(path, "w", encoding="utf-8") as handle:
        meta = {
            "kind": "meta",
            "version": JSONL_VERSION,
            "events": len(bus.events),
            "offered": bus.counts(),
            "dropped": bus.dropped,
            "steps": bus.steps,
        }
        meta.update(bus.meta)
        handle.write(json.dumps(meta) + "\n")
        count = 0
        for event in bus.events:
            handle.write(
                json.dumps(
                    {
                        "kind": event.kind,
                        "ts": event.ts,
                        "step": event.step,
                        "label": event.label,
                        "value": event.value,
                    }
                )
                + "\n"
            )
            count += 1
    return count


class JsonlStreamWriter:
    """A streaming JSONL sink for :class:`TraceBus` (``sink=writer``).

    ``target`` is a path (opened and owned by the writer) or an open
    file-like object (borrowed — never closed).  ``flush_every=k``
    flushes the handle after every k-th event (1 = after every event;
    0 = leave flushing to ``close``); the opening meta record is
    always written and flushed immediately, so even a run killed after
    its first event leaves a schema-valid file behind.

    Use as a context manager (or call :meth:`close` in a ``finally``)
    so abnormal termination still flushes the buffered tail::

        with JsonlStreamWriter(path) as writer:
            bus = TraceBus(sink=writer, retain=False)
            run_metered(machine, program, trace=bus, ...)
            writer.close(bus)   # optional: records the bus meta

    ``close(bus)`` appends a closing ``meta`` record carrying the
    event count and, when a bus is given, its run description and
    offered/dropped accounting — the streamed file then carries the
    same receipt ``write_jsonl`` puts on line one.
    """

    def __init__(self, target, meta: Optional[dict] = None,
                 flush_every: int = 64):
        if flush_every < 0:
            raise ValueError("flush_every must be >= 0")
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns = True
        self.flush_every = flush_every
        self.events = 0
        self.closed = False
        opening = {"kind": "meta", "version": JSONL_VERSION, "streamed": True}
        if meta:
            opening.update(meta)
        self._handle.write(json.dumps(opening) + "\n")
        self._handle.flush()

    def __call__(self, event: Event) -> None:
        self.write(event)

    def write(self, event: Event) -> None:
        if self.closed:
            raise ValueError("write to a closed JsonlStreamWriter")
        self._handle.write(
            json.dumps(
                {
                    "kind": event.kind,
                    "ts": event.ts,
                    "step": event.step,
                    "label": event.label,
                    "value": event.value,
                }
            )
            + "\n"
        )
        self.events += 1
        if self.flush_every and self.events % self.flush_every == 0:
            self._handle.flush()

    def write_record(self, record: dict) -> None:
        """Append an arbitrary JSON record line (a serving receipt, a
        quota kill) to the stream.  Counts toward ``events`` so the
        closing meta still states how many lines precede it."""
        if self.closed:
            raise ValueError("write to a closed JsonlStreamWriter")
        self._handle.write(json.dumps(record) + "\n")
        self.events += 1
        if self.flush_every and self.events % self.flush_every == 0:
            self._handle.flush()

    def close(self, bus: Optional[TraceBus] = None) -> int:
        """Flush and (when owned) close the handle; idempotent.
        Returns the number of event lines written."""
        if self.closed:
            return self.events
        closing = {
            "kind": "meta",
            "version": JSONL_VERSION,
            "closing": True,
            "events": self.events,
        }
        if bus is not None:
            closing.update(
                offered=bus.counts(), dropped=bus.dropped, steps=bus.steps
            )
            closing.update(bus.meta)
        self._handle.write(json.dumps(closing) + "\n")
        self._handle.flush()
        if self._owns:
            self._handle.close()
        self.closed = True
        return self.events

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_jsonl(path: str) -> List[Event]:
    """Read the events back (meta line skipped)."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "meta":
                continue
            events.append(
                Event(
                    record["kind"],
                    record["ts"],
                    record["step"],
                    record["label"],
                    record["value"],
                )
            )
    return events


def validate_jsonl(path: str) -> dict:
    """Schema-check a JSONL trace file; returns a summary dict or
    raises ValueError naming the first offending line."""
    kinds = set(EVENT_KINDS)
    events = 0
    meta = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: not JSON ({error})")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            kind = record.get("kind")
            if lineno == 1:
                if kind != "meta":
                    raise ValueError(f"{path}:1: first line must be the meta record")
                meta = record
                continue
            if kind == "meta":
                # Streamed files carry a closing meta record (and merged
                # files may carry several); fold them into the summary.
                meta.update(record)
                continue
            if kind not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown event kind {kind!r}")
            for field_name, field_type in (
                ("ts", (int, float)),
                ("step", int),
                ("label", str),
                ("value", (int, float)),
            ):
                if not isinstance(record.get(field_name), field_type):
                    raise ValueError(
                        f"{path}:{lineno}: bad {field_name!r} in {kind} event"
                    )
            events += 1
    if meta is None:
        raise ValueError(f"{path}: empty trace file")
    return {"events": events, "meta": meta}


def chrome_trace_events(bus: TraceBus) -> List[dict]:
    """The bus's events in Chrome ``trace_event`` form."""
    out: List[dict] = []
    events = list(bus.events)
    t0 = events[0].ts if events else 0.0
    name = str(bus.meta.get("machine", "machine"))
    out.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 1,
            "args": {"name": f"repro:{name}"},
        }
    )
    for event in events:
        ts = (event.ts - t0) * 1e6
        kind = event.kind
        if kind == "phase":
            label, _, edge = event.label.rpartition(":")
            out.append(
                {
                    "ph": "B" if edge == "begin" else "E",
                    "name": label,
                    "cat": "phase",
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                }
            )
        elif kind == "space":
            out.append(
                {
                    "ph": "C",
                    "name": f"space:{event.label}",
                    "cat": "space",
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                    "args": {"words": event.value},
                }
            )
        elif kind == "gc":
            out.append(
                {
                    "ph": "i",
                    "name": f"gc:{event.label}",
                    "cat": "gc",
                    "s": "t",
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                    "args": {"collected": event.value, "step": event.step},
                }
            )
        elif kind == "apply":
            out.append(
                {
                    "ph": "i",
                    "name": f"apply:{event.label}",
                    "cat": "apply",
                    "s": "t",
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                    "args": {"args": event.value, "step": event.step},
                }
            )
        else:  # step, cell
            out.append(
                {
                    "ph": "C",
                    "name": kind,
                    "cat": kind,
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                    "args": {event.label: event.value, "step": event.step},
                }
            )
    return out


def chrome_blame_counter_events(series, bus: Optional[TraceBus] = None,
                                top: int = 8) -> List[dict]:
    """A :class:`~repro.telemetry.blame.BlameSeries` as one Chrome
    counter (``C``) track named ``space-blame``: one event per sample,
    one ``args`` series per holder (Perfetto stacks them).  ``top``
    keeps the largest holders (by peak words) and folds the rest into
    an ``other`` series so the track stays readable.

    Timestamps: blame samples happen exactly at the meter's measure
    points, which also emit ``space`` events — so when the *bus* for
    the same run is given, each sample's step is mapped to the
    timestamp of that step's space event (same clock as the rest of
    the trace).  Without a bus (or for steps sampled away from its
    ring) the step index itself is used as microseconds."""
    holders = series.holders(top=top)
    kept = set(holders)
    step_ts: dict = {}
    if bus is not None:
        events = list(bus.events)
        t0 = events[0].ts if events else 0.0
        for event in events:
            if event.kind == "space" and event.step not in step_ts:
                step_ts[event.step] = (event.ts - t0) * 1e6
    out: List[dict] = []
    for i in range(len(series)):
        step = series.steps[i]
        args = {holder: 0 for holder in holders}
        other = 0
        for key, words in series.blames[i].items():
            if key in kept:
                args[key] = words
            else:
                other += words
        if other:
            args["other"] = other
        out.append(
            {
                "ph": "C",
                "name": "space-blame",
                "cat": "blame",
                "ts": step_ts.get(step, float(step)),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return out


def write_chrome_trace(bus: TraceBus, path: str, blame=None) -> int:
    """Write a Perfetto-loadable trace file; returns the event count.
    ``blame`` (a BlameSeries) adds the per-holder ``space-blame``
    counter track."""
    trace_events = chrome_trace_events(bus)
    if blame is not None and len(blame):
        trace_events.extend(chrome_blame_counter_events(blame, bus))
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {str(k): str(v) for k, v in bus.meta.items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(trace_events)


def validate_chrome_trace(path: str) -> dict:
    """Schema-check a Chrome trace file; returns a summary dict or
    raises ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: missing traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    phases = {"B", "E", "C", "i", "M"}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: traceEvents[{i}] is not an object")
        if event.get("ph") not in phases:
            raise ValueError(f"{path}: traceEvents[{i}] bad ph {event.get('ph')!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{path}: traceEvents[{i}] missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            raise ValueError(f"{path}: traceEvents[{i}] missing pid/tid")
        if event["ph"] != "M" and not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{path}: traceEvents[{i}] missing ts")
    begins = sum(1 for e in events if e.get("ph") == "B")
    ends = sum(1 for e in events if e.get("ph") == "E")
    if begins != ends:
        raise ValueError(f"{path}: unbalanced phase events (B={begins}, E={ends})")
    return {"events": len(events)}


def validate_blame_census(path: str) -> dict:
    """Schema-check a ``BENCH_blame_census.json`` artifact; returns a
    summary dict or raises ValueError.

    Shape: ``{"version", "corpus", "machines": {name: {"programs",
    "steps", "flat": [rows], "linked": [rows]}}}`` where each row is
    ``{"holder", "words", "share"}``, ranked by words descending, with
    shares in [0, 1] summing to at most 1 (rows may be a top-N cut)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a JSON object")
    machines = document.get("machines")
    if not isinstance(machines, dict) or not machines:
        raise ValueError(f"{path}: missing machines table")
    rows_seen = 0
    for machine, entry in machines.items():
        where = f"{path}: machines[{machine!r}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: not an object")
        if not isinstance(entry.get("programs"), int) or entry["programs"] < 1:
            raise ValueError(f"{where}: bad program count")
        for accounting in ("flat", "linked"):
            rows = entry.get(accounting)
            if not isinstance(rows, list) or not rows:
                raise ValueError(f"{where}: missing {accounting} rows")
            previous = None
            share_total = 0.0
            for i, row in enumerate(rows):
                slot = f"{where}.{accounting}[{i}]"
                if not isinstance(row, dict):
                    raise ValueError(f"{slot}: not an object")
                if not isinstance(row.get("holder"), str) or not row["holder"]:
                    raise ValueError(f"{slot}: bad holder")
                words = row.get("words")
                if not isinstance(words, int) or words < 0:
                    raise ValueError(f"{slot}: bad words")
                share = row.get("share")
                if not isinstance(share, (int, float)) or not 0 <= share <= 1:
                    raise ValueError(f"{slot}: bad share")
                if previous is not None and words > previous:
                    raise ValueError(f"{slot}: rows not ranked by words")
                previous = words
                share_total += share
                rows_seen += 1
            if share_total > 1.0 + 1e-6:
                raise ValueError(f"{where}: {accounting} shares sum > 1")
    return {"machines": len(machines), "rows": rows_seen}


def write_metrics(metrics, path: str, **meta) -> None:
    """Write a metrics dump (a registry or a pre-merged dict) as JSON."""
    dump = metrics.as_dict() if isinstance(metrics, MetricsRegistry) else metrics
    document = dict(meta)
    document["metrics"] = dump
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


def write_flamegraph(snapshot, path: str) -> int:
    """Write a :class:`~repro.telemetry.retention.RetentionSnapshot`'s
    dominator tree as folded flamegraph stacks (one ``R;...;label
    words`` line per positive-self node — ``flamegraph.pl`` /
    speedscope / inferno input).  The line weights sum to exactly the
    snapshot's measured space.  Returns the line count."""
    lines = snapshot.folded_stacks()
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def validate_flamegraph(path: str) -> dict:
    """Schema-check a folded-stacks flamegraph file; returns
    ``{"lines", "total"}`` or raises ValueError.

    Every line must be ``frame(;frame)* <positive int>`` with the
    stack rooted at ``R``; identical stacks must not repeat (the
    writer merges them)."""
    lines = 0
    total = 0
    seen: set = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            stack, _, words = line.rpartition(" ")
            if not stack:
                raise ValueError(f"{path}:{lineno}: missing stack")
            try:
                count = int(words)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad count {words!r}")
            if count <= 0:
                raise ValueError(f"{path}:{lineno}: non-positive count")
            frames = stack.split(";")
            if frames[0] != "R" or not all(frames):
                raise ValueError(f"{path}:{lineno}: stack not rooted at R")
            if stack in seen:
                raise ValueError(f"{path}:{lineno}: duplicate stack")
            seen.add(stack)
            lines += 1
            total += count
    if not lines:
        raise ValueError(f"{path}: empty flamegraph")
    return {"lines": lines, "total": total}


def write_retention_jsonl(snapshot, path: str) -> int:
    """Write a :class:`~repro.telemetry.retention.RetentionSnapshot` as
    JSON lines: a ``meta`` record (machine, accounting, step, measured
    space) followed by one ``node`` record per retention-graph node
    (id, label, self/retained words, dominator parent, allocation
    site).  Returns the node count."""
    document = snapshot.as_dict()
    with open(path, "w", encoding="utf-8") as handle:
        meta = {
            "kind": "meta",
            "version": JSONL_VERSION,
            "format": "retention",
            "machine": document["machine"],
            "accounting": "linked" if document["linked"] else "flat",
            "fixed_precision": document["fixed_precision"],
            "step": document["step"],
            "space": document["space"],
            "nodes": len(document["nodes"]),
        }
        handle.write(json.dumps(meta) + "\n")
        for node in document["nodes"]:
            record = {"kind": "node"}
            record.update(node)
            handle.write(json.dumps(record) + "\n")
    return len(document["nodes"])


def validate_retention_jsonl(path: str) -> dict:
    """Schema-check a retention JSONL file *including the exactness
    oracle*: node self sizes must sum to the meta record's measured
    space, and so must the root nodes' retained sizes (the dominator
    partition).  Returns a summary dict or raises ValueError."""
    meta = None
    nodes: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: not JSON ({error})")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            kind = record.get("kind")
            if lineno == 1:
                if kind != "meta" or record.get("format") != "retention":
                    raise ValueError(
                        f"{path}:1: first line must be the retention meta record"
                    )
                meta = record
                continue
            if kind != "node":
                raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")
            node_id = record.get("id")
            if not isinstance(node_id, int) or node_id in nodes:
                raise ValueError(f"{path}:{lineno}: bad or duplicate node id")
            if not isinstance(record.get("label"), str) or not record["label"]:
                raise ValueError(f"{path}:{lineno}: bad label")
            for field_name in ("self", "retained", "idom"):
                if not isinstance(record.get(field_name), int):
                    raise ValueError(f"{path}:{lineno}: bad {field_name!r}")
            if record["retained"] < record["self"] or record["self"] < 0:
                raise ValueError(f"{path}:{lineno}: retained < self")
            nodes[node_id] = record
    if meta is None:
        raise ValueError(f"{path}: empty retention file")
    if len(nodes) != meta.get("nodes"):
        raise ValueError(f"{path}: node count disagrees with meta record")
    if 0 not in nodes or nodes[0]["idom"] != 0:
        raise ValueError(f"{path}: missing super-root node 0")
    for node_id, record in nodes.items():
        if record["idom"] not in nodes:
            raise ValueError(f"{path}: node {node_id} has unknown idom")
    space = meta.get("space")
    self_total = sum(record["self"] for record in nodes.values())
    if self_total != space:
        raise ValueError(
            f"{path}: node self sizes sum to {self_total}, meta space is {space}"
        )
    root_total = sum(
        record["retained"]
        for node_id, record in nodes.items()
        if node_id != 0 and record["idom"] == 0
    )
    if root_total != space:
        raise ValueError(
            f"{path}: root retained sizes sum to {root_total}, "
            f"meta space is {space}"
        )
    return {"nodes": len(nodes), "space": space, "meta": meta}


__all__ = [
    "JsonlStreamWriter",
    "chrome_blame_counter_events",
    "chrome_trace_events",
    "read_jsonl",
    "validate_blame_census",
    "validate_chrome_trace",
    "validate_flamegraph",
    "validate_jsonl",
    "validate_retention_jsonl",
    "write_chrome_trace",
    "write_flamegraph",
    "write_jsonl",
    "write_metrics",
    "write_retention_jsonl",
]
