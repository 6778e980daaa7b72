"""The telemetry stack: trace bus, metrics registry, exporters.

The load-bearing property is *trace fidelity*: replaying a captured
event stream reconstructs exactly the step count, sup-space (with its
peak step), and reclamation total the meter itself reported — for
every machine in the family, both accountings, and both steppers.
Telemetry is derived, never authoritative; these tests are the proof.
"""

import json
import socket
import threading

import pytest

from repro.harness.sweep import SweepCell, aggregate_metrics, run_grid
from repro.programs.corpus import load_program
from repro.telemetry.blame import trace_run
from repro.telemetry.bus import EVENT_KINDS, Event, TraceBus, replay
from repro.telemetry.export import (
    JsonlStreamWriter,
    read_jsonl,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.telemetry.metrics import (
    MetricsRegistry,
    format_key,
    parse_key,
    step_mix,
)

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
BUILD = (
    "(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))"
    "(define (main n) (length (build n)))"
)
ESCAPE = (
    "(define (main n)"
    "  (call-with-current-continuation"
    "    (lambda (k) (+ 1 (if (zero? n) (k 42) n)))))"
)

ALL_MACHINES = (
    "tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta",
)


# ---------------------------------------------------------------------------
# Trace fidelity: replay == meter, the whole family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("machine", ALL_MACHINES)
@pytest.mark.parametrize("linked", [False, True], ids=["flat", "linked"])
def test_replay_matches_meter_all_machines(machine, linked):
    fib = load_program("fib")
    session = trace_run(machine, fib.source, "6", linked=linked)
    result = session.result
    summary = replay(session.bus.events)
    assert summary.steps == result.steps
    assert summary.sup_space == result.sup_space
    assert summary.peak_step == result.peak_step
    assert summary.collected == result.collected


@pytest.mark.parametrize("stepper", ["annotated", "seed"])
@pytest.mark.parametrize("engine", ["delta", "reference"])
def test_replay_matches_meter_both_steppers_and_engines(stepper, engine):
    for machine, program, arg in [
        ("gc", LOOP, "25"),
        ("stack", BUILD, "8"),
        ("tail", ESCAPE, "3"),
    ]:
        session = trace_run(
            machine, program, arg, stepper=stepper, engine=engine
        )
        result = session.result
        summary = replay(session.bus.events)
        assert (summary.steps, summary.sup_space, summary.peak_step,
                summary.collected) == (result.steps, result.sup_space,
                                       result.peak_step, result.collected)


def test_telemetry_does_not_change_the_measurement():
    from repro.space.consumption import measure

    bare = measure("gc", BUILD, "9", linked=True)
    session = trace_run("gc", BUILD, "9", linked=True)
    traced = session.result
    assert (traced.steps, traced.sup_space, traced.consumption) == (
        bare.steps, bare.sup_space, bare.total
    )


# ---------------------------------------------------------------------------
# Bus mechanics
# ---------------------------------------------------------------------------


def test_bus_sampling_keeps_the_first_of_each_stride():
    bus = TraceBus(sample={"space": 3})
    for step in range(10):
        bus.emit_space("flat", step + 1, step=step)
    kept = [event.step for event in bus.events if event.kind == "space"]
    assert kept == [0, 3, 6, 9]
    assert bus.counts()["space"] == 10  # offered, not kept
    assert len(bus.kept("space")) == 4


def test_bus_ring_capacity_drops_oldest():
    bus = TraceBus(capacity=5)
    for step in range(12):
        bus.emit_space("flat", step, step=step)
    assert len(bus) == 5
    assert bus.dropped == 7
    assert [event.step for event in bus.events] == [7, 8, 9, 10, 11]


def test_bus_rejects_unknown_kinds_and_bad_rates():
    with pytest.raises(ValueError):
        TraceBus(sample={"nope": 2})
    with pytest.raises(ValueError):
        TraceBus(sample={"step": 0})


def test_replay_of_empty_stream():
    summary = replay([])
    assert summary.steps == 0
    assert summary.sup_space == 0
    assert summary.collected == 0


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def test_jsonl_round_trip_and_validation(tmp_path):
    session = trace_run("gc", LOOP, "12")
    path = tmp_path / "run.jsonl"
    written = write_jsonl(session.bus, path)
    info = validate_jsonl(path)
    assert info["events"] == written == len(session.bus)
    assert info["meta"]["machine"] == "gc"
    events = read_jsonl(path)
    assert events == list(session.bus.events)
    # The replay summary survives serialization.
    assert replay(events) == replay(session.bus.events)


def test_jsonl_validator_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "meta", "version": 1}\n{"kind": "wat"}\n')
    with pytest.raises(ValueError):
        validate_jsonl(path)
    path.write_text('{"kind": "step"}\n')  # first record must be meta
    with pytest.raises(ValueError):
        validate_jsonl(path)


def test_chrome_trace_schema(tmp_path):
    session = trace_run("stack", BUILD, "6")
    path = tmp_path / "run.chrome.json"
    write_chrome_trace(session.bus, path)
    info = validate_chrome_trace(path)
    assert info["events"] > 0
    payload = json.loads(path.read_text())
    phases = {event["ph"] for event in payload["traceEvents"]}
    assert {"M", "B", "E", "C"} <= phases


def test_chrome_validator_rejects_unbalanced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": [
        {"ph": "B", "name": "run", "pid": 1, "tid": 1, "ts": 0},
    ]}))
    with pytest.raises(ValueError):
        validate_chrome_trace(path)


def test_write_metrics_accepts_registry_and_dict(tmp_path):
    registry = MetricsRegistry()
    registry.counter("steps", machine="tail", kind="expr:Var").inc(7)
    direct = tmp_path / "direct.json"
    write_metrics(registry, direct, machine="tail")
    payload = json.loads(direct.read_text())
    assert payload["machine"] == "tail"
    assert payload["metrics"]["counters"][
        "steps{kind=expr:Var,machine=tail}"] == 7
    again = tmp_path / "again.json"
    write_metrics(registry.as_dict(), again)
    assert json.loads(again.read_text())["metrics"] == payload["metrics"]


# ---------------------------------------------------------------------------
# Streaming export
# ---------------------------------------------------------------------------


def test_streamed_file_replay_equals_ring_replay(tmp_path):
    """One run, both paths: the sink writes each event to disk as it
    is emitted while the ring retains it.  Replaying the streamed file
    must equal replaying the in-memory ring."""
    path = tmp_path / "stream.jsonl"
    with JsonlStreamWriter(path) as writer:
        session = trace_run("gc", BUILD, "9", sink=writer)
        writer.close(session.bus)
    streamed = read_jsonl(path)
    assert streamed == list(session.bus.events)
    assert replay(streamed) == replay(session.bus.events)
    info = validate_jsonl(path)
    assert info["events"] == len(session.bus)
    # The closing meta record carries the bus's receipt.
    assert info["meta"]["closing"] is True
    assert info["meta"]["steps"] == session.result.steps


def test_streaming_only_run_is_constant_memory(tmp_path):
    """retain=False turns the ring off entirely; the streamed file is
    the record, and it still replays to the meter's numbers."""
    path = tmp_path / "only.jsonl"
    with JsonlStreamWriter(path) as writer:
        session = trace_run("stack", BUILD, "8", sink=writer, retain=False)
    assert len(session.bus) == 0  # nothing retained
    assert session.bus.dropped == 0  # streaming is not dropping
    summary = replay(read_jsonl(path))
    result = session.result
    assert (summary.steps, summary.sup_space, summary.collected) == (
        result.steps, result.sup_space, result.collected
    )


class _Killed(Exception):
    pass


def test_stream_writer_survives_a_killed_run(tmp_path):
    """A run that dies mid-trace must still leave a schema-valid JSONL
    file behind: the context-manager close flushes the buffered tail."""
    path = tmp_path / "partial.jsonl"
    with pytest.raises(_Killed):
        with JsonlStreamWriter(path, flush_every=10_000) as writer:
            # flush_every is huge on purpose: every line after the
            # opening meta record reaches the disk only if the close
            # path flushes.
            def sink(event):
                writer(event)
                if writer.events >= 57:
                    raise _Killed()

            trace_run("gc", LOOP, "500", sink=sink, retain=False)
    info = validate_jsonl(path)
    assert info["events"] == 57
    assert len(read_jsonl(path)) == 57


def test_stream_writer_close_is_idempotent(tmp_path):
    path = tmp_path / "twice.jsonl"
    writer = JsonlStreamWriter(path)
    writer.write(Event("space", 0.0, 1, "flat", 5))
    assert writer.close() == 1
    assert writer.close() == 1  # no second closing record
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # opening meta, one event, closing meta
    with pytest.raises(ValueError):
        writer.write(Event("space", 0.0, 2, "flat", 6))


def test_stream_writer_borrows_open_handles(tmp_path):
    path = tmp_path / "borrowed.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        writer = JsonlStreamWriter(handle, meta={"machine": "tail"})
        writer.write(Event("gc", 0.0, 3, "canonical", 2))
        writer.close()
        assert not handle.closed  # borrowed, never closed
    info = validate_jsonl(path)
    assert info["meta"]["machine"] == "tail"
    assert info["events"] == 1


def test_jsonl_validator_accepts_meta_after_line_one(tmp_path):
    path = tmp_path / "closing.jsonl"
    path.write_text(
        '{"kind": "meta", "version": 1, "streamed": true}\n'
        '{"kind": "step", "ts": 0.1, "step": 1, "label": "expr:Var",'
        ' "value": 1}\n'
        '{"kind": "meta", "version": 1, "closing": true, "events": 1}\n'
    )
    info = validate_jsonl(path)
    assert info["events"] == 1
    assert info["meta"]["closing"] is True


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_format_key_round_trip():
    key = format_key("steps", {"machine": "gc", "kind": "kont:Push"})
    assert key == "steps{kind=kont:Push,machine=gc}"
    assert parse_key(key) == ("steps", {"machine": "gc", "kind": "kont:Push"})
    assert parse_key("plain") == ("plain", {})


def test_registry_instruments_are_memoized():
    registry = MetricsRegistry()
    a = registry.counter("x", machine="tail")
    b = registry.counter("x", machine="tail")
    assert a is b
    a.inc(3)
    assert registry.as_dict()["counters"]["x{machine=tail}"] == 3


def test_histogram_buckets_and_mean():
    registry = MetricsRegistry()
    hist = registry.histogram("depth", bounds=(1, 2, 4))
    for value in (0, 1, 2, 3, 5, 100):
        hist.observe(value)
    dump = registry.as_dict()["histograms"]["depth"]
    assert dump["count"] == 6
    assert dump["max"] == 100
    assert dump["buckets"]["<=1"] == 2
    assert dump["buckets"]["<=2"] == 1
    assert dump["buckets"]["<=4"] == 1
    assert dump["buckets"]["+Inf"] == 2
    assert hist.mean == pytest.approx(111 / 6)


def test_merge_sums_counters_and_maxes_gauges():
    first = MetricsRegistry()
    first.counter("steps_total", machine="gc").inc(10)
    first.gauge("sup_space", machine="gc").set(50)
    first.histogram("kont_depth").observe(3)
    second = MetricsRegistry()
    second.counter("steps_total", machine="gc").inc(5)
    second.gauge("sup_space", machine="gc").set(70)
    second.histogram("kont_depth").observe(9)
    merged = MetricsRegistry.merge([first.as_dict(), second.as_dict()])
    assert merged["counters"]["steps_total{machine=gc}"] == 15
    assert merged["gauges"]["sup_space{machine=gc}"] == 70
    assert merged["histograms"]["kont_depth"]["count"] == 2
    assert merged["histograms"]["kont_depth"]["max"] == 9


def test_step_mix_live_and_serialized():
    session = trace_run("tail", LOOP, "10")
    live = step_mix(session.metrics, machine="tail")
    serialized = step_mix(session.metrics.as_dict(), machine="tail")
    assert live == serialized
    assert sum(live.values()) == session.result.steps
    assert "kont:Push" in live


def test_metered_run_populates_the_registry():
    session = trace_run("sfs", LOOP, "15")
    dump = session.metrics.as_dict()
    assert dump["counters"]["steps_total{machine=sfs}"] == (
        session.result.steps
    )
    assert dump["gauges"]["sup_space{accounting=flat,machine=sfs}"] == (
        session.result.sup_space
    )
    assert dump["counters"]["restrict_calls{machine=sfs}"] > 0
    # sfs restricts per evaluation of the same program points: the
    # memo should be doing real work on a loop.
    assert dump["counters"]["restrict_hits{machine=sfs}"] > 0
    assert dump["histograms"]["kont_depth{machine=sfs}"]["count"] == (
        session.result.steps
    )


def test_escape_fallback_is_counted():
    session = trace_run("tail", ESCAPE, "3", engine="delta")
    dump = session.metrics.as_dict()
    assert dump["counters"].get(
        "engine_escape_fallback{machine=tail}", 0) == 1


# ---------------------------------------------------------------------------
# Sweep aggregation
# ---------------------------------------------------------------------------


def _grid():
    return [
        SweepCell(
            key=("gc", n), machine="gc", program=LOOP, argument=str(n),
            metrics=True,
        )
        for n in (5, 10, 15)
    ]


def test_sweep_cells_carry_metric_dumps():
    outcomes = run_grid(_grid())
    for outcome in outcomes:
        assert outcome.metrics is not None
        steps = outcome.metrics["counters"]["steps_total{machine=gc}"]
        assert steps == outcome.result.steps


def test_aggregate_metrics_sums_across_the_grid():
    outcomes = run_grid(_grid())
    merged = aggregate_metrics(outcomes)
    total = sum(outcome.result.steps for outcome in outcomes)
    assert merged["counters"]["steps_total{machine=gc}"] == total
    assert merged["gauges"]["sup_space{accounting=flat,machine=gc}"] == max(
        outcome.result.sup_space for outcome in outcomes
    )


def test_parallel_sweep_metrics_match_serial():
    serial = aggregate_metrics(run_grid(_grid(), jobs=1))
    parallel = aggregate_metrics(run_grid(_grid(), jobs=2))
    assert serial == parallel


# ---------------------------------------------------------------------------
# Event plumbing details
# ---------------------------------------------------------------------------


def test_event_kinds_are_closed():
    session = trace_run("mta", BUILD, "5")
    for event in session.bus.events:
        assert event.kind in EVENT_KINDS
        assert isinstance(event, Event)


def test_gc_events_sum_to_collected():
    session = trace_run("gc", BUILD, "10")
    collected = sum(
        event.value for event in session.bus.events if event.kind == "gc"
    )
    assert collected == session.result.collected


def test_unmetered_run_traces_steps_only():
    from repro.harness.runner import run

    bus = TraceBus()
    registry = MetricsRegistry()
    result = run(LOOP, "20", machine="tail", trace=bus, metrics=registry)
    steps = sum(1 for event in bus.events if event.kind == "step")
    assert steps == result.steps
    assert not any(event.kind == "space" for event in bus.events)
    assert bus.meta["metered"] is False
    assert registry.as_dict()["counters"]["steps_total{machine=tail}"] == (
        result.steps
    )


def test_blame_requires_meter():
    from repro.harness.runner import run
    from repro.telemetry.blame import BlameProfiler

    with pytest.raises(ValueError):
        run(LOOP, "5", blame=BlameProfiler())


# ---------------------------------------------------------------------------
# Socket sinks: the serving layer's stream fidelity
# ---------------------------------------------------------------------------


def test_stream_writer_socket_sink_is_byte_identical(tmp_path):
    """A JsonlStreamWriter pointed at a socket handle must put exactly
    the bytes on the wire that the file sink puts on disk — the
    property `repro serve`'s /stream endpoint rides on."""
    path = tmp_path / "disk.jsonl"
    left, right = socket.socketpair()
    received = bytearray()

    def drain():
        while True:
            chunk = right.recv(65536)
            if not chunk:
                return
            received.extend(chunk)

    thread = threading.Thread(target=drain)
    thread.start()

    events = [
        Event("step", 0.25 * i, i, f"expr:Var{i}", i % 3) for i in range(40)
    ]
    meta = {"machine": "gc"}
    wire = left.makefile("w", encoding="utf-8", newline="\n")
    disk = JsonlStreamWriter(path, meta=dict(meta))
    sock = JsonlStreamWriter(wire, meta=dict(meta))
    for event in events:
        disk.write(event)
        sock.write(event)
    disk.close()
    sock.close()
    wire.close()
    left.close()
    thread.join(timeout=30)
    right.close()

    assert bytes(received) == path.read_bytes()
    info = validate_jsonl(path)
    assert info["events"] == len(events)
    assert info["meta"]["closing"] is True
