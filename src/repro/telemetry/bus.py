"""The trace bus: a zero-overhead-when-disabled structured event sink.

The run drivers take the bus, never a machine:
``run_metered(trace=bus)`` publishes from its eager loop (its
collectors report reclamations through the bus's ``emit_gc``), and
``run_to_final(trace=bus)`` steps a traced unmetered run one
transition at a time.  An untraced run's fused loop checks for no bus
at all, and the meter pays one ``is None`` test per call site; the
overhead benchmark (``benchmarks/test_bench_telemetry_overhead.py``)
holds the untraced rate to within 10% of the recorded step-rate
baselines.

Event kinds:

``step``
    one machine transition; ``label`` classifies it (``expr:Var``,
    ``kont:CallK``, ...) and ``step`` is the bus's running transition
    count.  With the default sampling rate of 1 the number of ``step``
    events in a stream equals the meter's step count exactly — the
    trace-fidelity tests replay streams against ``run_metered``.
``apply``
    a procedure application about to be performed (the configuration
    holds an operator value before a call continuation); ``label``
    classifies the operator (``closure``, ``primop:<name>``,
    ``escape``) and ``value`` is the argument count.
``gc``
    one reclamation by a collector; ``label`` says which
    (``canonical``, ``delta``, ``trial``) and ``value`` how many
    locations it freed.  Collectors emit only nonzero reclamations, so
    the values of a stream's ``gc`` events sum to the meter's
    ``collected`` total exactly.
``space``
    one space measurement; ``label`` is the accounting (``flat`` /
    ``linked``) and ``value`` the measured words.  The meter emits one
    at every point it measures — the initial configuration, every
    transition, and the pre-GC final measurement — so the maximum over
    a stream's ``space`` events is the meter's ``sup_space`` exactly.
``phase``
    a named phase boundary (``label`` suffixed ``:begin``/``:end``) —
    injection, priming, the run itself; exported as Chrome duration
    events.
``cell``
    one sweep-grid cell summary (emitted by the sweep harness, not the
    machines).

Sampling is per-kind: ``TraceBus(sample={"step": 100})`` keeps every
100th step event (always including the first).  Replay fidelity
requires the default rate of 1 for the kinds it reconstructs.  The
buffer is unbounded by default; ``capacity=N`` keeps the most recent N
events (a ring) and counts what it dropped.

Streaming: ``sink`` is a callable invoked with every event that
survives sampling, *before* the ring sees it — attach a
:class:`repro.telemetry.export.JsonlStreamWriter` and events hit the
disk as they are emitted.  ``retain=False`` turns the ring off
entirely (``events`` stays empty), so an unbounded corpus run streams
in constant memory with no capacity tuning; the stream then *is* the
record, and replaying the written file reconstructs the same numbers
the ring would have.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterable, List, NamedTuple, Optional

from ..machine.continuation import CallK
from ..machine.values import Closure, Escape, Primop

EVENT_KINDS = ("step", "apply", "gc", "space", "phase", "cell")


class Event(NamedTuple):
    """One telemetry event (see the module docstring for the kinds)."""

    kind: str
    ts: float
    step: int
    label: str
    value: int


class ReplaySummary(NamedTuple):
    """What :func:`replay` reconstructs from an event stream."""

    steps: int
    sup_space: int
    peak_step: int
    collected: int


def step_kind_label(state) -> str:
    """Classify one transition by the component that drives it: the
    continuation class for value states (the right column of Figure 5),
    the expression class for eval states (the left column)."""
    if state.is_value:
        return "kont:" + state.kont.__class__.__name__
    return "expr:" + state.control.__class__.__name__


def _operator_label(operator) -> str:
    cls = operator.__class__
    if cls is Closure or isinstance(operator, Closure):
        return "closure"
    if cls is Primop or isinstance(operator, Primop):
        return "primop:" + operator.name
    if isinstance(operator, Escape):
        return "escape"
    return "other:" + cls.__name__


class TraceBus:
    """A bounded, sampled sink for machine telemetry events."""

    __slots__ = (
        "events",
        "capacity",
        "dropped",
        "steps",
        "meta",
        "sink",
        "retain",
        "_rates",
        "_seen",
        "_clock",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        sample: Optional[Dict[str, int]] = None,
        clock=time.perf_counter,
        sink=None,
        retain: bool = True,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        rates = dict(sample) if sample else {}
        for kind, rate in rates.items():
            if kind not in EVENT_KINDS:
                raise ValueError(
                    f"unknown event kind {kind!r} (want one of {EVENT_KINDS})"
                )
            if rate < 1:
                raise ValueError(f"sampling rate for {kind!r} must be >= 1")
        self.events = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0
        #: Running transition count — incremented by every step event
        #: *offered* to the bus, sampled away or not, so sampled
        #: streams still carry true step indices.
        self.steps = 0
        #: Free-form run description (machine, accounting, engine, ...)
        #: written by whoever attached the bus; exported with the
        #: stream.
        self.meta: Dict[str, object] = {}
        #: Streaming sink: called with every post-sampling event.
        self.sink = sink
        #: ``False`` disables the ring entirely (streaming-only mode).
        self.retain = retain
        self._rates = rates
        self._seen = dict.fromkeys(EVENT_KINDS, 0)
        self._clock = clock

    # -- the generic emit path ---------------------------------------------

    def _emit(self, kind: str, step: int, label: str, value: int) -> None:
        seen = self._seen[kind]
        self._seen[kind] = seen + 1
        rate = self._rates.get(kind, 1)
        if rate != 1 and seen % rate:
            return
        event = Event(kind, self._clock(), step, label, value)
        if self.sink is not None:
            self.sink(event)
        if not self.retain:
            return
        events = self.events
        if self.capacity is not None and len(events) == self.capacity:
            self.dropped += 1
        events.append(event)

    # -- producer API -------------------------------------------------------

    def emit_step_state(self, state) -> str:
        """Record one transition about to be taken from *state*; when
        the transition is a procedure application, also record the
        apply event.  Returns the step label (so metered drivers can
        reuse it for the metrics registry without reclassifying)."""
        label = step_kind_label(state)
        self.steps += 1
        self._emit("step", self.steps, label, 1)
        if state.is_value and state.kont.__class__ is CallK:
            self._emit(
                "apply",
                self.steps,
                _operator_label(state.control),
                len(state.kont.args),
            )
        return label

    def emit_space(self, label: str, value: int, step: Optional[int] = None) -> None:
        """Record one space measurement (label = the accounting)."""
        self._emit("space", self.steps if step is None else step, label, value)

    def emit_gc(self, label: str, collected: int) -> None:
        """Record one nonzero reclamation by a collector."""
        self._emit("gc", self.steps, label, collected)

    def emit_phase(self, label: str, begin: bool) -> None:
        """Record a phase boundary (begin=True opens it)."""
        self._emit("phase", self.steps, label + (":begin" if begin else ":end"), 1)

    def emit_cell(self, label: str, value: int, step: int = 0) -> None:
        """Record one sweep-cell summary (harness-level producers)."""
        self._emit("cell", step, label, value)

    # -- consumer API -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Events *offered* per kind (before sampling and the ring)."""
        return dict(self._seen)

    def kept(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def replay(self) -> ReplaySummary:
        return replay(self.events)


def replay(events: Iterable[Event]) -> ReplaySummary:
    """Reconstruct the meter's headline numbers from an event stream.

    Exact only for unsampled, unbounded streams (the default bus): the
    step count is the number of ``step`` events, the sup-space is the
    maximum (and its first attaining step) over ``space`` events, and
    the collection total is the sum over ``gc`` events.  The fidelity
    suite holds these equal to ``run_metered``'s own report.
    """
    steps = 0
    sup_space = -1
    peak_step = 0
    collected = 0
    for event in events:
        kind = event[0]
        if kind == "step":
            steps += 1
        elif kind == "space":
            if event.value > sup_space:
                sup_space = event.value
                peak_step = event.step
        elif kind == "gc":
            collected += event.value
    return ReplaySummary(steps, max(sup_space, 0), peak_step, collected)


__all__ = [
    "EVENT_KINDS",
    "Event",
    "ReplaySummary",
    "TraceBus",
    "replay",
    "step_kind_label",
]
