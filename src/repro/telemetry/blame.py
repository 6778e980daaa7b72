"""The space-blame profiler: who holds the words of an S_X/U_X measurement.

:func:`blame_configuration` decomposes one configuration's Figure 7
(flat) or Figure 8 (linked) space over named holders — AST nodes
(lambdas whose closures populate the store, call sites whose push/call
frames populate the continuation) and continuation classes — and the
decomposition is *exact*: the blame values sum to precisely the space
the meter reports for that configuration, under either accounting and
either number precision.  This is a theorem about the implementation,
enforced by a property-based test (``tests/test_blame.py``), not a
sampling approximation.

Holder keys:

``env:register``       the register environment (|Dom rho|, flat only)
``kont:<Class>``       a continuation frame's own words; push/call
                       frames carry their call site:
                       ``kont:Push@(f (- n 1))``
``closure@<lambda>``   a closure value (accumulator or store cell),
                       keyed by the lambda that created it
``store:<Class>``      a non-closure store cell (its 1 + space(v))
``acc:<Class>``        a non-closure accumulator value
``escape``             an escape procedure (flat: plus the frames of
                       the continuation it retains)
``binding:<name>``     linked accounting only: one word per distinct
                       (identifier, location) binding, keyed by the
                       identifier

The flat decomposition leans on the construction-time caches: a
frame's own contribution is ``frame.flat_space - parent.flat_space``
and a store cell's is ``1 + value_space(v)``, the same quantities the
incremental totals are built from.  The linked decomposition replays
the oracle tally's walk (:class:`repro.space.linked._LinkedTally`) —
same frame dedup, same parked-value convention — attributing each
structural word and each distinct binding as it is counted.

:class:`BlameProfiler` samples :func:`blame_configuration` over a
metered run (the meter calls :meth:`BlameProfiler.observe` at every
point it measures) and keeps the decomposition at the peak — the
configuration that *is* the sup — plus running totals for an
average-shape profile, plus a *bounded, sample-stride history* of
whole decompositions: the time-series behind "who holds the space,
and when".  The history is exposed as a :class:`BlameSeries`
artifact; every retained point is an original sampled configuration,
so the exactness invariant (blame sums == measured space) holds
pointwise over the series under both accountings — the same property
test that guards the peak snapshot walks the series.  When the
history outgrows ``series_capacity`` the profiler doubles its keep
stride and drops every other retained point, so unbounded runs keep a
bounded, uniformly-strided series whose peak sample survives
separately in ``at_peak``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..machine.config import Final
from ..machine.continuation import CallK, Push, chain
from ..machine.values import Closure, Escape
from ..space.flat import value_space
from ..space.linked import value_structural
from ..syntax.ast import core_to_string, derive

NODE_LABEL_LIMIT = 48


def node_label(expr, limit: int = NODE_LABEL_LIMIT) -> str:
    """A compact external-syntax label for an AST node, cached on the
    node."""
    label = getattr(expr, "label", None)
    if label is None:
        text = core_to_string(expr)
        label = text if len(text) <= limit else text[: limit - 3] + "..."
        derive(expr, "label", label)
    return label


def _kont_label(frame) -> str:
    cls = frame.__class__.__name__
    site = getattr(frame, "site", None)
    if site is not None:
        return f"kont:{cls}@{node_label(site)}"
    return f"kont:{cls}"


def _value_label(value, where: str) -> str:
    if isinstance(value, Closure):
        return f"closure@{node_label(value.lam)}"
    if isinstance(value, Escape):
        return "escape"
    return f"{where}:{value.__class__.__name__}"


def _blame_flat(configuration, fixed_precision: bool) -> Dict[str, int]:
    blame: Dict[str, int] = {}

    def add(key: str, words: int) -> None:
        if words:
            blame[key] = blame.get(key, 0) + words

    if isinstance(configuration, Final):
        add(
            _value_label(configuration.value, "acc"),
            value_space(configuration.value, fixed_precision),
        )
    else:
        add("env:register", len(configuration.env))
        frame = configuration.kont
        while frame is not None:
            parent = frame.parent
            own = frame.flat_space - (parent.flat_space if parent else 0)
            add(_kont_label(frame), own)
            frame = parent
        if configuration.is_value:
            add(
                _value_label(configuration.control, "acc"),
                value_space(configuration.control, fixed_precision),
            )
    for _location, value in configuration.store.items():
        add(
            _value_label(value, "store"),
            1 + value_space(value, fixed_precision),
        )
    return blame


def _blame_linked(configuration, fixed_precision: bool) -> Dict[str, int]:
    # Mirrors _LinkedTally's walk word for word: same frame dedup (a
    # shared ancestor ends the whole chain walk), same parked-value
    # convention (m/n words on the frame, no binding charge), same
    # global binding set.
    blame: Dict[str, int] = {}
    bindings: set = set()
    seen_konts: set = set()

    def add(key: str, words: int) -> None:
        if words:
            blame[key] = blame.get(key, 0) + words

    def add_env(env) -> None:
        if env is not None:
            bindings.update(env.graph())

    def add_kont(kont) -> None:
        for frame in chain(kont):
            if id(frame) in seen_konts:
                return
            seen_konts.add(id(frame))
            if isinstance(frame, Push):
                words = 1 + len(frame.pending) + len(frame.done)
            elif isinstance(frame, CallK):
                words = 1 + len(frame.args)
            else:
                words = 1
            add(_kont_label(frame), words)
            add_env(frame.env)

    def add_value(value, where: str, cell: int = 0) -> None:
        label = _value_label(value, where)
        if isinstance(value, Closure):
            add(label, cell + 1)
            add_env(value.env)
        elif isinstance(value, Escape):
            add(label, cell + 1)
            add_kont(value.kont)
        else:
            add(label, cell + value_structural(value, fixed_precision))

    if isinstance(configuration, Final):
        add_value(configuration.value, "acc")
    else:
        add_env(configuration.env)
        add_kont(configuration.kont)
        if configuration.is_value:
            add_value(configuration.control, "acc")
    for _location, value in configuration.store.items():
        add_value(value, "store", cell=1)
    for name, _location in bindings:
        add(f"binding:{name}", 1)
    return blame


def blame_configuration(
    configuration,
    linked: bool = False,
    fixed_precision: bool = False,
) -> Dict[str, int]:
    """Decompose space(C) over named holders; the values sum exactly
    to ``configuration_space(C)`` (or ``configuration_space_linked``)."""
    if linked:
        return _blame_linked(configuration, fixed_precision)
    return _blame_flat(configuration, fixed_precision)


class IncrementalBlame:
    """Per-holder blame maintained as a delta alongside the meter.

    The :class:`~repro.space.meter.DeltaMeter` fans its store-mutation
    hooks and root-component diffs into this object, so the per-holder
    dict tracks :func:`blame_configuration`'s decomposition of the
    *current* configuration exactly — a blame sample becomes an
    O(changed-holders) dict copy instead of an O(configuration)
    re-decomposition.  Label and word conventions mirror
    ``_blame_flat`` / ``_blame_linked`` term for term:

    - store cells via the mutation hooks (flat: ``1 + space(v)``;
      linked: closures 2, others ``1 + structural``),
    - continuation frames via the chain diff (own words =
      ``flat_space``/``linked_space`` minus the parent's),
    - the accumulator via the acc diff,
    - ``env:register`` (flat only) set absolutely per step,
    - ``binding:<name>`` (linked only) driven by the binding ledger's
      0↔1 distinct-set transitions.

    The engine deactivates this object when it permanently falls back
    (escape procedures); the profiler then resumes from-scratch
    decomposition, so every sample stays exact either way.
    """

    __slots__ = ("blame", "linked", "fixed_precision", "active")

    def __init__(self, linked: bool, fixed_precision: bool):
        self.blame: Dict[str, int] = {}
        self.linked = linked
        self.fixed_precision = fixed_precision
        self.active = True

    def _add(self, key: str, words: int) -> None:
        if words:
            blame = self.blame
            blame[key] = blame.get(key, 0) + words

    def snapshot(self) -> Dict[str, int]:
        """The current decomposition (zero-valued holders dropped, so
        the dict equals the from-scratch oracle's key for key)."""
        return {key: words for key, words in self.blame.items() if words}

    # -- store cells ---------------------------------------------------------

    def _store_words(self, value) -> int:
        if self.linked:
            if isinstance(value, Closure):
                return 2
            return 1 + value_structural(value, self.fixed_precision)
        return 1 + value_space(value, self.fixed_precision)

    def store_add(self, value) -> None:
        self._add(_value_label(value, "store"), self._store_words(value))

    def store_remove(self, value) -> None:
        self._add(_value_label(value, "store"), -self._store_words(value))

    # -- continuation frames -------------------------------------------------

    def _frame_words(self, frame) -> int:
        parent = frame.parent
        if self.linked:
            return frame.linked_space - (parent.linked_space if parent else 0)
        return frame.flat_space - (parent.flat_space if parent else 0)

    def frame_add(self, frame) -> None:
        self._add(_kont_label(frame), self._frame_words(frame))

    def frame_remove(self, frame) -> None:
        self._add(_kont_label(frame), -self._frame_words(frame))

    # -- register environment / accumulator ---------------------------------

    def set_env_size(self, size: int) -> None:
        """Flat accounting charges the register environment |Dom rho|
        words; set absolutely (the env is swapped wholesale per step)."""
        blame = self.blame
        if size:
            blame["env:register"] = size
        elif "env:register" in blame:
            blame["env:register"] = 0

    def _acc_words(self, value) -> int:
        if self.linked:
            if isinstance(value, Closure):
                return 1
            return value_structural(value, self.fixed_precision)
        return value_space(value, self.fixed_precision)

    def acc_add(self, value) -> None:
        self._add(_value_label(value, "acc"), self._acc_words(value))

    def acc_remove(self, value) -> None:
        self._add(_value_label(value, "acc"), -self._acc_words(value))

    # -- distinct bindings (driven by the BindingLedger) ---------------------

    def bind_delta(self, name: str, delta: int) -> None:
        self._add(f"binding:{name}", delta)


def holder_class(key: str) -> str:
    """Collapse a holder key to its machine-independent class: call
    sites and lambdas are stripped (``kont:Push@(f (- n 1))`` ->
    ``kont:Push``, ``closure@(lambda (n) ...)`` -> ``closure``,
    ``binding:n`` -> ``binding``); structural keys pass through.  The
    corpus blame census aggregates over classes so programs with
    different ASTs land in the same rows."""
    if key.startswith("kont:"):
        return key.split("@", 1)[0]
    if key.startswith("closure@"):
        return "closure"
    if key.startswith("binding:"):
        return "binding"
    return key


def blame_by_class(blame: Dict[str, int]) -> Dict[str, int]:
    """Re-key a blame decomposition by :func:`holder_class` (an exact
    regrouping: the sum is unchanged)."""
    classed: Dict[str, int] = {}
    for key, words in blame.items():
        cls = holder_class(key)
        classed[cls] = classed.get(cls, 0) + words
    return classed


@dataclass
class BlameSeries:
    """A per-holder space time-series: the profiler's retained history
    as an artifact.

    Parallel lists — ``steps[i]`` / ``spaces[i]`` / ``blames[i]`` are
    one sampled configuration: the step it was measured at, the space
    the meter reported, and the exact decomposition (so
    ``sum(blames[i].values()) == spaces[i]`` at every point).
    ``stride`` records the effective keep stride (it doubles each time
    the bounded profiler compacted).
    """

    machine: str = ""
    linked: bool = False
    fixed_precision: bool = False
    steps: List[int] = field(default_factory=list)
    spaces: List[int] = field(default_factory=list)
    blames: List[Dict[str, int]] = field(default_factory=list)
    stride: int = 1

    def __len__(self) -> int:
        return len(self.steps)

    def holders(self, top: Optional[int] = None) -> List[str]:
        """Holder keys ordered by their peak words over the series
        (largest first, ties by name); ``top`` keeps the first N."""
        peaks: Dict[str, int] = {}
        for blame in self.blames:
            for key, words in blame.items():
                if words > peaks.get(key, 0):
                    peaks[key] = words
        ordered = sorted(peaks, key=lambda key: (-peaks[key], key))
        return ordered[:top] if top is not None else ordered

    def series_for(self, holder: str) -> List[int]:
        """One holder's words at every sampled point (0 when absent)."""
        return [blame.get(holder, 0) for blame in self.blames]

    def totals(self) -> Dict[str, int]:
        """Per-holder words summed over the samples (census shape)."""
        totals: Dict[str, int] = {}
        for blame in self.blames:
            for key, words in blame.items():
                totals[key] = totals.get(key, 0) + words
        return totals

    def peak(self) -> Tuple[int, int, Dict[str, int]]:
        """(step, space, blame) of the sampled point with the most
        space ((0, 0, {}) for an empty series)."""
        if not self.steps:
            return (0, 0, {})
        index = max(range(len(self.spaces)), key=lambda i: self.spaces[i])
        return (self.steps[index], self.spaces[index], self.blames[index])

    def downsample(self, max_points: int) -> "BlameSeries":
        """A new series with at most ``max_points`` samples: the index
        range is cut into buckets and each bucket is represented by its
        maximum-space sample, so the sup survives and every kept point
        is an original (still-exact) sample."""
        if max_points < 1:
            raise ValueError("max_points must be >= 1")
        count = len(self.steps)
        if count <= max_points:
            return BlameSeries(
                self.machine, self.linked, self.fixed_precision,
                list(self.steps), list(self.spaces),
                [dict(blame) for blame in self.blames], self.stride,
            )
        keep: List[int] = []
        for bucket in range(max_points):
            lo = bucket * count // max_points
            hi = max(lo + 1, (bucket + 1) * count // max_points)
            keep.append(max(range(lo, hi), key=lambda i: self.spaces[i]))
        return BlameSeries(
            self.machine, self.linked, self.fixed_precision,
            [self.steps[i] for i in keep],
            [self.spaces[i] for i in keep],
            [dict(self.blames[i]) for i in keep],
            self.stride * max(1, count // max_points),
        )

    @classmethod
    def merge(cls, series: "List[BlameSeries]") -> "BlameSeries":
        """Fold several series (e.g. one per sweep cell) into one
        artifact: the sampled points are concatenated in (step, input)
        order.  Every point keeps its own exactness receipt; the merge
        refuses to mix accountings (the sums would not be comparable).
        """
        series = [one for one in series if len(one)]
        if not series:
            return cls()
        accountings = {
            (one.linked, one.fixed_precision) for one in series
        }
        if len(accountings) > 1:
            raise ValueError("cannot merge series with mixed accountings")
        machines = sorted({one.machine for one in series if one.machine})
        points = []
        for order, one in enumerate(series):
            for i in range(len(one)):
                points.append((one.steps[i], order, one.spaces[i],
                               one.blames[i]))
        points.sort(key=lambda p: (p[0], p[1]))
        linked, fixed_precision = next(iter(accountings))
        return cls(
            machine="+".join(machines),
            linked=linked,
            fixed_precision=fixed_precision,
            steps=[p[0] for p in points],
            spaces=[p[2] for p in points],
            blames=[dict(p[3]) for p in points],
            stride=max(one.stride for one in series),
        )

    def as_dict(self) -> dict:
        """Plain-data form (picklable / JSON-ready) — what a sweep
        worker ships back over the channel."""
        return {
            "machine": self.machine,
            "linked": self.linked,
            "fixed_precision": self.fixed_precision,
            "stride": self.stride,
            "steps": list(self.steps),
            "spaces": list(self.spaces),
            "blames": [dict(blame) for blame in self.blames],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BlameSeries":
        return cls(
            machine=payload.get("machine", ""),
            linked=bool(payload.get("linked", False)),
            fixed_precision=bool(payload.get("fixed_precision", False)),
            steps=list(payload.get("steps", ())),
            spaces=list(payload.get("spaces", ())),
            blames=[dict(blame) for blame in payload.get("blames", ())],
            stride=int(payload.get("stride", 1)),
        )


class BlameProfiler:
    """Samples blame decompositions over a metered run.

    ``every=k`` decomposes every k-th measured configuration (1 =
    all); the peak snapshot is taken over the *sampled* configurations,
    so with the default it is exactly the configuration attaining the
    sup.  ``history`` keeps one (step, space, blame-sum) triple per
    sample — the property tests' receipt that every decomposition
    summed to the meter's own measurement.

    ``series_capacity`` bounds the retained whole-decomposition
    history behind :meth:`series`: each sampled decomposition is kept
    while the retained list is short, and when it would exceed the
    capacity the profiler drops every other retained point and doubles
    its keep stride — bounded memory over unbounded runs, at the cost
    of a coarser (but still pointwise-exact) series.  ``0`` disables
    series retention entirely (peak/totals/history still work).

    ``incremental=True`` asks the meter to maintain the decomposition
    as a delta (:class:`IncrementalBlame`): each sample is then an
    O(holders) dict copy instead of an O(configuration) re-walk, with
    identical (exact) values — the engine deactivates the delta and
    this profiler resumes from-scratch decomposition if it permanently
    falls back.  ``incremental_samples`` counts how many samples the
    delta path served.
    """

    def __init__(
        self,
        every: int = 1,
        series_capacity: int = 256,
        incremental: bool = False,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        if series_capacity < 0:
            raise ValueError("series_capacity must be >= 0")
        self.every = every
        self.series_capacity = series_capacity
        self.incremental = incremental
        self.incremental_samples = 0
        self._inc: Optional[IncrementalBlame] = None
        self.machine: Optional[str] = None
        self.linked = False
        self.fixed_precision = False
        self.observed = 0
        self.sampled = 0
        self.peak_space = -1
        self.peak_step = 0
        self.at_peak: Dict[str, int] = {}
        self.totals: Dict[str, int] = {}
        self.history: List[Tuple[int, int, int]] = []
        #: Effective keep stride of the retained series (in units of
        #: *sampled* configurations); doubles on each compaction.
        self.series_stride = 1
        self._series_steps: List[int] = []
        self._series_spaces: List[int] = []
        self._series_blames: List[Dict[str, int]] = []

    def bind(self, machine: str, linked: bool, fixed_precision: bool) -> None:
        """Called by the meter before the run starts."""
        self.machine = machine
        self.linked = linked
        self.fixed_precision = fixed_precision

    def attach_engine(self, meter) -> None:
        """Wire the incremental delta into the delta engine
        (called by ``run_metered`` after :meth:`bind`; a no-op unless
        ``incremental=True`` and the engine supports the hook)."""
        if not self.incremental or not hasattr(meter, "blame_inc"):
            return
        inc = IncrementalBlame(self.linked, self.fixed_precision)
        meter.blame_inc = inc
        ledger = getattr(meter, "ledger", None)
        if ledger is not None:
            ledger.blame = inc
        self._inc = inc

    def observe(self, configuration, space: int, step: int) -> None:
        """One measured configuration; called by ``run_metered`` at
        every measure point (step 0, each transition, the pre-GC
        final)."""
        count = self.observed
        self.observed = count + 1
        if count % self.every:
            return
        inc = self._inc
        if inc is not None and inc.active:
            blame = inc.snapshot()
            self.incremental_samples += 1
        else:
            blame = blame_configuration(
                configuration, self.linked, self.fixed_precision
            )
        sample_index = self.sampled
        self.sampled = sample_index + 1
        totals = self.totals
        total = 0
        for key, words in blame.items():
            totals[key] = totals.get(key, 0) + words
            total += words
        self.history.append((step, space, total))
        if space > self.peak_space:
            self.peak_space = space
            self.peak_step = step
            self.at_peak = blame
        capacity = self.series_capacity
        if capacity and sample_index % self.series_stride == 0:
            if len(self._series_steps) >= capacity:
                self._series_steps = self._series_steps[::2]
                self._series_spaces = self._series_spaces[::2]
                self._series_blames = self._series_blames[::2]
                self.series_stride *= 2
                if sample_index % self.series_stride:
                    return
            self._series_steps.append(step)
            self._series_spaces.append(space)
            self._series_blames.append(blame)

    def series(self, include_peak: bool = True) -> BlameSeries:
        """The retained per-holder time-series as a :class:`BlameSeries`.

        ``include_peak`` splices the peak snapshot back in (in step
        order) when compaction dropped it — the sup is the one sample a
        space story cannot lose.  Every point is an original sampled
        decomposition, so the exactness invariant holds pointwise.
        """
        steps = list(self._series_steps)
        spaces = list(self._series_spaces)
        blames = [dict(blame) for blame in self._series_blames]
        if (
            include_peak
            and self.peak_space >= 0
            and self.at_peak
            and self.peak_step not in steps
        ):
            at = next(
                (i for i, step in enumerate(steps) if step > self.peak_step),
                len(steps),
            )
            steps.insert(at, self.peak_step)
            spaces.insert(at, self.peak_space)
            blames.insert(at, dict(self.at_peak))
        return BlameSeries(
            machine=self.machine or "",
            linked=self.linked,
            fixed_precision=self.fixed_precision,
            steps=steps,
            spaces=spaces,
            blames=blames,
            stride=self.series_stride,
        )

    def mean(self) -> Dict[str, float]:
        """The average blame profile over the sampled configurations."""
        if not self.sampled:
            return {}
        return {key: words / self.sampled for key, words in self.totals.items()}


@dataclass
class TraceSession:
    """Everything one traced-and-profiled run produced."""

    result: object  # MeterResult
    bus: object  # TraceBus
    metrics: object  # MetricsRegistry
    blame: BlameProfiler
    machine: str = ""
    linked: bool = False
    extra: dict = field(default_factory=dict)
    #: RetentionProfiler when the run sampled retention snapshots.
    retention: object = None


def trace_run(
    machine_name: str,
    program,
    argument=None,
    *,
    linked: bool = False,
    fixed_precision: bool = False,
    stepper: str = "annotated",
    engine: str = "delta",
    gc_interval: int = 1,
    step_limit: Optional[int] = None,
    sample: Optional[Dict[str, int]] = None,
    capacity: Optional[int] = None,
    blame_every: int = 1,
    series_capacity: int = 256,
    sink=None,
    retain: bool = True,
    retention_every: int = 0,
) -> TraceSession:
    """Run one program on one machine with the full telemetry stack
    attached — trace bus, metrics registry, blame profiler — and
    return all four artifacts.  This is what ``python -m repro trace``
    drives.

    ``sink`` streams every kept event (see
    :class:`repro.telemetry.export.JsonlStreamWriter`); ``retain=False``
    turns the bus's ring off so an unbounded run streams in constant
    memory.  ``series_capacity`` bounds the blame profiler's retained
    per-holder time-series (0 disables it).  ``retention_every`` > 0
    additionally attaches a
    :class:`~repro.telemetry.retention.RetentionProfiler` sampling a
    retention snapshot every that many observations
    (``session.retention``)."""
    # Deferred so importing the telemetry package never drags in the
    # meter/harness stack (which imports telemetry lazily in turn).
    from ..machine.answer import answer_string
    from ..machine.variants import make_stepper
    from ..compiler.frontend import prepare_input, prepare_program
    from ..space.meter import DEFAULT_STEP_LIMIT, run_metered
    from .bus import TraceBus
    from .metrics import MetricsRegistry

    machine = make_stepper(machine_name, stepper)
    bus = TraceBus(capacity=capacity, sample=sample, sink=sink, retain=retain)
    metrics = MetricsRegistry()
    blame = BlameProfiler(
        every=blame_every, series_capacity=series_capacity, incremental=True
    )
    retention = None
    if retention_every > 0:
        from .retention import RetentionProfiler

        retention = RetentionProfiler(
            every=retention_every, series_capacity=series_capacity
        )
    result = run_metered(
        machine,
        prepare_program(program),
        prepare_input(argument),
        linked=linked,
        fixed_precision=fixed_precision,
        gc_interval=gc_interval,
        step_limit=step_limit if step_limit is not None else DEFAULT_STEP_LIMIT,
        engine=engine,
        trace=bus,
        metrics=metrics,
        blame=blame,
        retention=retention,
    )
    # Blame instruments (documented in the metrics module docstring):
    # how much of the run the profiler saw, and how wide the peak is.
    metrics.counter("blame_samples", machine=machine_name).inc(blame.sampled)
    metrics.gauge("blame_peak_holders", machine=machine_name).set(
        len(blame.at_peak)
    )
    if retention is not None:
        metrics.counter("retention_samples", machine=machine_name).inc(
            retention.sampled
        )
    return TraceSession(
        result=result,
        bus=bus,
        metrics=metrics,
        blame=blame,
        machine=machine_name,
        linked=linked,
        extra={
            "answer": answer_string(result.final, 200),
            "engine": engine,
            "stepper": stepper,
        },
        retention=retention,
    )


__all__ = [
    "BlameProfiler",
    "BlameSeries",
    "TraceSession",
    "blame_by_class",
    "blame_configuration",
    "holder_class",
    "node_label",
    "trace_run",
]
