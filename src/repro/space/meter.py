"""The space meter: drives a machine and measures sup space(C_i).

Definition 21 (space-efficient computation): the GC rule is applied
whenever it is applicable, i.e. after every step on which garbage
exists.  Definition 23 takes the supremum of space(C_i) over the whole
computation — including the configurations *before* each collection,
so allocation spikes are charged exactly as the paper requires.

``gc_interval`` > 1 relaxes the forced-GC schedule (collect every k-th
step); this exists for the section 7 experiment showing that a real
collector running less often costs at most a small constant factor R
over collecting after every step.

:func:`run_metered` is the one metering driver.  Two engines apply the
GC rule and measure space for it:

- ``engine="delta"`` (the default) — the incremental engine.  It keeps
  a :class:`~repro.machine.gc.RefTracker` (per-location reference
  counts fed by the store's mutation hooks and by per-step
  configuration diffs) so each application of the GC rule is a
  decrement cascade over the references the step dropped, O(delta)
  instead of O(live heap).  Roots are counted per object: the engine
  counts the holders of each rooted environment and value, and moves
  the per-location counts only when an object enters or leaves the
  roots (:class:`DeltaMeter`).  Under linked accounting it also keeps a
  :class:`~repro.space.linked.BindingLedger` plus the cached
  ``Kont.linked_space`` / ``Store.linked_structural`` totals so each
  U_X measurement is O(1) instead of a configuration re-walk.  Cycle
  suspects are resolved locally (rooted-anchor check, bounded trial
  deletion — see the ``gc`` module docstring); the engine degrades to
  the canonical trace only per-application when a trial exceeds its
  budget, and permanently when an escape procedure enters the
  configuration (reference counts do not model the continuation
  chains it retains).  Either way the measured numbers are
  *identical* to the reference engine on every program.
- ``engine="reference"`` — the seed behaviour: canonical full-heap
  trace per application, direct configuration re-walk per measurement.
  Kept as the verification oracle; the agreement tests in
  ``tests/test_delta_meter.py`` hold the engines equal over the
  corpus, the separator families, and random programs.

The driver runs one of two schedules.  The *eager* schedule (every
``meter="exact"`` run) is Definition 21 made observable: measure every
configuration, apply the GC rule after every step.  The *lazy*
schedule (``meter="sampled"``) applies the GC rule lazily, reading an
O(1) *upper bound* on the exact pre-GC space each step and
reconstructing the exact measurement retroactively (pinned collection
against the previous configuration's roots) only when the bound passes
the running sup and at every allocation-burst watermark: a
configuration whose bound is at or below the sup cannot move it.  The
reported sup is exact: any step whose bound could not be resolved
exactly records the bound as a *suspect*, and a run whose suspects are
not all dominated by the final sup replays under the eager schedule.
A sampled run takes the lazy schedule only where its bound is sound
and nothing observes single steps — see :func:`run_metered` — and the
eager one otherwise, so a meter/engine/observer combination is never
an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple, Union

from ..machine.config import Configuration, Final, State
from ..machine.continuation import CallK, Kont, ReturnStack, chain
from ..machine.errors import StepLimitExceeded
from ..machine.gc import RefTracker, collect
from ..machine.machine import Machine
from ..machine.values import Closure, Escape, Pair, Primop, Value, Vector
from ..syntax.ast import Expr, ast_size
from .flat import configuration_space, value_space
from .linked import BindingLedger, configuration_space_linked, value_structural

DEFAULT_STEP_LIMIT = 5_000_000

METERS = ("exact", "sampled")
ENGINES = ("delta", "reference")

#: Default heartbeat cadence: ``checkpoint_hook`` fires every this
#: many transitions under either schedule.
DEFAULT_CHECKPOINT_EVERY = 64
#: The lazy schedule also measures exactly whenever this many locations
#: were allocated since the last collection (the burst watermark bounds
#: how far the lazily-collected store may outgrow the exact one).
BURST = 512


@dataclass
class MeterResult:
    """Everything measured while running one program on one machine."""

    machine: str
    sup_space: int
    program_size: int
    steps: int
    final: Final
    collected: int
    peak_step: int
    #: Engine/meter observability (``repro analyze --meter-audit``):
    #: collection and trial counters, fallback counts, lazy-schedule
    #: trip and burst counts, certification outcome.
    meter_stats: dict = field(default_factory=dict)

    @property
    def consumption(self) -> int:
        """S_X(P, D) (or U_X): |P| + sup space(C_i), Definition 23."""
        return self.program_size + self.sup_space


class QuotaExceeded(Exception):
    """A run's certified space lower bound crossed its byte budget.

    ``budget`` caps the Definition 23 consumption ``|P| + sup space``.
    The eager schedule kills at the first transition whose measurement
    crosses; the lazy schedule kills at the first trip whose
    retro-exact reconstruction crosses, which is the same step unless a
    suspect hides it (a crossing configuration's bound passes the sup,
    so it trips).  Every measurement that can trigger a kill is a lower
    bound of the run's true sup (exact trips are exact; write-step trip
    readings can only understate the exact pre-GC space), so a program
    whose true consumption fits the budget is never killed, and an
    uncertified sampled run that slips through is caught by its
    transparent exact replay.

    The exception carries a structured receipt: the blame census of
    the killing configuration (exact under both accountings, summing
    to ``sup_space``) and its top holder, so the kill message itself
    says *who* held the space.
    """

    def __init__(
        self,
        machine: str,
        budget: int,
        consumption: int,
        sup_space: int,
        step: int,
        linked: bool,
        fixed_precision: bool,
        blame: dict,
    ):
        self.machine = machine
        self.budget = budget
        self.consumption = consumption
        self.sup_space = sup_space
        self.step = step
        self.linked = linked
        self.fixed_precision = fixed_precision
        self.blame = dict(blame)
        self.holder = (
            max(self.blame, key=self.blame.get) if self.blame else None
        )
        accounting = "U" if linked else "S"
        super().__init__(
            f"space quota exceeded on {machine}: certified "
            f"{accounting}_{machine} >= {consumption} > budget {budget} "
            f"at step {step} (top holder: {self.holder})"
        )

    def receipt(self) -> dict:
        """The kill as plain data (serving/CLI receipt payload)."""
        return {
            "kind": "quota",
            "machine": self.machine,
            "budget": self.budget,
            "consumption": self.consumption,
            "sup_space": self.sup_space,
            "step": self.step,
            "accounting": "linked" if self.linked else "flat",
            "fixed_precision": self.fixed_precision,
            "holder": self.holder,
            "blame": self.blame,
        }


def _quota_kill(
    machine: Machine,
    budget: int,
    program_size: int,
    linked: bool,
    fixed_precision: bool,
    space: int,
    step: int,
    configuration,
) -> QuotaExceeded:
    """Build the structured kill for a measurement that crossed."""
    from ..telemetry.blame import blame_configuration

    try:
        blame = blame_configuration(configuration, linked, fixed_precision)
    except Exception:  # census is best-effort; the kill is not
        blame = {}
    return QuotaExceeded(
        machine.name,
        budget,
        program_size + space,
        space,
        step,
        linked,
        fixed_precision,
        blame,
    )


class ReferenceMeter:
    """The canonical engine: trace per collection, re-walk per measure."""

    __slots__ = ("uses_gc", "fixed_precision", "_measure", "on_gc", "prov")

    #: The canonical engine never *falls back* (it is the fallback);
    #: kept as a class constant so telemetry reads one attribute on
    #: either engine.
    canonical_fallbacks = 0
    fallback = False

    def __init__(self, machine: Machine, linked: bool, fixed_precision: bool):
        self.uses_gc = machine.uses_gc_rule
        self.fixed_precision = fixed_precision
        self._measure = (
            configuration_space_linked if linked else configuration_space
        )
        self.on_gc = None
        #: Optional allocation-site provenance sink (a retention
        #: profiler's :class:`~repro.telemetry.retention.AllocSites`);
        #: when set this engine installs itself as the store tracker
        #: purely to forward allocation events.
        self.prov = None

    def attach_bus(self, bus) -> None:
        """Publish this engine's reclamations to a trace bus."""
        self.on_gc = bus.emit_gc

    def work_stats(self) -> dict:
        """No incremental work to count: every measure is a re-walk."""
        return {}

    # -- store tracker interface (provenance forwarding only) ---------------

    def on_alloc(self, location, value) -> None:
        if self.prov is not None:
            self.prov.on_alloc(location, value)

    def on_write(self, location, old, new) -> None:
        pass

    def on_delete(self, location, value) -> None:
        if self.prov is not None:
            self.prov.on_delete(location, value)

    def prime(self, state: State) -> int:
        collected = collect(state, self.on_gc) if self.uses_gc else 0
        if self.prov is not None:
            state.store.tracker = self
        return collected

    def transition(self, configuration: Configuration) -> None:
        pass

    def measure(self, configuration: Configuration) -> int:
        return self._measure(configuration, self.fixed_precision)

    def collect(
        self, configuration: Configuration, pin_from: Optional[int] = None
    ) -> int:
        return collect(configuration, self.on_gc, pin_from)

    def detach(self, store) -> None:
        if store is not None and store.tracker is self:
            store.tracker = None


#: Value types whose objects hold locations directly: the only values
#: that root anything while the accumulator holds them or a frame parks
#: them.
_ROOTING_VALUES = frozenset((Closure, Escape, Pair, Vector))


def _root_holders(configuration: Configuration) -> Tuple[dict, list]:
    """Count, from scratch, the root holders of each rooted object —
    the table :class:`DeltaMeter` maintains: one per register or frame
    holding an environment, one per accumulator or parked slot holding
    a location-holding value.  Also returns each ``return:(A, rho,
    kappa)`` frame's deletion set A, which is rooted per frame."""
    held: dict = {}
    deletion_sets = []
    if isinstance(configuration, Final):
        values = [configuration.value]
    else:
        values = [configuration.control] if configuration.is_value else []
        if configuration.env is not None:
            held[configuration.env] = 1
        for frame in chain(configuration.kont):
            if frame.env is not None:
                held[frame.env] = held.get(frame.env, 0) + 1
            values.extend(frame.direct_values())
            if isinstance(frame, ReturnStack):
                deletion_sets.append(frame.frame)
    for value in values:
        if type(value) in _ROOTING_VALUES:
            held[value] = held.get(value, 0) + 1
    return held, deletion_sets


class DeltaMeter:
    """The incremental engine: refcount delta-GC + memoized U_X.

    Implements the store tracker interface (``on_alloc`` / ``on_write``
    / ``on_delete``) by fanning each event to the reference-count
    tracker and (under linked accounting) the binding ledger, and
    tracks the configuration's root components — register environment,
    continuation, accumulator — by diffing them across steps.

    Roots are counted per object, not per location.  ``_held`` maps
    each rooted object to its number of holders: an environment to the
    register and frames holding it, a location-holding value to the
    accumulator and frame slots holding it.  The tracker's per-location
    root counts and the ledger's binding pairs move only when an
    object's holder count crosses 0↔1, and a transition holds every new
    root before releasing any old one, so an object that only moves
    between holders (the register environment saved in a pushed frame,
    a value parked from the accumulator, the frames MTA compaction
    rebuilds) costs one table update, not one per location.  A
    ``ReturnStack``'s deletion set A is rooted per frame.
    """

    __slots__ = (
        "uses_gc",
        "linked",
        "fixed_precision",
        "tracker",
        "ledger",
        "blame_inc",
        "prov",
        "fallback",
        "_tracking",
        "_fallback_measure",
        "_env",
        "_kont",
        "_acc",
        "_held",
        "_store",
        "on_gc",
        "canonical_fallbacks",
        "_spent",
    )

    def __init__(self, machine: Machine, linked: bool, fixed_precision: bool):
        self.uses_gc = machine.uses_gc_rule
        self.linked = linked
        self.fixed_precision = fixed_precision
        self.tracker: Optional[RefTracker] = (
            RefTracker() if self.uses_gc else None
        )
        self.ledger: Optional[BindingLedger] = BindingLedger() if linked else None
        #: Optional incremental blame sink (attached by a profiler in
        #: incremental mode *before* :meth:`prime`); receives the same
        #: store/root deltas this engine already tracks.
        self.blame_inc = None
        #: Optional allocation-site provenance sink (a retention
        #: profiler's :class:`~repro.telemetry.retention.AllocSites`);
        #: unlike the other sinks it survives the escape fallback —
        #: allocation events stay well-defined even when reference
        #: counts stop modelling reachability.
        self.prov = None
        self.fallback = False
        #: Whether :meth:`transition` has a sink to feed (set by
        #: :meth:`prime`; cleared by the fallback).
        self._tracking = True
        self.on_gc = None
        #: GC-rule applications where a cycle trial exceeded its budget
        #: and the canonical trace ran (telemetry).
        self.canonical_fallbacks = 0
        #: The work counters frozen by the escape fallback.
        self._spent: dict = {}
        self._fallback_measure = (
            configuration_space_linked if linked else configuration_space
        )
        # Last-seen root components (None until primed).
        self._env = None
        self._kont: Optional[Kont] = None
        self._acc: Optional[Value] = None
        #: Holder count per rooted object (see the class docstring).
        self._held: dict = {}
        self._store = None

    # -- store tracker interface -------------------------------------------

    def on_alloc(self, location, value) -> None:
        if self.tracker is not None:
            self.tracker.on_alloc(location, value)
        if self.ledger is not None:
            self.ledger.on_alloc(location, value)
        if self.blame_inc is not None:
            self.blame_inc.store_add(value)
        if self.prov is not None:
            self.prov.on_alloc(location, value)

    def on_write(self, location, old, new) -> None:
        if self.tracker is not None:
            self.tracker.on_write(location, old, new)
        if self.ledger is not None:
            self.ledger.on_write(location, old, new)
        if self.blame_inc is not None:
            self.blame_inc.store_remove(old)
            self.blame_inc.store_add(new)

    def on_delete(self, location, value) -> None:
        if self.tracker is not None:
            self.tracker.on_delete(location, value)
        if self.ledger is not None:
            self.ledger.on_delete(location, value)
        if self.blame_inc is not None:
            self.blame_inc.store_remove(value)
        if self.prov is not None:
            self.prov.on_delete(location, value)

    # -- root bookkeeping, per object --------------------------------------

    def _hold_env(self, env) -> None:
        held = self._held
        count = held.get(env, 0)
        held[env] = count + 1
        if not count:
            if self.tracker is not None:
                self.tracker.add_roots(env.location_tuple())
            if self.ledger is not None:
                self.ledger.add_graph(env.graph())

    def _release_env(self, env) -> None:
        held = self._held
        count = held[env] - 1
        if count:
            held[env] = count
            return
        del held[env]
        if self.tracker is not None:
            self.tracker.drop_roots(env.location_tuple())
        if self.ledger is not None:
            self.ledger.remove_graph(env.graph())

    def _hold_value(self, value: Value) -> None:
        held = self._held
        count = held.get(value, 0)
        held[value] = count + 1
        if not count and self.tracker is not None:
            self.tracker.add_value_roots(value)

    def _release_value(self, value: Value) -> None:
        held = self._held
        count = held[value] - 1
        if count:
            held[value] = count
            return
        del held[value]
        if self.tracker is not None:
            self.tracker.drop_roots(value.locations())

    def _add_frame(self, frame: Kont) -> None:
        if frame.env is not None:
            self._hold_env(frame.env)
        for value in frame.direct_values():
            if type(value) in _ROOTING_VALUES:
                self._hold_value(value)
        if self.tracker is not None and type(frame) is ReturnStack:
            self.tracker.add_roots(frame.frame)
        if self.blame_inc is not None:
            self.blame_inc.frame_add(frame)

    def _remove_frame(self, frame: Kont) -> None:
        if frame.env is not None:
            self._release_env(frame.env)
        for value in frame.direct_values():
            if type(value) in _ROOTING_VALUES:
                self._release_value(value)
        if self.tracker is not None and type(frame) is ReturnStack:
            self.tracker.drop_roots(frame.frame)
        if self.blame_inc is not None:
            self.blame_inc.frame_remove(frame)

    def _add_frames(self, old: Optional[Kont], kont: Optional[Kont]) -> list:
        """Hold the frames of *kont* above its deepest common frame
        with *old* (immutable frames share their ancestry; cached
        depths make the walk O(divergence)), and return *old*'s frames
        above it, for the caller to release."""
        dropped = []
        old_depth = -1 if old is None else old.depth
        depth = -1 if kont is None else kont.depth
        while old_depth > depth:
            dropped.append(old)
            old = old.parent
            old_depth -= 1
        while depth > old_depth:
            self._add_frame(kont)
            kont = kont.parent
            depth -= 1
        while old is not kont:
            dropped.append(old)
            self._add_frame(kont)
            old = old.parent
            kont = kont.parent
        return dropped

    def _polluted(self) -> bool:
        if self.tracker is not None and self.tracker.saw_escape:
            return True
        if self.ledger is not None and self.ledger.saw_escape:
            return True
        return False

    def _enter_fallback(self) -> None:
        """Permanently degrade to the canonical engine (an escape
        procedure has entered the configuration; reference counts no
        longer model the continuation chains it retains).  The work
        counted so far stays reported (:meth:`work_stats`)."""
        self._spent = self.work_stats()
        self.fallback = True
        # Provenance survives the fallback: keep the store hooked so
        # allocation events still reach the sink (the on_* forwarders
        # null-check every other sink).
        if self._store is not None and self.prov is None:
            self._store.tracker = None
        self.tracker = None
        if self.ledger is not None:
            self.ledger.blame = None
            self.ledger = None
        if self.blame_inc is not None:
            self.blame_inc.active = False
            self.blame_inc = None
        self._tracking = False
        self._held = {}

    def work_stats(self) -> dict:
        """The tracker's and the ledger's work counters (``repro
        analyze --meter-audit``); after the escape fallback, those
        counted before it."""
        if self.fallback:
            return dict(self._spent)
        stats = {}
        if self.tracker is not None:
            stats.update(self.tracker.stats)
            stats["anchors"] = len(self.tracker.anchors)
        if self.ledger is not None:
            stats["ledger_updates"] = self.ledger.updates
        return stats

    # -- engine interface ----------------------------------------------------

    def attach_bus(self, bus) -> None:
        """Publish this engine's reclamations to a trace bus."""
        self.on_gc = bus.emit_gc
        if self.tracker is not None:
            self.tracker.on_gc = bus.emit_gc

    def prime(self, state: State) -> int:
        collected = collect(state, self.on_gc) if self.uses_gc else 0
        self._store = state.store
        if self.tracker is not None:
            self.tracker.prime(state.store)
        if self.ledger is not None:
            for _location, value in state.store.items():
                self.ledger.add_value(value)
        if self.blame_inc is not None:
            for _location, value in state.store.items():
                self.blame_inc.store_add(value)
        self._tracking = (
            self.tracker is not None
            or self.ledger is not None
            or self.blame_inc is not None
        )
        if self._tracking or self.prov is not None:
            state.store.tracker = self
        self.transition(state)
        return collected

    def transition(self, configuration: Configuration) -> None:
        if not self._tracking:
            return
        if configuration.is_final:
            acc, env, kont = configuration.value, None, None
        else:
            acc = configuration.control if configuration.is_value else None
            env, kont = configuration.env, configuration.kont
        old_acc, old_env, old_kont = self._acc, self._env, self._kont
        ledger, blame_inc = self.ledger, self.blame_inc
        # Hold every new root before releasing any old one, so an object
        # that only moves between holders never crosses zero.
        if acc is not old_acc and acc is not None:
            if type(acc) in _ROOTING_VALUES:
                self._hold_value(acc)
            if ledger is not None:
                ledger.add_value(acc)
            if blame_inc is not None:
                blame_inc.acc_add(acc)
        if env is not old_env and env is not None:
            self._hold_env(env)
        if kont is not old_kont:
            for frame in self._add_frames(old_kont, kont):
                self._remove_frame(frame)
            self._kont = kont
        if env is not old_env:
            if old_env is not None:
                self._release_env(old_env)
            self._env = env
            if blame_inc is not None and not self.linked:
                blame_inc.set_env_size(0 if env is None else len(env))
        if acc is not old_acc:
            if old_acc is not None:
                if type(old_acc) in _ROOTING_VALUES:
                    self._release_value(old_acc)
                if ledger is not None:
                    ledger.remove_value(old_acc)
                if blame_inc is not None:
                    blame_inc.acc_remove(old_acc)
            self._acc = acc
        if self._polluted():
            self._enter_fallback()

    def measure(self, configuration: Configuration) -> int:
        if not self.linked:
            return configuration_space(configuration, self.fixed_precision)
        if self.fallback:
            return self._fallback_measure(configuration, self.fixed_precision)
        total = configuration.store.linked_structural(self.fixed_precision)
        total += self.ledger.distinct
        if isinstance(configuration, Final):
            total += value_structural(configuration.value, self.fixed_precision)
        else:
            total += configuration.kont.linked_space
            if configuration.is_value:
                total += value_structural(
                    configuration.control, self.fixed_precision
                )
        return total

    def collect(
        self, configuration: Configuration, pin_from: Optional[int] = None
    ) -> int:
        if self.fallback:
            return collect(configuration, self.on_gc, pin_from)
        store = configuration.store
        tracker = self.tracker
        collected, need_canonical = tracker.reclaim(store, pin_from)
        if need_canonical:
            self.canonical_fallbacks += 1
            collected += collect(configuration, self.on_gc, pin_from)
            tracker.note_canonical(store)
        return collected

    def detach(self, store) -> None:
        if store is not None and store.tracker is self:
            store.tracker = None

    # -- integrity audit ----------------------------------------------------

    def audit(self, configuration: Configuration) -> None:
        """checkpoint_spaces-style integrity audit: recount the root
        holders, the reference counts and the binding ledger from
        scratch and compare (no-op once the engine has fallen back, or
        when it tracks nothing)."""
        if not self._tracking:
            return
        held, deletion_sets = _root_holders(configuration)
        if held != self._held:
            diff = {
                repr(obj): (held.get(obj), self._held.get(obj))
                for obj in set(held) | set(self._held)
                if held.get(obj) != self._held.get(obj)
            }
            raise AssertionError(f"root-holder drift (expected, actual): {diff}")
        if self.tracker is not None:
            rooted = [
                obj.locations() if isinstance(obj, Value)
                else obj.location_tuple()
                for obj in held
            ]
            rooted.extend(deletion_sets)
            if isinstance(configuration, Final):
                self.tracker.audit(
                    configuration.store, rooted, (configuration.value,)
                )
            else:
                values = (
                    (configuration.control,) if configuration.is_value else ()
                )
                self.tracker.audit(
                    configuration.store,
                    rooted,
                    values,
                    configuration.env,
                    configuration.kont,
                )
        if self.ledger is not None:
            root_envs = [obj for obj in held if not isinstance(obj, Value)]
            self.ledger.audit(configuration, root_envs)


def make_meter(
    machine: Machine,
    linked: bool = False,
    fixed_precision: bool = False,
    engine: str = "delta",
) -> Union[DeltaMeter, ReferenceMeter]:
    if engine == "delta":
        return DeltaMeter(machine, linked, fixed_precision)
    if engine == "reference":
        return ReferenceMeter(machine, linked, fixed_precision)
    raise ValueError(f"unknown metering engine: {engine!r} (want {ENGINES})")


def _engine_stats(meter, engine: str, extra: dict) -> dict:
    """Observability payload for ``MeterResult.meter_stats``."""
    stats = {
        "engine": engine,
        "canonical_fallbacks": meter.canonical_fallbacks,
        "escape_fallback": bool(meter.fallback),
    }
    stats.update(meter.work_stats())
    stats.update(extra)
    return stats


def _finalize_metrics(
    metrics, name, accounting, meter, sup_space, steps, restrict_token
):
    from ..machine.environment import pop_restrict_stats

    calls, hits = pop_restrict_stats(restrict_token)
    metrics.counter("restrict_calls", machine=name).inc(calls)
    metrics.counter("restrict_hits", machine=name).inc(hits)
    metrics.counter("engine_canonical_fallbacks", machine=name).inc(
        meter.canonical_fallbacks
    )
    if meter.fallback:
        metrics.counter("engine_escape_fallback", machine=name).inc()
    metrics.gauge("sup_space", machine=name, accounting=accounting).set(
        sup_space
    )
    metrics.counter("steps_total", machine=name).inc(steps)


def run_metered(
    machine: Machine,
    program: Expr,
    argument: Optional[Expr] = None,
    *,
    linked: bool = False,
    fixed_precision: bool = False,
    gc_interval: int = 1,
    step_limit: int = DEFAULT_STEP_LIMIT,
    engine: str = "delta",
    meter: str = "exact",
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    checkpoint_hook=None,
    audit_every: int = 0,
    budget: Optional[int] = None,
    trace=None,
    metrics=None,
    blame=None,
    retention=None,
) -> MeterResult:
    """Run *program* (applied to *argument* if given) to a final
    configuration, measuring the supremum of configuration space.

    ``linked`` selects Figure 8 (U_X) accounting instead of Figure 7
    (S_X); ``fixed_precision`` charges every number one word.
    ``gc_interval`` (a positive step count) relaxes the GC rule to
    every that many steps; 1 is Definition 21's schedule.

    ``engine`` selects the metering engine (see the module docstring);
    both report identical numbers.  ``audit_every`` > 0 re-derives the
    delta engine's reference counts and binding ledger from scratch
    every that many collections and raises on drift (testing only).

    ``meter`` selects the schedule.  ``"exact"`` is the eager
    Definition 21 schedule.  ``"sampled"`` takes the lazy schedule
    when its O(1) bound is sound and no observer needs every
    configuration — engine ``"delta"``, ``gc_interval == 1``, and no
    ``trace``, ``metrics``, ``blame``, ``retention`` or
    ``audit_every`` — and the eager one otherwise;
    ``meter_stats["mode"]`` names the schedule the run started on.
    Under the lazy schedule the machine trajectory is unchanged (the
    GC rule only removes unreachable locations, locations are never
    reused, and compaction runs on the same cadence), while space is
    handled lazily:

    - Every step reads an O(1) *bound* on the exact pre-GC space: the
      current register/continuation/accumulator terms (exact) plus the
      lazily-collected store's maintained total (a superset of the
      exact store, so the bound can only overestimate).
    - Under linked accounting the ledger counts the bindings of the
      roots as of the last root sync and of the lazy store, and two
      terms cover what it misses since the sync.  One word per
      location allocated covers every binding created (each binds a
      fresh location).  The ledger's ``lag`` covers old bindings: those
      a store write or deletion took out of the ledger (the closure
      that held them may live on in the accumulator or a register),
      and those of a closure the sync found parked in a push or call
      frame.  Figure 8 does not charge a parked closure's bindings, so
      the ledger did not count them; they count from the step the
      closure becomes the accumulator or ``apply``/``call/cc`` applies
      it from a call frame's arguments, the only ways a parked value's
      environment re-enters a charged component.  An escape's captured
      frames are outside the bound altogether: the step an escape
      enters the configuration (stored, or in the accumulator) trips,
      and the trip's root sync hands the run to the eager schedule.
    - A step *trips* for one of two reasons: its bound exceeds the
      running sup, or :data:`BURST` locations were allocated since the
      last collection (the watermark bounds how far the lazy store
      outgrows the exact one).  No other step can move the sup: its
      space is at most its bound, which is at most the sup.  A trip
      reconstructs the exact measurement *retroactively*: sync the
      engine's roots to the previous configuration and apply the GC
      rule with the current step's allocations pinned.  The store is
      then exactly the pre-GC store of the current step, and the same
      O(1) read is exact.
    - A step that wrote to the store cannot be reconstructed (the
      write may have dropped edges that kept garbage reachable in the
      exact schedule, so the retro-collection could delete cells the
      exact pre-GC store still charges).  Such a step records its
      bound as a *suspect* instead; reclamation soundness is
      unaffected (everything deleted is unreachable in both
      schedules).
    - When the engine falls back on an escape, the step that entered
      the fallback is finished on the eager schedule (its GC rule
      applied) and the rest of the run is eager.

    The run is *certified* when every suspect bound is dominated by the
    final sup — then the sup is provably exact: a missed peak at step k
    would have forced ``bound(k) >= space(k) > sup``, triggering either
    an exact trip (contradiction) or an undominated suspect.  An
    uncertified run replays with its own arguments but
    ``meter="exact"``, so its ``checkpoint_hook`` hears the replay too,
    counting from step 0 again.  Either way the returned sup equals the
    exact meter's.

    ``budget`` caps the consumption ``|P| + sup space``: the first
    certified measurement that crosses raises :class:`QuotaExceeded`
    carrying the blame census of the killing configuration.  The final
    configuration's pre-GC spike is charged too (the paper's sup ranges
    over every C_i), so a run can be killed on its last step.  Suspect
    bounds never kill — they are not certified — but an over-budget
    peak hiding in a suspect leaves the run uncertified, and the exact
    replay (which inherits ``budget``) kills it there.

    ``checkpoint_hook(steps, consumption)`` is called with the running
    certified lower bound of the consumption at the prime measurement
    and every ``checkpoint_every`` steps, never at the final
    configuration — the serving layer's progress heartbeat.  Both
    schedules call it at the same steps, and on a lazy run certified
    without suspects it reports the same numbers: that run's running
    sup is the eager schedule's running maximum, since every skipped
    configuration's space is at most the sup.

    Telemetry (all optional, all observation-only — none changes a
    transition or a measured number):

    - ``trace`` — a :class:`repro.telemetry.bus.TraceBus`; the loop
      publishes every transition, every space measurement, and (via
      the collectors) every reclamation, so an unsampled stream replays
      to exactly this function's reported steps / sup_space /
      collected.  Its ``space`` events are the run's space-over-time
      record, one per measured configuration.
    - ``metrics`` — a :class:`repro.telemetry.metrics.MetricsRegistry`;
      the loop maintains the step mix, kont-depth histogram, GC
      reclaim counters, environment-restrict hit rate, and engine
      fallback counts.
    - ``blame`` — a :class:`repro.telemetry.blame.BlameProfiler`;
      called at every measure point with the configuration and its
      measured space.
    - ``retention`` — a :class:`repro.telemetry.retention.
      RetentionProfiler`; observed at the same measure points as
      ``blame``, plus a ``pre_step`` call before each transition so
      allocation-site provenance can be stamped through the engine's
      store hooks.
    """
    # The call's own arguments: an uncertified sampled run replays them
    # with only the schedule changed.
    arguments = dict(locals())
    if meter not in METERS:
        raise ValueError(f"unknown meter mode: {meter!r} (want {METERS})")
    if checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be positive")
    if gc_interval <= 0:
        raise ValueError("gc_interval must be positive")
    lazy = (
        meter == "sampled"
        and engine == "delta"
        and gc_interval == 1
        and not audit_every
        and trace is None
        and metrics is None
        and blame is None
        and retention is None
    )
    # |P| counts the program only, not the input (Definition 23); the
    # budget leaves room for sup space <= budget - |P|.
    program_size = ast_size(program)
    room = math.inf if budget is None else budget - program_size
    kill = partial(
        _quota_kill, machine, budget, program_size, linked, fixed_precision
    )

    engine_meter = make_meter(machine, linked, fixed_precision, engine)
    bus = trace
    accounting = "linked" if linked else "flat"
    telemetry = bus is not None or metrics is not None or blame is not None
    if telemetry:
        from ..telemetry.bus import step_kind_label
    if bus is not None:
        engine_meter.attach_bus(bus)
        bus.meta.update(
            machine=machine.name,
            accounting=accounting,
            engine=engine,
            fixed_precision=fixed_precision,
            gc_interval=gc_interval,
        )
    if blame is not None:
        blame.bind(machine.name, linked, fixed_precision)
        attach = getattr(blame, "attach_engine", None)
        if attach is not None:
            attach(engine_meter)
    if retention is not None:
        retention.bind(machine.name, linked, fixed_precision)
        attach = getattr(retention, "attach_engine", None)
        if attach is not None:
            attach(engine_meter)
    restrict_token = None
    if metrics is not None:
        from ..machine.environment import (
            pop_restrict_stats,
            push_restrict_stats,
        )

        restrict_token = push_restrict_stats()
        step_counters: dict = {}
        depth_hist = metrics.histogram("kont_depth", machine=machine.name)
        gc_collections = metrics.counter("gc_collections", machine=machine.name)
        gc_locations = metrics.counter(
            "gc_reclaimed_locations", machine=machine.name
        )
        gc_words = metrics.counter("gc_reclaimed_words", machine=machine.name)

    state = machine.inject(program, argument)
    store = state.store
    try:
        if bus is not None:
            bus.emit_phase("prime", True)
        if metrics is not None:
            words_before = store.space_bignum
        collected = engine_meter.prime(state)
        if metrics is not None and collected:
            gc_collections.inc()
            gc_locations.inc(collected)
            gc_words.inc(words_before - store.space_bignum)
        if bus is not None:
            bus.emit_phase("prime", False)
        sup_space = engine_meter.measure(state)
        peak_step = 0
        if sup_space > room:
            raise kill(sup_space, 0, state)
        if bus is not None:
            bus.emit_space(accounting, sup_space, 0)
            bus.emit_phase("run", True)
        if blame is not None:
            blame.observe(state, sup_space, 0)
        if retention is not None:
            retention.observe(state, sup_space, 0)
        if checkpoint_hook is not None:
            checkpoint_hook(0, program_size + sup_space)

        steps = 0
        step = machine.step
        transition = engine_meter.transition
        measure = engine_meter.measure
        uses_gc = machine.uses_gc_rule
        fp = fixed_precision
        final = None
        mode = "sampled" if lazy else "exact"
        trips = bursts = 0
        suspects: List[Tuple[int, int]] = []
        compacts = type(machine).compact is not Machine.compact
        # No GC rule under flat accounting: the lazy store IS the exact
        # store and every flat term is current, so the bound is the
        # exact space — no reconstruction ever needed.
        exact_bound = not uses_gc and not linked
        if lazy:
            sync_loc = last_collect_loc = store._next_location
            # The roots as of the last sync: the engine moves them only
            # at trips (see the docstring's linked bound).
            held = engine_meter._held
            ledger = engine_meter.ledger
            # Set only under linked accounting, where a step an escape
            # enters ends the lazy schedule.
            escaped = False
        while lazy:
            prev = state
            mut_mark = store.mut_version
            alloc_mark = store._next_location
            configuration = step(state)
            steps += 1
            # The O(1) upper bound on the exact pre-GC space (see the
            # docstring), with the flat measure of a state inlined.
            if configuration.is_final:
                final = configuration
                bound = measure(final)
                if linked:
                    bound += store._next_location - sync_loc + ledger.lag
            elif not linked:
                bound = (
                    len(configuration.env._bindings)
                    + configuration.kont.flat_space
                    + (store._space_fixed if fp else store._space_bignum)
                )
                if configuration.is_value:
                    bound += value_space(configuration.control, fp)
            else:
                escaped = ledger.saw_escape
                if configuration.is_value:
                    value = configuration.control
                    if type(value) is Closure:
                        if value in held:
                            ledger.bring_back(value.env)
                    elif type(value) is Escape:
                        escaped = True
                elif type(prev.control) is Primop and type(prev.kont) is CallK:
                    # ``apply`` or ``call/cc`` applied a closure parked
                    # among the call frame's arguments.
                    for value in prev.kont.args:
                        if type(value) is Closure and value in held:
                            ledger.bring_back(value.env)
                bound = (
                    measure(configuration)
                    + store._next_location - sync_loc
                    + ledger.lag
                )
            if exact_bound:
                if bound > sup_space:
                    sup_space, peak_step = bound, steps
                    if bound > room:
                        raise kill(bound, steps, configuration)
            else:
                burst = (
                    store._next_location - last_collect_loc >= BURST
                    and final is None
                )
                if bound > sup_space or burst or escaped:
                    wrote = uses_gc and store.mut_version != mut_mark
                    if wrote and not (burst or escaped):
                        suspects.append((steps, bound))
                    else:
                        transition(prev)
                        if uses_gc:
                            collected += engine_meter.collect(
                                prev, pin_from=alloc_mark
                            )
                        transition(configuration)
                        space = measure(configuration)
                        if space > sup_space:
                            sup_space, peak_step = space, steps
                            if space > room:
                                raise kill(space, steps, configuration)
                        if wrote and bound > sup_space:
                            # The reading is only a lower bound of the
                            # exact pre-GC space on a write step.
                            suspects.append((steps, bound))
                        sync_loc = last_collect_loc = store._next_location
                        if linked:
                            ledger.resync()
                        trips += 1
                        bursts += burst
            if final is not None:
                break
            if checkpoint_hook is not None and steps % checkpoint_every == 0:
                checkpoint_hook(steps, program_size + sup_space)
            state = configuration
            if compacts:
                state = machine.compact(state)
            if engine_meter.fallback:
                # An escape entered the configuration on this step's
                # trip, which measured it exactly: apply the GC rule the
                # lazy schedule deferred and go on eagerly.
                if uses_gc:
                    collected += engine_meter.collect(state)
                lazy = False
            if steps >= step_limit:
                raise StepLimitExceeded(steps)

        # The eager schedule: Definition 21, every configuration
        # measured and collected.
        while final is None:
            if telemetry:
                if bus is not None:
                    label = bus.emit_step_state(state)
                elif metrics is not None:
                    label = step_kind_label(state)
                if metrics is not None:
                    counter = step_counters.get(label)
                    if counter is None:
                        counter = step_counters[label] = metrics.counter(
                            "steps", machine=machine.name, kind=label
                        )
                    counter.inc()
                    depth_hist.observe(state.kont.depth)
            if retention is not None:
                retention.pre_step(state, steps)
            configuration = step(state)
            steps += 1
            transition(configuration)
            # The final configuration is measured pre-GC too: its
            # allocation spike is charged.
            space = measure(configuration)
            if bus is not None:
                bus.emit_space(accounting, space, steps)
            if blame is not None:
                blame.observe(configuration, space, steps)
            if retention is not None:
                retention.observe(configuration, space, steps)
            if space > sup_space:
                sup_space, peak_step = space, steps
                if space > room:
                    raise kill(space, steps, configuration)
            if configuration.is_final:
                final = configuration
                break
            state = configuration
            if checkpoint_hook is not None and steps % checkpoint_every == 0:
                checkpoint_hook(steps, program_size + sup_space)
            if uses_gc and steps % gc_interval == 0:
                if compacts:
                    compacted = machine.compact(state)
                    if compacted is not state:
                        transition(compacted)
                        state = compacted
                if metrics is not None:
                    words_before = store.space_bignum
                freed = engine_meter.collect(state)
                collected += freed
                if metrics is not None and freed:
                    gc_collections.inc()
                    gc_locations.inc(freed)
                    gc_words.inc(words_before - store.space_bignum)
                if audit_every and steps % audit_every == 0:
                    engine_meter.audit(state)
            if steps >= step_limit:
                raise StepLimitExceeded(steps)

        # Either schedule ends on the GC rule applied to the final
        # configuration (the lazy one syncs its roots to it first).
        transition(final)
        if uses_gc:
            if metrics is not None:
                words_before = store.space_bignum
            freed = engine_meter.collect(final)
            collected += freed
            if metrics is not None and freed:
                gc_collections.inc()
                gc_locations.inc(freed)
                gc_words.inc(words_before - store.space_bignum)
            if audit_every:
                engine_meter.audit(final)
        if bus is not None:
            bus.emit_phase("run", False)
        if metrics is not None:
            _finalize_metrics(
                metrics,
                machine.name,
                accounting,
                engine_meter,
                sup_space,
                steps,
                restrict_token,
            )
            restrict_token = None
        stats = {"mode": mode}
        if mode == "sampled":
            certified = all(bound <= sup_space for _step, bound in suspects)
            stats.update(
                trips=trips,
                bursts=bursts,
                suspect_steps=len(suspects),
                certified=certified,
                exact_rerun=False,
            )
        stats = _engine_stats(engine_meter, engine, stats)
        if mode == "sampled" and not certified:
            engine_meter.detach(store)
            result = run_metered(**dict(arguments, meter="exact"))
            stats.update(certified=True, exact_rerun=True)
            result.meter_stats = stats
            return result
        return MeterResult(
            machine=machine.name,
            sup_space=sup_space,
            program_size=program_size,
            steps=steps,
            final=final,
            collected=collected,
            peak_step=peak_step,
            meter_stats=stats,
        )
    finally:
        engine_meter.detach(store)
        if restrict_token is not None:
            pop_restrict_stats(restrict_token)


def run_to_final(
    machine: Machine,
    program: Expr,
    argument: Optional[Expr] = None,
    *,
    gc_interval: int = 0,
    step_limit: int = DEFAULT_STEP_LIMIT,
    trace=None,
) -> Tuple[Final, int]:
    """Run without measuring space (fast path for answer equivalence).

    ``gc_interval=0`` disables collection and compaction (the store
    only grows).  A positive value is the clock of a relaxed schedule:
    every ``gc_interval`` transitions the machine compacts its
    continuation (Baker's MTA collapse; a no-op elsewhere), and the GC
    rule is applied there once the store has grown by max(L,
    ``gc_interval``) cells, where L is its size right after the last
    collection (or at injection).  So a short run traces nothing, a
    long one traces O(live) cells per O(live) cells allocated, and
    after every check the store holds fewer than 2L + ``gc_interval``
    cells: section 7's collector that runs less often than Definition
    21's, at a constant factor in space.  Collection changes no answer
    and no step count; :func:`run_metered` collects after every step.

    The machine is driven in batches through ``run_steps`` (the fused
    register loop of the live stepper; the per-step loop of the seed
    stepper), sized so the checks happen exactly every ``gc_interval``
    transitions.  With ``trace`` (a
    :class:`~repro.telemetry.bus.TraceBus`) the run is stepped one
    transition at a time instead, each published before it is taken:
    fusion is pure batching, so this changes no transition, it only
    makes each one observable.
    """
    state = machine.inject(program, argument)
    steps = 0
    run_steps = machine.run_steps
    if trace is not None:
        step = machine.step

        def run_steps(state, limit):
            taken = 0
            while taken < limit:
                trace.emit_step_state(state)
                state = step(state)
                taken += 1
                if state.is_final:
                    break
            return state, taken

    batch = gc_interval if gc_interval else step_limit
    floor = len(state.store)
    while True:
        configuration, taken = run_steps(state, min(batch, step_limit - steps))
        steps += taken
        if configuration.is_final:
            return configuration, steps
        state = configuration
        if gc_interval and steps % gc_interval == 0:
            state = machine.compact(state)
            grown = len(state.store) - floor
            if machine.uses_gc_rule and grown >= max(floor, gc_interval):
                collect(state)
                floor = len(state.store)
        if steps >= step_limit:
            raise StepLimitExceeded(steps)
