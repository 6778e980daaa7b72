"""Figure 8: the space consumed by a configuration, linked environments.

Section 13: "A definition of space consumption that corresponds to
linked environments can be obtained by counting each binding (of an
identifier I to a location a) only once per configuration, regardless
of how many environments contain that binding."

Concretely, a configuration's space is

- the number of *distinct* (identifier, location) pairs across the
  register environment, the environments of every continuation frame,
  and the environments of every closure occurring in the configuration
  (in the accumulator, parked in push/call frames, stored in sigma, or
  captured by escape procedures), plus
- the structural words: 1 per continuation frame (+ m + n for push,
  + m for call), 1 + space(v) per store cell with closures costing 1
  (their bindings are counted globally), and the accumulator value.

This realizes the U_X functions of section 13; Theorem 26's benchmark
(U_tail linear vs S_sfs quadratic on the nested-let program family)
depends on exactly this sharing.

Two implementations compute it:

- :class:`_LinkedTally` + :func:`configuration_space_linked` — the
  specification: re-walk the whole configuration, O(configuration) per
  call.  This is the verification oracle.
- :class:`BindingLedger` — the incremental form used by the meter.  A
  multiset counter over (identifier, location) pairs tracks how many
  configuration components (register environment, continuation-frame
  environments, stored closures, the accumulator's closure) currently
  contribute each binding; ``distinct`` — the U_X binding term — is
  the number of pairs with a positive count, maintained in O(delta)
  per step.  The structural words are cached elsewhere: per
  continuation frame (``Kont.linked_space``), per store cell
  (``Store.linked_structural``), leaving :func:`value_structural` for
  the accumulator.  The ledger does not model escape procedures
  (which root whole continuation chains); it flags them and the meter
  falls back to the oracle.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

from ..machine.config import Final, State
from ..machine.continuation import CallK, Kont, Push, chain
from ..machine.store import Store
from ..machine.values import Closure, Escape, Num, Pair, Str, Value, Vector
from .flat import number_space


class _LinkedTally:
    """Accumulates structural words and the global binding set."""

    def __init__(self, fixed_precision: bool):
        self.fixed_precision = fixed_precision
        self.structural = 0
        self.bindings: Set[Tuple[str, int]] = set()
        self._seen_konts: Set[int] = set()

    def add_env(self, env) -> None:
        if env is not None:
            self.bindings |= env.graph()

    def add_value(self, value: Value) -> None:
        """Structural words of a value under linked accounting."""
        if isinstance(value, Closure):
            self.structural += 1
            self.add_env(value.env)
        elif isinstance(value, Escape):
            self.structural += 1
            self.add_kont(value.kont)
        elif isinstance(value, Num):
            self.structural += number_space(value.value, self.fixed_precision)
        elif isinstance(value, Vector):
            self.structural += 1 + value.length
        elif isinstance(value, Pair):
            self.structural += 3
        elif isinstance(value, Str):
            self.structural += 1 + len(value.value)
        else:
            self.structural += 1

    def add_kont(self, kont: Kont) -> None:
        for frame in chain(kont):
            if id(frame) in self._seen_konts:
                return
            self._seen_konts.add(id(frame))
            if isinstance(frame, Push):
                self.structural += 1 + len(frame.pending) + len(frame.done)
                for value in frame.done:
                    self._note_parked(value)
            elif isinstance(frame, CallK):
                self.structural += 1 + len(frame.args)
                for value in frame.args:
                    self._note_parked(value)
            else:
                self.structural += 1
            self.add_env(frame.env)

    def _note_parked(self, value: Value) -> None:
        """Values parked in push/call frames cost exactly the frame's
        m/n words — the same convention Figure 7 uses for flat
        accounting, which ignores parked closures' environment tables.
        Charging their bindings here would make U_X exceed S_X on
        configurations whose parked closures hold otherwise-uncounted
        bindings, contradicting section 13's U_X <= S_X."""

    def add_store(self, store: Store) -> None:
        for _location, value in store.items():
            self.structural += 1
            self.add_value(value)

    def total(self) -> int:
        return self.structural + len(self.bindings)


def state_space_linked(state: State, fixed_precision: bool = False) -> int:
    """Figure 8 space of an intermediate configuration."""
    tally = _LinkedTally(fixed_precision)
    tally.add_env(state.env)
    tally.add_kont(state.kont)
    if state.is_value:
        tally.add_value(state.control)
    tally.add_store(state.store)
    return tally.total()


def final_space_linked(final: Final, fixed_precision: bool = False) -> int:
    """Figure 8 space of a final configuration (v, sigma)."""
    tally = _LinkedTally(fixed_precision)
    tally.add_value(final.value)
    tally.add_store(final.store)
    return tally.total()


def configuration_space_linked(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> int:
    """Linked space(C) for either configuration shape."""
    if isinstance(configuration, Final):
        return final_space_linked(configuration, fixed_precision)
    return state_space_linked(configuration, fixed_precision)


# ---------------------------------------------------------------------------
# Incremental (memoized) linked accounting
# ---------------------------------------------------------------------------


def value_structural(value: Value, fixed_precision: bool = False) -> int:
    """Structural words of a value under linked accounting — exactly
    what :meth:`_LinkedTally.add_value` charges, bindings excluded.
    Escapes are not supported here (the meter falls back before any
    escape is measured incrementally)."""
    if isinstance(value, (Closure, Escape)):
        return 1
    if isinstance(value, Num):
        return number_space(value.value, fixed_precision)
    if isinstance(value, Vector):
        return 1 + value.length
    if isinstance(value, Pair):
        return 3
    if isinstance(value, Str):
        return 1 + len(value.value)
    return 1


class BindingLedger:
    """The global (identifier, location) binding multiset.

    Each configuration component that contributes an environment graph
    registers it with :meth:`add_graph` when it enters the
    configuration and :meth:`remove_graph` when it leaves; ``distinct``
    is the section 13 binding term, read in O(1).

    ``blame`` is an optional sink (the incremental blame profiler —
    :class:`repro.telemetry.blame.IncrementalBlame`) notified on every
    0↔1 transition of a pair's count, i.e. exactly when the pair
    enters or leaves the *distinct* set — the per-identifier
    ``binding:<name>`` blame term is the per-name slice of that set.

    A pair's count is the number of contributing *objects*: each
    distinct environment rooted by the register or a continuation frame
    (the meter registers a shared environment once, however many
    holders share it), the accumulator's closure, and each stored
    closure.  ``updates`` counts pair-count changes (work telemetry)."""

    __slots__ = ("_counts", "distinct", "saw_escape", "blame", "updates")

    def __init__(self):
        self._counts: Dict[Tuple[str, int], int] = {}
        self.distinct = 0
        self.saw_escape = False
        self.blame = None
        self.updates = 0

    def add_graph(self, graph) -> None:
        self.updates += len(graph)
        counts = self._counts
        for binding in graph:
            count = counts.get(binding, 0)
            counts[binding] = count + 1
            if count == 0:
                self.distinct += 1
                if self.blame is not None:
                    self.blame.bind_delta(binding[0], 1)

    def remove_graph(self, graph) -> None:
        self.updates += len(graph)
        counts = self._counts
        for binding in graph:
            count = counts[binding] - 1
            if count:
                counts[binding] = count
            else:
                del counts[binding]
                self.distinct -= 1
                if self.blame is not None:
                    self.blame.bind_delta(binding[0], -1)

    def add_value(self, value: Value) -> None:
        """Register a value entering the store or the accumulator: only
        closures contribute bindings (their captured environment)."""
        if isinstance(value, Closure):
            self.add_graph(value.env.graph())
        elif isinstance(value, Escape):
            self.saw_escape = True

    def remove_value(self, value: Value) -> None:
        if isinstance(value, Closure):
            self.remove_graph(value.env.graph())

    # -- store mutation hooks (same interface as RefTracker) ---------------

    def on_alloc(self, location, value: Value) -> None:
        self.add_value(value)

    def on_write(self, location, old: Value, new: Value) -> None:
        self.remove_value(old)
        self.add_value(new)

    def on_delete(self, location, value: Value) -> None:
        self.remove_value(value)

    # -- integrity audit ----------------------------------------------------

    def audit(self, configuration: Union[State, Final], root_envs) -> None:
        """Raise AssertionError when ``distinct`` disagrees with the
        oracle tally of the same configuration, or when a pair's count
        disagrees with a from-scratch recount over *root_envs* (the
        distinct environments the register and frames hold), the
        accumulator's closure and the stored closures."""
        tally = _LinkedTally(fixed_precision=False)
        graphs = [env.graph() for env in root_envs]
        if isinstance(configuration, Final):
            tally.add_value(configuration.value)
            if isinstance(configuration.value, Closure):
                graphs.append(configuration.value.env.graph())
        else:
            tally.add_env(configuration.env)
            for frame in chain(configuration.kont):
                tally.add_env(frame.env)
            if configuration.is_value:
                tally.add_value(configuration.control)
                if isinstance(configuration.control, Closure):
                    graphs.append(configuration.control.env.graph())
        for _location, value in configuration.store.items():
            if isinstance(value, Closure):
                tally.add_env(value.env)
                graphs.append(value.env.graph())
        if len(tally.bindings) != self.distinct:
            missing = tally.bindings - set(self._counts)
            extra = set(self._counts) - tally.bindings
            raise AssertionError(
                f"binding ledger drift: oracle={len(tally.bindings)} "
                f"ledger={self.distinct} missing={missing} extra={extra}"
            )
        expected: Dict[Tuple[str, int], int] = {}
        for graph in graphs:
            for binding in graph:
                expected[binding] = expected.get(binding, 0) + 1
        if expected != self._counts:
            diff = {
                binding: (expected.get(binding), self._counts.get(binding))
                for binding in set(expected) | set(self._counts)
                if expected.get(binding) != self._counts.get(binding)
            }
            raise AssertionError(
                f"binding-count drift (expected, actual): {diff}"
            )
