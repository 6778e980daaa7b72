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

- :func:`linked_charges` — the specification: one walk of the whole
  configuration, O(configuration), charging each component its
  structural words and the bindings it is first to hold.
  :func:`configuration_space_linked` is its total and the verification
  oracle; the blame and retention layers group the same charges by
  holder.
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

import itertools
from operator import itemgetter
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from ..machine.config import Final, State
from ..machine.continuation import Kont
from ..machine.values import Closure, Escape, Num, Pair, Str, Value, Vector
from .flat import ACCUMULATOR, REGISTER, Charge, number_space


def value_structural(value: Value, fixed_precision: bool = False) -> int:
    """Structural words of a value under linked accounting: Figure 7's
    space(v), except that a closure or an escape costs one word (its
    bindings and captured frames are charged by :func:`linked_charges`)."""
    if isinstance(value, Num):
        return number_space(value.value, fixed_precision)
    if isinstance(value, Pair):
        return 3
    if isinstance(value, Vector):
        return 1 + value.length
    if isinstance(value, Str):
        return 1 + len(value.value)
    return 1


def linked_charges(
    configuration: Union[State, Final],
    fixed_precision: bool = False,
    bindings: Optional[Set[Tuple[str, int]]] = None,
) -> Iterator[Charge]:
    """Figure 8 as a walk, in :func:`~repro.space.flat.flat_charges`'
    order: the register environment, the continuation frames, the
    accumulator, the store cells in store order.

    Each charge's ``words`` are the component's structural words
    (``Kont._linked_own``, :func:`value_structural`, plus one per store
    cell); its ``fresh`` counts the (identifier, location) bindings of
    the component's environment that no earlier component held, so
    each distinct binding is charged once, to its first holder.  A
    frame is charged once however many chains share it: an escape's
    captured frames are charged to the escape's holder, up to the
    first frame already charged.  Values parked in push/call frames
    cost the frame's m/n words only — the same convention Figure 7
    uses, which ignores parked closures' environments; charging their
    bindings would let U_X exceed S_X, contradicting section 13.

    *bindings*, when given, collects the distinct bindings."""
    if bindings is None:
        bindings = set()
    seen: Set[Kont] = set()

    def fresh(env) -> int:
        before = len(bindings)
        bindings.update(env.graph())
        return len(bindings) - before

    def frames(frame, owner):
        while frame is not None and frame not in seen:
            seen.add(frame)
            env = frame.env
            yield (
                frame if owner is None else owner,
                frame,
                frame._linked_own(),
                0 if env is None else fresh(env),
            )
            frame = frame.parent

    if configuration.is_final:
        acc = configuration.value
    else:
        env = configuration.env
        yield REGISTER, env, 0, fresh(env)
        yield from frames(configuration.kont, None)
        acc = configuration.control if configuration.is_value else None
    values = configuration.store.items()
    if acc is not None:
        values = itertools.chain(((ACCUMULATOR, acc),), values)
    for holder, value in values:
        words = value_structural(value, fixed_precision)
        if holder is not ACCUMULATOR:
            words += 1
        cls = value.__class__
        if cls is Closure:
            yield holder, value, words, fresh(value.env)
        else:
            yield holder, value, words, 0
            if cls is Escape:
                yield from frames(value.kont, holder)


def configuration_space_linked(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> int:
    """Linked space(C) for either configuration shape: the total of
    :func:`linked_charges`, structural words plus distinct bindings."""
    bindings: Set[Tuple[str, int]] = set()
    walk = linked_charges(configuration, fixed_precision, bindings)
    return sum(map(itemgetter(2), walk)) + len(bindings)


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
        oracle walk of the same configuration, or when a pair's count
        disagrees with a from-scratch recount over *root_envs* (the
        distinct environments the register and frames hold), the
        accumulator's closure and the stored closures."""
        bindings: Set[Tuple[str, int]] = set()
        graphs = [env.graph() for env in root_envs]
        for _holder, part, _words, _fresh in linked_charges(
            configuration, bindings=bindings
        ):
            if isinstance(part, Closure):
                graphs.append(part.env.graph())
        if len(bindings) != self.distinct:
            missing = bindings - set(self._counts)
            extra = set(self._counts) - bindings
            raise AssertionError(
                f"binding ledger drift: oracle={len(bindings)} "
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
