"""The garbage collection rule (Figure 5), canonical and incremental.

    (v, rho, kappa, sigma[b -> v', ...]) -> (v, rho, kappa, sigma)
        if {b, ...} is nonempty and b, ... do not occur within
        v, rho, kappa, sigma

Reachability is computed iteratively (no Python recursion) because CPS
programs build continuation chains and list structures far deeper than
the interpreter stack.

Two collectors implement the rule:

- :func:`collect` — the canonical full-heap tracing collection, O(live
  heap) per application, on an intermediate or a final configuration.
  This is the specification and the verification oracle.
- :class:`RefTracker` — the *delta* collector used by the incremental
  meter.  It maintains per-location incoming-reference counts (store
  edges via the :class:`~repro.machine.store.Store` mutation hooks,
  root edges via the meter's per-step configuration diffs).  Because
  Definition 21 applies the GC rule after every step, the only garbage
  creatable by one step is reachable from references that step dropped
  — exactly the locations whose count hit zero — so each application
  is a decrement cascade over the dropped-reference candidate set,
  O(garbage) instead of O(live heap).

  Reference counting alone cannot reclaim cycles.  Absent mutation the
  store's reference graph is acyclic (a fresh location is greater than
  every location its value mentions), so cycles require a ``write``
  that installs a *forward* edge (a reference to a location >= the
  written cell), and every cycle passes through such a written cell —
  an *anchor*.  The tracker maintains the anchor set (letrec-style
  ``define`` initializations are the ubiquitous source: the recursive
  closure's environment mentions its own cell) and counts root and
  heap references separately.  A decrement that leaves a location with
  heap references but no roots is a cycle *suspect*, and so is a cell
  without roots that a write gives a forward edge (when roots lag the
  machine, the references that held it may be gone before any drop is
  counted); at the next application of the GC rule the tracker
  resolves suspects cheaply:

  * if every live anchor still has a root reference, every cycle is
    rooted, hence live — the suspects are cleared in O(|anchors|);
  * otherwise each unrooted anchor's reachable subgraph gets a bounded
    trial deletion (the dying letrec cluster is typically a handful of
    cells), reclaiming garbage cycles exactly when they arise;
  * if every trial fits the budget and frees nothing, no garbage
    remains and the suspects are cleared: a source SCC of any remaining
    garbage has no references from outside itself, so it is a cycle
    through some unrooted anchor, and that anchor's trial would have
    found it unreferenced from outside the subgraph and freed it
    (pinned locations, below, count as referenced from outside);
  * only if a subgraph exceeds the budget does that one application
    fall back to the canonical trace — after which delta collection
    resumes with the counts still consistent.

  The unrooted-anchor subset is maintained incrementally (root-count
  transitions, the write barrier, and deletions update it), so a
  collection never rescans the full anchor set.

  Escape procedures (captured continuations) root entire continuation
  chains; rather than reference-count frames the tracker raises
  :attr:`RefTracker.saw_escape` and the meter falls back to the
  canonical collector for the rest of the run.

Both collectors accept ``pin_from``: locations at or above the pin are
never reclaimed (treated as externally referenced).  The sampled meter
uses this to reconstruct the exact pre-GC store of a step
retroactively — collect against the *previous* configuration's roots
while pinning everything the step just allocated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .config import Configuration
from .continuation import Kont, chain
from .environment import Environment
from .store import Store
from .values import Escape, Location, Value


def reachable_locations(
    store: Store,
    root_values: Iterable[Value] = (),
    root_env: Optional[Environment] = None,
    root_kont: Optional[Kont] = None,
) -> Set[Location]:
    """The set of locations reachable from the given roots via the
    active store."""
    live: Set[Location] = set()
    pending_locations: list = []
    pending_values: list = list(root_values)
    seen_konts: Set[int] = set()
    pending_konts: list = []

    if root_env is not None:
        pending_locations.extend(root_env.location_values())
    if root_kont is not None:
        pending_konts.append(root_kont)

    while pending_values or pending_locations or pending_konts:
        while pending_values:
            value = pending_values.pop()
            pending_locations.extend(value.locations())
            if isinstance(value, Escape):
                pending_konts.append(value.kont)
        while pending_locations:
            location = pending_locations.pop()
            if location in live:
                continue
            live.add(location)
            if location in store:
                pending_values.append(store.read(location))
        while pending_konts:
            kont = pending_konts.pop()
            if id(kont) in seen_konts:
                continue
            for frame in chain(kont):
                if id(frame) in seen_konts:
                    break
                seen_konts.add(id(frame))
                pending_locations.extend(frame.direct_locations())
                pending_values.extend(frame.direct_values())

    return live


def configuration_roots(configuration: Configuration):
    """Root values/env/kont of a configuration.

    A final configuration (v, sigma) is rooted by v alone.  When an
    intermediate configuration's control component is an expression it
    mentions no locations (Programs and Inputs contain none, and quoted
    constants are atomic), so only the environment and continuation
    are roots.
    """
    if configuration.is_final:
        return (configuration.value,), None, None
    values = (configuration.control,) if configuration.is_value else ()
    return values, configuration.env, configuration.kont


def collect(
    configuration: Configuration, on_gc=None, pin_from: Optional[int] = None
) -> int:
    """Apply the GC rule exhaustively: remove every unreachable
    location.  Returns the number of locations collected.  *on_gc* is
    an optional ``(label, count)`` callback told of a nonzero
    reclamation as ``("canonical", count)`` (a traced run's meter
    passes its bus's ``emit_gc``).  Locations >= *pin_from* are kept
    regardless of reachability (the sampled meter's retro-exact
    reconstruction pins the current step's allocations while
    collecting against the previous configuration's roots)."""
    store = configuration.store
    live = reachable_locations(store, *configuration_roots(configuration))
    if pin_from is None:
        garbage = [loc for loc in store.locations() if loc not in live]
    else:
        garbage = [
            loc
            for loc in store.locations()
            if loc < pin_from and loc not in live
        ]
    if garbage:
        store.delete_many(garbage)
        if on_gc is not None:
            on_gc("canonical", len(garbage))
    return len(garbage)


# ---------------------------------------------------------------------------
# The delta collector
# ---------------------------------------------------------------------------


class RefTracker:
    """Per-location incoming-reference counts for the delta collector.

    A location's count is the number of references to it from (a) the
    values held in store cells — the *heap* references, maintained by
    the store mutation hooks — and (b) the configuration's *rooted
    objects*, each counted once however many root holders share it:
    every distinct environment held by the register or a continuation
    frame, every distinct location-holding value held by the
    accumulator or parked in a frame, and each ``return:(A, rho,
    kappa)`` frame's deletion set A.  The meter keeps the per-object
    holder counts and calls :meth:`add_roots` / :meth:`drop_roots` only
    when an object enters or leaves the roots (deferred reference
    counting of roots, after Deutsch & Bobrow).  The total is zero
    exactly when the location is unreferenced, which for an acyclic
    store implies every garbage location is reached by the
    zero-candidate cascade.  Root counts are additionally kept in a
    separate map because cycle detection needs them: a location whose
    roots are gone but whose heap count survives is the only candidate
    for membership in (or retention by) a garbage cycle.
    """

    #: Node limit for one trial deletion; a subgraph larger than this
    #: falls back to the canonical trace for that application.
    TRIAL_BUDGET = 256

    __slots__ = (
        "rc",
        "root_rc",
        "zeros",
        "suspects",
        "anchors",
        "unrooted_anchors",
        "saw_escape",
        "on_gc",
        "stats",
    )

    def __init__(self):
        #: Total (heap + root) reference count per location.
        self.rc: Dict[Location, int] = {}
        #: Root-only reference count per location.
        self.root_rc: Dict[Location, int] = {}
        #: Locations whose count is (or transiently was) zero since the
        #: last collection — the candidate set for the next sweep.
        self.zeros: Set[Location] = set()
        #: Locations decremented to a nonzero count with no remaining
        #: root references while a cycle is possible, and unrooted cells
        #: given a forward edge: a garbage cycle's orphaning always
        #: flags a member or retained straggler here.
        self.suspects: Set[Location] = set()
        #: Cells whose *current* value holds a forward (or self) edge —
        #: every store cycle passes through one (alloc-time edges point
        #: strictly backward), so anchors index all possible cycles.
        self.anchors: Set[Location] = set()
        #: Anchors currently without root references, maintained
        #: incrementally (root-count transitions, write barrier,
        #: deletions) so reclaim never rescans the full anchor set.
        self.unrooted_anchors: Set[Location] = set()
        self.saw_escape = False
        #: Optional ``(label, count)`` callback told of each nonzero
        #: reclamation, labelled ``delta`` (sweeps) or ``trial`` (cycle
        #: trial deletions), partitioning the collected total.
        self.on_gc = None
        #: Work counters for ``repro analyze --meter-audit``.
        self.stats: Dict[str, int] = {
            "collections": 0,
            "trials": 0,
            "trial_nodes": 0,
            "root_updates": 0,
        }

    # -- reference-count primitives ----------------------------------------

    def inc_heap(self, location: Location) -> None:
        self.rc[location] = self.rc.get(location, 0) + 1

    def dec_heap(self, location: Location) -> None:
        count = self.rc[location] - 1
        self.rc[location] = count
        if count == 0:
            self.zeros.add(location)
        elif self.anchors and self.root_rc.get(location, 0) == 0:
            self.suspects.add(location)

    def add_roots(self, locations: Tuple[Location, ...]) -> None:
        """Count one root reference to each of *locations*: a rooted
        object (environment, value, deletion set) entered the roots."""
        self.stats["root_updates"] += len(locations)
        rc, root_rc = self.rc, self.root_rc
        for location in locations:
            rc[location] = rc.get(location, 0) + 1
            root_rc[location] = root_rc.get(location, 0) + 1
        if self.unrooted_anchors:
            self.unrooted_anchors.difference_update(locations)

    def drop_roots(self, locations: Tuple[Location, ...]) -> None:
        """Undo :meth:`add_roots` for an object leaving the roots."""
        self.stats["root_updates"] += len(locations)
        rc, root_rc = self.rc, self.root_rc
        for location in locations:
            count = rc[location] - 1
            rc[location] = count
            roots = root_rc[location] - 1
            if roots:
                root_rc[location] = roots
                continue
            del root_rc[location]
            if count == 0:
                self.zeros.add(location)
            elif self.anchors:
                self.suspects.add(location)
                if location in self.anchors:
                    self.unrooted_anchors.add(location)

    def add_value_roots(self, value: Value) -> None:
        """Count the references held directly by a value entering the
        roots."""
        if isinstance(value, Escape):
            self.saw_escape = True
        self.add_roots(value.locations())

    def _dec_value_heap(self, value: Value) -> None:
        for location in value.locations():
            self.dec_heap(location)

    # -- store mutation hooks ----------------------------------------------

    def on_alloc(self, location: Location, value: Value) -> None:
        self.rc[location] = 0
        self.zeros.add(location)
        if isinstance(value, Escape):
            self.saw_escape = True
        for reference in value.locations():
            self.inc_heap(reference)
        # A freshly built value can only mention older locations, so an
        # alloc never creates a forward edge (no anchor bookkeeping).

    def on_write(self, location: Location, old: Value, new: Value) -> None:
        self._dec_value_heap(old)
        if isinstance(new, Escape):
            self.saw_escape = True
        forward = False
        for reference in new.locations():
            self.inc_heap(reference)
            if reference >= location:
                forward = True
        if forward:
            # A forward (or self) edge: any cycle through this cell is
            # now possible.  The canonical case is letrec/define
            # initialization writing a recursive closure over its own
            # binding cell.
            self.anchors.add(location)
            if self.root_rc.get(location, 0) == 0:
                # Unrooted already, so no drop of a root will flag it:
                # when the roots lag the machine (the lazy schedule),
                # the environments that held the cell may have come
                # and gone between two syncs, and the cycle it closes
                # is garbage that only a trial finds.
                self.unrooted_anchors.add(location)
                self.suspects.add(location)
        else:
            self.anchors.discard(location)
            if self.unrooted_anchors:
                self.unrooted_anchors.discard(location)

    def on_delete(self, location: Location, value: Value) -> None:
        self._dec_value_heap(value)
        if self.anchors:
            self.anchors.discard(location)
            if self.unrooted_anchors:
                self.unrooted_anchors.discard(location)

    # -- priming and sweeping ----------------------------------------------

    def prime(self, store: Store) -> None:
        """Count the store-internal references from scratch (the root
        references are added by the meter as it registers the initial
        configuration's components)."""
        self.rc = {location: 0 for location in store.locations()}
        self.root_rc = {}
        self.zeros = set(self.rc)
        for location, value in store.items():
            if isinstance(value, Escape):
                self.saw_escape = True
            for reference in value.locations():
                self.inc_heap(reference)
                if reference >= location:
                    self.anchors.add(location)
        # No roots are registered yet, so every anchor is unrooted.
        self.unrooted_anchors = set(self.anchors)

    def sweep(self, store: Store, pin_from: Optional[int] = None) -> int:
        """Apply the GC rule via the decrement cascade: delete every
        candidate whose count is zero, transitively.  Returns the
        number of locations collected.  Candidates at or above
        *pin_from* are held out of the cascade (and restored to the
        candidate set afterwards, so a later unpinned sweep sees
        them)."""
        collected = 0
        zeros = self.zeros
        rc = self.rc
        held: List[Location] = []
        while zeros:
            batch: List[Location] = []
            for location in zeros:
                if rc.get(location, 0) == 0:
                    if location in store:
                        if pin_from is not None and location >= pin_from:
                            held.append(location)
                        else:
                            batch.append(location)
                    else:
                        rc.pop(location, None)
                        self.root_rc.pop(location, None)
            zeros.clear()
            if not batch:
                break
            # delete_many fires on_delete per location, decrementing the
            # deleted values' references and refilling ``zeros``.
            store.delete_many(batch)
            collected += len(batch)
        if held:
            zeros.update(held)
        return collected

    def _trial_reclaim(
        self,
        store: Store,
        anchor: Location,
        pin_from: Optional[int] = None,
    ) -> Optional[int]:
        """Bounded trial deletion of the subgraph reachable from an
        unrooted *anchor*.  Any garbage cycle through the anchor lies
        inside that subgraph; a member is externally referenced exactly
        when its total count exceeds its subgraph-internal in-degree.
        Members neither externally referenced nor reachable from one
        are garbage and are deleted.  Returns the number reclaimed, or
        None when the subgraph exceeds the budget.  Locations at or
        above *pin_from* count as externally referenced."""
        budget = self.TRIAL_BUDGET
        subgraph: Dict[Location, Tuple[Location, ...]] = {}
        stack: List[Location] = [anchor]
        while stack:
            location = stack.pop()
            if location in subgraph or location not in store:
                continue
            if len(subgraph) >= budget:
                return None
            references = store.read(location).locations()
            subgraph[location] = references
            stack.extend(references)
        self.stats["trials"] += 1
        self.stats["trial_nodes"] += len(subgraph)
        internal: Dict[Location, int] = dict.fromkeys(subgraph, 0)
        for references in subgraph.values():
            for reference in references:
                if reference in internal:
                    internal[reference] += 1
        rc = self.rc
        if pin_from is None:
            live = [
                loc for loc in subgraph if rc.get(loc, 0) > internal[loc]
            ]
        else:
            live = [
                loc
                for loc in subgraph
                if loc >= pin_from or rc.get(loc, 0) > internal[loc]
            ]
        alive: Set[Location] = set(live)
        while live:
            for reference in subgraph[live.pop()]:
                if reference in internal and reference not in alive:
                    alive.add(reference)
                    live.append(reference)
        garbage = [loc for loc in subgraph if loc not in alive]
        if garbage:
            # Every reference into the garbage comes from the garbage
            # itself, so the deletion hooks drive those counts to zero
            # and the next sweep purges the entries.
            store.delete_many(garbage)
        return len(garbage)

    def reclaim(
        self, store: Store, pin_from: Optional[int] = None
    ) -> Tuple[int, bool]:
        """One application of the GC rule: sweep the zero candidates,
        then resolve cycle suspects.  Returns (locations collected,
        canonical trace still required).

        ``on_gc`` hears exactly the *counted* reclamations — a trial
        batch abandoned to the canonical path is not reported, because
        its locations are not added to the returned count — so the
        values of a stream's ``gc`` events sum to the meter's
        ``collected`` total."""
        on_gc = self.on_gc
        self.stats["collections"] += 1
        collected = self.sweep(store, pin_from)
        if on_gc is not None and collected:
            on_gc("delta", collected)
        while self.suspects:
            # In location order: set order would make the trials'
            # work counters follow the interpreter's hash seed.
            unrooted = sorted(
                anchor
                for anchor in self.unrooted_anchors
                if anchor in store
            )
            if not unrooted:
                # Every cycle passes through an anchor and every live
                # anchor is rooted, so every cycle is live: the
                # suspects are refcount-exact leftovers.
                self.suspects.clear()
                break
            progress = 0
            for anchor in unrooted:
                freed = self._trial_reclaim(store, anchor, pin_from)
                if freed is None:
                    return collected, True
                progress += freed
            if not progress:
                # Every trial fit the budget and freed nothing, so no
                # garbage remains (the source-SCC argument in the
                # module docstring): the canonical trace would reclaim
                # nothing, and is skipped.
                self.suspects.clear()
                break
            swept = self.sweep(store, pin_from)
            if on_gc is not None:
                on_gc("trial", progress)
                if swept:
                    on_gc("delta", swept)
            collected += progress + swept
        return collected, False

    def note_canonical(self, store: Store) -> None:
        """Reconcile after a canonical collection ran: every remaining
        candidate is either live (count > 0) or already deleted."""
        for location in self.zeros:
            if self.rc.get(location, 0) == 0 and location not in store:
                self.rc.pop(location, None)
                self.root_rc.pop(location, None)
        self.zeros.clear()
        self.suspects.clear()

    # -- integrity audit ----------------------------------------------------

    def expected_counts(
        self,
        store: Store,
        rooted: Iterable[Tuple[Location, ...]],
    ) -> Tuple[Dict[Location, int], Dict[Location, int]]:
        """Recompute (total, root-only) counts from scratch
        (checkpoint_spaces-style audit): one heap reference per
        location mentioned by each store cell, and one root reference
        per location of each entry of *rooted* — the locations of each
        distinct rooted object, and each deletion set, listed once.
        Only valid while no escape has been seen."""
        counts: Dict[Location, int] = {location: 0 for location in store.locations()}
        roots: Dict[Location, int] = {}
        for _location, value in store.items():
            for reference in value.locations():
                counts[reference] = counts.get(reference, 0) + 1
        for locations in rooted:
            for location in locations:
                counts[location] = counts.get(location, 0) + 1
                roots[location] = roots.get(location, 0) + 1
        return counts, roots

    def audit(
        self,
        store: Store,
        rooted: Iterable[Tuple[Location, ...]],
        root_values: Iterable[Value] = (),
        root_env: Optional[Environment] = None,
        root_kont: Optional[Kont] = None,
    ) -> None:
        """Raise AssertionError when the maintained counts, root
        counts, or anchors disagree with a from-scratch recount over
        *rooted* (see :meth:`expected_counts`), or when the store still
        holds a location unreachable from the given roots (i.e. the
        last reclaim failed to apply the GC rule exhaustively)."""
        expected, expected_roots = self.expected_counts(store, rooted)
        actual = {loc: n for loc, n in self.rc.items() if n or loc in store}
        expected = {loc: n for loc, n in expected.items() if n or loc in store}
        if actual != expected:
            diff = {
                loc: (expected.get(loc), actual.get(loc))
                for loc in set(expected) | set(actual)
                if expected.get(loc) != actual.get(loc)
            }
            raise AssertionError(f"refcount drift (expected, actual): {diff}")
        actual_roots = {loc: n for loc, n in self.root_rc.items() if n}
        if actual_roots != expected_roots:
            diff = {
                loc: (expected_roots.get(loc), actual_roots.get(loc))
                for loc in set(expected_roots) | set(actual_roots)
                if expected_roots.get(loc) != actual_roots.get(loc)
            }
            raise AssertionError(f"root-count drift (expected, actual): {diff}")
        expected_anchors = {
            location
            for location, value in store.items()
            if any(ref >= location for ref in value.locations())
        }
        live_anchors = {loc for loc in self.anchors if loc in store}
        if live_anchors != expected_anchors:
            raise AssertionError(
                f"anchor drift: expected={expected_anchors} "
                f"actual={live_anchors}"
            )
        expected_unrooted = {
            loc
            for loc in expected_anchors
            if expected_roots.get(loc, 0) == 0
        }
        live_unrooted = {
            loc for loc in self.unrooted_anchors if loc in store
        }
        if live_unrooted != expected_unrooted:
            raise AssertionError(
                f"unrooted-anchor drift: expected={expected_unrooted} "
                f"actual={live_unrooted}"
            )
        live = reachable_locations(store, root_values, root_env, root_kont)
        garbage = [loc for loc in store.locations() if loc not in live]
        if garbage:
            raise AssertionError(f"unreclaimed garbage after sweep: {garbage}")
