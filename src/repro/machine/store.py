"""The store: a finite function from locations to values.

Locations are allocated from a countably infinite supply (section 11
requires one).  The store does no space arithmetic.  A :class:`Store`
may carry a *tracker* — the metering engine (``repro.space.meter``) —
which is told of every allocation, write and deletion, and keeps from
those events whatever its run reads: the store's words under the run's
accounting, per-location reference counts, the linked binding ledger.

Two store invariants double as metering infrastructure: locations are
never reused (the supply counter only grows), so a location's number
orders its allocation in time — everything a step allocated lies above
the allocation cursor it started from, which is how the sampled meter
pins a step's allocations; and ``mut_version`` increments on every
write to an existing location, which is the write barrier the sampled
meter reads to tell retro-reconstructible steps from suspect ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from .values import Location, Value


class StoreError(KeyError):
    """Raised on reads/writes of unmapped locations (a stuck state)."""


class Store:
    """A mutable store with a mutation hook and a write barrier."""

    __slots__ = (
        "_cells",
        "_next_location",
        "mut_version",
        "tracker",
        "_rc",
        "_escaped",
    )

    def __init__(self, track_refs: bool = False):
        self._cells: Dict[Location, Value] = {}
        self._next_location: Location = 0
        #: Bumped only by :meth:`write` and :meth:`delete_many` (never
        #: by allocation, which cannot change an existing cell).  An
        #: unchanged ``mut_version`` therefore proves every mapped cell
        #: still holds the value it held before — the sampled meter's
        #: test for a store-mutating step.
        self.mut_version: int = 0
        #: The metering engine told of every mutation (``on_alloc`` /
        #: ``on_write`` / ``on_delete``), or None.
        self.tracker = None
        #: Store-edge inbound reference counts (location -> number of
        #: store cells whose value mentions it), maintained only when
        #: requested (the I_stack frame-pop fast path); None otherwise.
        #: Root edges (environments, continuations) are *not* counted —
        #: the consumer must rule them out by other means (the
        #: monotonic-location argument in ``Machine._delete_frame``).
        self._rc: Optional[Dict[Location, int]] = (
            {} if track_refs else None
        )
        #: Sticky flag: an escape procedure was created against this
        #: store.  Escapes root their captured continuation invisibly
        #: to store-edge counts (``Escape.locations()`` is the tag
        #: only), so any consumer of ``_rc`` must fall back to full
        #: reachability once this is set.
        self._escaped: bool = False

    def note_escape(self) -> None:
        """Record that an escape procedure now exists (see ``_escaped``)."""
        self._escaped = True

    # -- allocation and access ------------------------------------------------

    def alloc(self, value: Value) -> Location:
        """Allocate a fresh location holding *value*."""
        location = self._next_location
        self._next_location = location + 1
        self._cells[location] = value
        rc = self._rc
        if rc is not None:
            for ref in value.locations():
                rc[ref] = rc.get(ref, 0) + 1
        if self.tracker is not None:
            self.tracker.on_alloc(location, value)
        return location

    def alloc_many(self, values: Iterable[Value]) -> Tuple[Location, ...]:
        """Allocate fresh locations for several values at once (the
        same mutations as repeated :meth:`alloc`, without the per-value
        method call)."""
        cells = self._cells
        tracker = self.tracker
        rc = self._rc
        location = self._next_location
        out = []
        for value in values:
            self._next_location = location + 1
            cells[location] = value
            if rc is not None:
                for ref in value.locations():
                    rc[ref] = rc.get(ref, 0) + 1
            if tracker is not None:
                tracker.on_alloc(location, value)
            out.append(location)
            location += 1
        return tuple(out)

    def read(self, location: Location) -> Value:
        try:
            return self._cells[location]
        except KeyError:
            raise StoreError(f"read of unmapped location {location}") from None

    def get(self, location: Location) -> Optional[Value]:
        """The value at *location*, or None when unmapped (the hot-path
        read: one dict probe, caller decides stuck)."""
        return self._cells.get(location)

    def write(self, location: Location, value: Value) -> None:
        """sigma[a -> v] for an already-mapped location."""
        old = self._cells.get(location)
        if old is None:
            raise StoreError(f"write to unmapped location {location}")
        self._cells[location] = value
        self.mut_version += 1
        rc = self._rc
        if rc is not None:
            # get-based: an old ref may point at an already-deleted
            # location whose count was dropped with it.
            for ref in old.locations():
                n = rc.get(ref)
                if n is not None:
                    rc[ref] = n - 1
            for ref in value.locations():
                rc[ref] = rc.get(ref, 0) + 1
        if self.tracker is not None:
            self.tracker.on_write(location, old, value)

    def delete_many(self, locations: Iterable[Location]) -> None:
        """Remove locations from the active store (GC / stack deletion)."""
        tracker = self.tracker
        rc = self._rc
        for location in locations:
            value = self._cells.pop(location, None)
            if value is not None:
                if rc is not None:
                    # get-based: a ref may point at a location deleted
                    # earlier in this same batch (its count was popped).
                    for ref in value.locations():
                        n = rc.get(ref)
                        if n is not None:
                            rc[ref] = n - 1
                    rc.pop(location, None)
                if tracker is not None:
                    tracker.on_delete(location, value)
        self.mut_version += 1

    def __contains__(self, location: Location) -> bool:
        return location in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def locations(self) -> Iterator[Location]:
        return iter(self._cells)

    def items(self):
        return self._cells.items()
