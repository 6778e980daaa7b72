"""The store: a finite function from locations to values.

Locations are allocated from a countably infinite supply (section 11
requires one); the store tracks running Figure 7 space totals —
``sum(1 + space(sigma(a)))`` over its domain — under both bignum and
fixed-precision number accounting, so the space meter reads
``space(sigma)`` in O(1) per step.  The analogous Figure 8 *structural*
totals (closures and escapes cost one word; their bindings are counted
globally by the meter's binding ledger) are maintained the same way
for linked accounting.

A :class:`Store` may carry a *tracker* — the incremental metering
engine (``repro.space.meter``) — which is notified of every mutation
so it can maintain per-location reference counts and the linked
binding ledger without rescanning the heap.

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

from .values import (
    UNSPECIFIED,
    Boolean,
    Char,
    Closure,
    Escape,
    Location,
    Num,
    Pair,
    Primop,
    Sym,
    Value,
    _Singleton,
)

#: Bound lazily on first use: ``repro.space.flat`` imports
#: ``repro.machine.config`` which imports this module, so the import
#: cannot run at module scope; doing it inside ``_add_space`` would put
#: import machinery on the alloc/write/delete hot path instead.
_value_space = None


def _bind_value_space():
    global _value_space
    from ..space.flat import value_space

    _value_space = value_space
    return value_space


#: 1 + space(v) for exact value classes whose Figure 7 space is a
#: class constant under both number accountings (and whose Figure 8
#: structural cost coincides): immediates cost one word, pairs three.
_CELL_WORDS = {
    Boolean: 2,
    Sym: 2,
    Char: 2,
    Pair: 4,
    Primop: 2,
    _Singleton: 2,
}


class StoreError(KeyError):
    """Raised on reads/writes of unmapped locations (a stuck state)."""


class Store:
    """A mutable store with running space totals and a version stamp."""

    __slots__ = (
        "_cells",
        "_next_location",
        "_space_bignum",
        "_space_fixed",
        "_linked_bignum",
        "_linked_fixed",
        "version",
        "mut_version",
        "tracker",
        "_rc",
        "_escaped",
    )

    def __init__(self, track_refs: bool = False):
        self._cells: Dict[Location, Value] = {}
        self._next_location: Location = 0
        self._space_bignum: int = 0
        self._space_fixed: int = 0
        self._linked_bignum: int = 0
        self._linked_fixed: int = 0
        self.version: int = 0
        #: Bumped only by :meth:`write` and :meth:`delete_many` (never
        #: by allocation, which cannot change an existing cell).  An
        #: unchanged ``mut_version`` therefore proves every mapped cell
        #: still holds the value it held before — the sampled meter's
        #: test for a store-mutating step.
        self.mut_version: int = 0
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
        """Allocate a fresh location holding *value*.

        The Num/Closure space bookkeeping is inlined (rather than
        calling :meth:`_add_space`) because alloc is the hottest store
        mutation; the arithmetic is identical to the method's."""
        location = self._next_location
        self._next_location = location + 1
        self._cells[location] = value
        cls = value.__class__
        if cls is Num:
            bits = abs(value.value).bit_length()
            bignum = 2 + (bits if bits > 1 else 1)
            self._space_bignum += bignum
            self._space_fixed += 2
            self._linked_bignum += bignum
            self._linked_fixed += 2
        elif cls is Closure:
            flat = 2 + len(value.env._bindings)
            self._space_bignum += flat
            self._space_fixed += flat
            self._linked_bignum += 2
            self._linked_fixed += 2
        else:
            words = _CELL_WORDS.get(cls)
            if words is not None:
                self._space_bignum += words
                self._space_fixed += words
                self._linked_bignum += words
                self._linked_fixed += words
            else:
                self._add_space(value, 1)
        self.version += 1
        rc = self._rc
        if rc is not None:
            for ref in value.locations():
                rc[ref] = rc.get(ref, 0) + 1
        if self.tracker is not None:
            self.tracker.on_alloc(location, value)
        return location

    def alloc_tag(self) -> Location:
        """``alloc(UNSPECIFIED)`` — a closure/escape tag — with the
        singleton's constant bookkeeping (2 words on every accounting)
        folded in; a store with observers takes the generic path so
        they see the identical mutation."""
        if self.tracker is None and self._rc is None:
            location = self._next_location
            self._next_location = location + 1
            self._cells[location] = UNSPECIFIED
            self._space_bignum += 2
            self._space_fixed += 2
            self._linked_bignum += 2
            self._linked_fixed += 2
            self.version += 1
            return location
        return self.alloc(UNSPECIFIED)

    def alloc_many(self, values: Iterable[Value]) -> Tuple[Location, ...]:
        """Allocate fresh locations for several values at once (the
        same mutations as repeated :meth:`alloc`, without the per-value
        method call)."""
        cells = self._cells
        add = self._add_space
        tracker = self.tracker
        rc = self._rc
        location = self._next_location
        out = []
        if rc is None and tracker is None:
            # No per-value observers: the interleaved bookkeeping below
            # collapses to the same end state, so batch it (with the
            # same inlined Num/Closure fast paths as ``alloc``).
            for value in values:
                cells[location] = value
                cls = value.__class__
                if cls is Num:
                    bits = abs(value.value).bit_length()
                    bignum = 2 + (bits if bits > 1 else 1)
                    self._space_bignum += bignum
                    self._space_fixed += 2
                    self._linked_bignum += bignum
                    self._linked_fixed += 2
                elif cls is Closure:
                    flat = 2 + len(value.env._bindings)
                    self._space_bignum += flat
                    self._space_fixed += flat
                    self._linked_bignum += 2
                    self._linked_fixed += 2
                else:
                    words = _CELL_WORDS.get(cls)
                    if words is not None:
                        self._space_bignum += words
                        self._space_fixed += words
                        self._linked_bignum += words
                        self._linked_fixed += words
                    else:
                        add(value, 1)
                out.append(location)
                location += 1
            self._next_location = location
            self.version += len(out)
            return tuple(out)
        for value in values:
            self._next_location = location + 1
            cells[location] = value
            add(value, 1)
            self.version += 1
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
        self._add_space(old, -1)
        self._cells[location] = value
        self._add_space(value, 1)
        self.version += 1
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
                self._add_space(value, -1)
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
        self.version += 1
        self.mut_version += 1

    def __contains__(self, location: Location) -> bool:
        return location in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def locations(self) -> Iterator[Location]:
        return iter(self._cells)

    def items(self):
        return self._cells.items()

    # -- space totals -----------------------------------------------------------

    @property
    def space_bignum(self) -> int:
        """space(sigma) under unlimited-precision number accounting."""
        return self._space_bignum

    @property
    def space_fixed(self) -> int:
        """space(sigma) under fixed-precision number accounting."""
        return self._space_fixed

    def linked_structural(self, fixed_precision: bool = False) -> int:
        """Figure 8 structural words of the store: 1 per cell plus the
        value's structural cost (closures and escapes cost one word;
        their bindings/frames are accounted globally)."""
        return self._linked_fixed if fixed_precision else self._linked_bignum

    def _add_space(self, value: Value, sign: int) -> None:
        # Exact-class fast paths for the values the hot loop allocates
        # (numbers, closures and their tags, pairs, immediates); each
        # adds the same four totals the generic path below computes.
        cls = value.__class__
        if cls is Num:
            bits = abs(value.value).bit_length()
            bignum = sign * (2 + (bits if bits > 1 else 1))
            fixed = 2 * sign
            self._space_bignum += bignum
            self._space_fixed += fixed
            self._linked_bignum += bignum
            self._linked_fixed += fixed
            return
        if cls is Closure:
            flat = sign * (2 + len(value.env._bindings))
            self._space_bignum += flat
            self._space_fixed += flat
            self._linked_bignum += 2 * sign
            self._linked_fixed += 2 * sign
            return
        words = _CELL_WORDS.get(cls)
        if words is not None:
            delta = sign * words
            self._space_bignum += delta
            self._space_fixed += delta
            self._linked_bignum += delta
            self._linked_fixed += delta
            return
        vs = _value_space
        if vs is None:
            vs = _bind_value_space()
        bignum = vs(value, fixed_precision=False)
        fixed = vs(value, fixed_precision=True)
        self._space_bignum += sign * (1 + bignum)
        self._space_fixed += sign * (1 + fixed)
        if isinstance(value, (Closure, Escape)):
            # Linked accounting charges closures/escapes one word; the
            # environment table / captured frames are counted globally.
            bignum = fixed = 1
        self._linked_bignum += sign * (1 + bignum)
        self._linked_fixed += sign * (1 + fixed)

    def checkpoint_spaces(self) -> Tuple[int, int]:
        """Recompute both flat totals from scratch (integrity tests)."""
        vs = _value_space
        if vs is None:
            vs = _bind_value_space()
        bignum = sum(
            1 + vs(v, fixed_precision=False) for v in self._cells.values()
        )
        fixed = sum(
            1 + vs(v, fixed_precision=True) for v in self._cells.values()
        )
        return bignum, fixed

    def checkpoint_linked_structural(self) -> Tuple[int, int]:
        """Recompute both linked structural totals from scratch."""
        vs = _value_space
        if vs is None:
            vs = _bind_value_space()

        def one(value: Value, fixed_precision: bool) -> int:
            if isinstance(value, (Closure, Escape)):
                return 1
            return vs(value, fixed_precision=fixed_precision)

        bignum = sum(1 + one(v, False) for v in self._cells.values())
        fixed = sum(1 + one(v, True) for v in self._cells.values())
        return bignum, fixed
