"""Environments: finite functions from identifiers to locations.

Environments are immutable; ``extend`` and ``restrict`` return new
environments (flat copies).  The linked-environment space accounting of
Figure 8 views an environment as its *graph* — the set of
(identifier, location) pairs — which :meth:`Environment.graph` exposes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .values import Location

#: Restrict-memoization statistics, enabled by the metrics layer: None
#: (the default — one global load + is-None check per restrict call)
#: or a ``[calls, hits, previous]`` list.  ``previous`` lets enabling
#: nest: the innermost collector wins, and popping restores the outer
#: one.
_restrict_stats = None


def push_restrict_stats():
    """Start counting restrict calls/hits; returns the token to pass
    to :func:`pop_restrict_stats`."""
    global _restrict_stats
    stats = [0, 0, _restrict_stats]
    _restrict_stats = stats
    return stats


def pop_restrict_stats(stats):
    """Stop counting for *stats*; returns ``(calls, hits)``."""
    global _restrict_stats
    if _restrict_stats is stats:
        _restrict_stats = stats[2]
    return stats[0], stats[1]


class Environment:
    """An immutable finite map Identifier -> Location.

    Environments are flat dicts, but frames built by :meth:`extend`
    additionally remember *how* they were built — the parent
    environment, the parameter tuple, and the location tuple — forming
    a frame chain that mirrors the runtime lambda nesting.  The gen-2
    stepper's quickened variable lookup walks this chain by a static
    lexical address instead of hashing the name; the chain is advisory
    (``restrict`` copies and hand-built environments carry none), and
    semantics never depend on it: ``graph()``, GC reachability, and the
    space accountings read only ``_bindings``.
    """

    __slots__ = (
        "_bindings",
        "_graph",
        "_location_tuple",
        "_restrict_cache",
        "_parent",
        "_frame_names",
        "_frame_locs",
    )

    def __init__(self, bindings: Optional[Dict[str, Location]] = None):
        self._bindings: Dict[str, Location] = dict(bindings) if bindings else {}
        self._graph: Optional[FrozenSet[Tuple[str, Location]]] = None
        self._location_tuple: Optional[Tuple[Location, ...]] = None
        self._restrict_cache: Optional[Dict[FrozenSet[str], "Environment"]] = None
        self._parent: Optional["Environment"] = None
        self._frame_names: Optional[Tuple[str, ...]] = None
        self._frame_locs: Optional[Tuple[Location, ...]] = None

    @staticmethod
    def _owned(bindings: Dict[str, Location]) -> "Environment":
        """Wrap a freshly built dict without re-copying it (private to
        ``extend``/``restrict``, whose comprehension results are never
        aliased elsewhere)."""
        env = Environment.__new__(Environment)
        env._bindings = bindings
        env._graph = None
        env._location_tuple = None
        env._restrict_cache = None
        env._parent = None
        env._frame_names = None
        env._frame_locs = None
        return env

    # -- lookups ------------------------------------------------------------

    def lookup(self, name: str) -> Optional[Location]:
        """The location bound to *name*, or None (caller decides stuck)."""
        return self._bindings.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def names(self) -> Iterable[str]:
        return self._bindings.keys()

    def location_values(self) -> Iterable[Location]:
        """All locations in the range of the environment (GC roots)."""
        return self._bindings.values()

    def location_tuple(self) -> Tuple[Location, ...]:
        """The range as a tuple *with multiplicity* (one entry per
        binding), cached — the incremental meter counts one root
        reference per binding when the environment enters the roots."""
        if self._location_tuple is None:
            self._location_tuple = tuple(self._bindings.values())
        return self._location_tuple

    def graph(self) -> FrozenSet[Tuple[str, Location]]:
        """graph(rho): the environment as a set of bindings (section 13)."""
        if self._graph is None:
            self._graph = frozenset(self._bindings.items())
        return self._graph

    # -- constructors ---------------------------------------------------------

    def extend(
        self, names: Tuple[str, ...], locations: Tuple[Location, ...]
    ) -> "Environment":
        """rho[I1, ..., In -> b1, ..., bn] as a flat copy."""
        n = len(names)
        if n != len(locations):
            raise ValueError("names and locations must have equal length")
        bindings = dict(self._bindings)
        if n == 1:
            bindings[names[0]] = locations[0]
        else:
            bindings.update(zip(names, locations))
        # _owned's body, inlined: extend is the hottest environment
        # constructor (one call per procedure application).
        env = Environment.__new__(Environment)
        env._bindings = bindings
        env._graph = None
        env._location_tuple = None
        env._restrict_cache = None
        env._parent = self
        env._frame_names = names
        env._frame_locs = locations
        return env

    def extend_alloc1(self, store, names, value) -> "Environment":
        """``self.extend(names, (store.alloc(value),))`` in one call.

        The fused loop applies a unary closure with this (the fused
        call's application step and the beta superinstruction): one
        allocation and one frame.  ``names`` must be a 1-tuple —
        callers bind exactly the lambda's parameter list, whose arity
        they have already checked."""
        location = store.alloc(value)
        bindings = dict(self._bindings)
        bindings[names[0]] = location
        env = Environment.__new__(Environment)
        env._bindings = bindings
        env._graph = None
        env._location_tuple = None
        env._restrict_cache = None
        env._parent = self
        env._frame_names = names
        env._frame_locs = (location,)
        return env

    def extend_alloc(self, store, names, values) -> "Environment":
        """``self.extend(names, store.alloc_many(values))`` with the
        extend inlined (the allocated tuple stays readable off the new
        environment's ``_frame_locs``).  Callers guarantee ``names``
        and ``values`` have equal length (the arity was checked before
        entering the application)."""
        locations = store.alloc_many(values)
        bindings = dict(self._bindings)
        if len(names) == 1:
            bindings[names[0]] = locations[0]
        else:
            bindings.update(zip(names, locations))
        env = Environment.__new__(Environment)
        env._bindings = bindings
        env._graph = None
        env._location_tuple = None
        env._restrict_cache = None
        env._parent = self
        env._frame_names = names
        env._frame_locs = locations
        return env

    def restrict(self, names: Iterable[str]) -> "Environment":
        """rho | names — keep only the bindings whose name is in *names*.

        Memoized per (environment, name set): the stepper's restriction
        hooks pass interned frozensets (one per program point), so the
        hot loop's restrictions hit this cache whenever the same
        environment object recurs.  When *names* covers every binding
        the environment itself is returned without building a probe
        dict first (frozensets cache their hash, so repeated lookups
        cost O(1) after the first)."""
        stats = _restrict_stats
        if stats is not None:
            stats[0] += 1
        bindings = self._bindings
        if not bindings:
            if stats is not None:
                stats[1] += 1  # the trivial short-circuit counts as a hit
            return self
        wanted = names if type(names) is frozenset else frozenset(names)
        cache = self._restrict_cache
        if cache is None:
            cache = self._restrict_cache = {}
        else:
            result = cache.get(wanted)
            if result is not None:
                if stats is not None:
                    stats[1] += 1
                return result
        if len(wanted) >= len(bindings):
            if wanted.issuperset(bindings):
                result = self
            else:
                result = Environment._owned(
                    {name: loc for name, loc in bindings.items() if name in wanted}
                )
        else:
            result = Environment._owned(
                {name: bindings[name] for name in wanted if name in bindings}
            )
        cache[wanted] = result
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self._bindings.items()))
        return f"Env{{{inner}}}"


EMPTY_ENV = Environment()
