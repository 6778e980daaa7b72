"""Continuations (Figure 4) and the return variants of sections 8.

::

    kappa ::= halt
            | select:(E1, E2, rho, kappa)
            | assign:(I, rho, kappa)
            | push:((E, ...), (v, ...), pi, rho, kappa)
            | call:((v, ...), kappa)
            | return:(rho, kappa)              -- I_gc (section 8)
            | return:(A, rho, kappa)           -- I_stack (section 8)

Continuations are immutable.  Each caches its Figure 7 flat space on
first read (space is defined structurally, so the child adds O(1) to
the cached space of its parent), making per-step metering O(1)
amortized in the continuation component.  The fill is lazy because
unmetered runs never read the totals: constructors store None and the
``flat_space`` property walks down to the nearest cached ancestor and
fills the gap iteratively (never recursively — CPS-deep chains must
not overflow the Python stack).  The same lazy caching covers the
Figure 8 *structural* words (``linked_space`` — bindings are counted
globally by the meter).  The chain ``depth`` stays eager — it is one
addition, and the incremental meter leans on it to diff two
continuations in time proportional to their divergence rather than
their length.

Note Figure 7 counts values parked in push/call continuations as one
word each (the ``m`` and ``n`` of ``1 + m + n + |Dom rho| + space(kappa)``);
their heap parts are counted in the store, which the values keep
reachable.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..syntax.ast import Expr
from .environment import Environment
from .values import Location, Value


class Kont:
    """Base class for continuations."""

    # ``_ceiling`` and ``_compact`` are lazily-filled caches (left
    # unset by every constructor: an unset slot raises AttributeError,
    # which their sole consumers catch).  ``_ceiling`` is the largest
    # store location rooted by this frame or any ancestor, used by the
    # I_stack frame-pop fast path together with the monotonic-location
    # invariant.  ``_compact`` is True once MTA compaction has found no
    # two consecutive Return frames from this frame down to halt.
    # Continuations are immutable and locations are never reused, so
    # neither cached value can go stale.
    __slots__ = (
        "parent",
        "env",
        "_flat_space",
        "_linked_space",
        "depth",
        "_ceiling",
        "_compact",
    )

    parent: Optional["Kont"]
    env: Optional[Environment]
    depth: int

    @property
    def flat_space(self) -> int:
        """space(kappa) under Figure 7, lazily cached per frame."""
        fs = self._flat_space
        if fs is not None:
            return fs
        pending = []
        k = self
        while fs is None:
            pending.append(k)
            k = k.parent
            fs = k._flat_space
        for frame in reversed(pending):
            fs += frame._flat_own()
            frame._flat_space = fs
        return fs

    @property
    def linked_space(self) -> int:
        """Figure 8 structural words of kappa, lazily cached per frame."""
        ls = self._linked_space
        if ls is not None:
            return ls
        pending = []
        k = self
        while ls is None:
            pending.append(k)
            k = k.parent
            ls = k._linked_space
        for frame in reversed(pending):
            ls += frame._linked_own()
            frame._linked_space = ls
        return ls

    def direct_locations(self) -> Tuple[Location, ...]:
        """Locations held directly by this frame (excluding parents)."""
        if self.env is not None:
            return self.env.location_tuple()
        return ()

    def direct_values(self) -> Tuple[Value, ...]:
        """Values parked in this frame (push/call); GC traverses them."""
        return ()


class Halt(Kont):
    """halt — the initial continuation."""

    __slots__ = ()

    def __init__(self):
        self.parent = None
        self.env = None
        # Halt anchors the lazy chains: its totals are always cached.
        self._flat_space = 1
        self._linked_space = 1
        self.depth = 0

    def _flat_own(self) -> int:
        return 1

    def _linked_own(self) -> int:
        return 1

    def __repr__(self) -> str:
        return "halt"


class Select(Kont):
    """select:(E1, E2, rho, kappa) — choose a conditional arm."""

    __slots__ = ("consequent", "alternative")

    def __init__(
        self, consequent: Expr, alternative: Expr, env: Environment, parent: Kont
    ):
        self.consequent = consequent
        self.alternative = alternative
        self.env = env
        self.parent = parent
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        return 1 + len(self.env._bindings)

    def _linked_own(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"select:(|rho|={len(self.env)}, {self.parent!r})"


class Assign(Kont):
    """assign:(I, rho, kappa) — store the R-value into rho(I)."""

    __slots__ = ("name",)

    def __init__(self, name: str, env: Environment, parent: Kont):
        self.name = name
        self.env = env
        self.parent = parent
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        return 1 + len(self.env._bindings)

    def _linked_own(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"assign:({self.name}, {self.parent!r})"


class Push(Kont):
    """push:((E, ...), (v, ...), pi, rho, kappa).

    ``pending`` holds the expressions still to evaluate, in evaluation
    order; ``done`` holds the values already computed, in evaluation
    order; ``order`` is the permutation pi — ``order[j]`` is the
    original position (0 = operator) of the j-th expression evaluated.

    ``site`` is the Call expression this push belongs to.  It is a
    code pointer (like the expressions already in the frame), costs no
    space under Figure 7, and exists so the dynamic tail-call census
    can attribute each runtime call to its syntactic site.  ``plan``
    is the interned :class:`~repro.compiler.prepass.CallPlan` of
    (site, order) — another code pointer, letting the push rule read
    precomputed pending suffixes and their free variables instead of
    re-slicing; it is derived data and never affects the semantics.
    """

    __slots__ = ("pending", "done", "order", "site", "plan")

    def __init__(
        self,
        pending: Tuple[Expr, ...],
        done: Tuple[Value, ...],
        order: Tuple[int, ...],
        env: Environment,
        parent: Kont,
        site=None,
        plan=None,
    ):
        self.pending = pending
        self.done = done
        self.order = order
        self.env = env
        self.parent = parent
        self.site = site
        self.plan = plan
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        return (
            1 + len(self.pending) + len(self.done) + len(self.env._bindings)
        )

    def _linked_own(self) -> int:
        return 1 + len(self.pending) + len(self.done)

    def direct_values(self) -> Tuple[Value, ...]:
        return self.done

    def __repr__(self) -> str:
        return (
            f"push:(m={len(self.pending)}, n={len(self.done)}, "
            f"|rho|={len(self.env)}, {self.parent!r})"
        )


class CallK(Kont):
    """call:((v1, ..., vm), kappa) — apply the operator to the args.

    ``site`` carries the originating Call expression for the dynamic
    census (a code pointer; no space under Figure 7)."""

    __slots__ = ("args", "site")

    def __init__(self, args: Tuple[Value, ...], parent: Kont, site=None):
        self.args = args
        self.env = None
        self.parent = parent
        self.site = site
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        return 1 + len(self.args)

    def _linked_own(self) -> int:
        return 1 + len(self.args)

    def direct_values(self) -> Tuple[Value, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"call:(m={len(self.args)}, {self.parent!r})"


class Return(Kont):
    """return:(rho, kappa) — the I_gc frame created for every call."""

    __slots__ = ()

    def __init__(self, env: Environment, parent: Kont):
        self.env = env
        self.parent = parent
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        return 1 + len(self.env._bindings)

    def _linked_own(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"return:(|rho|={len(self.env)}, {self.parent!r})"


class ReturnStack(Kont):
    """return:(A, rho, kappa) — the I_stack frame.

    ``frame`` is the deletion set A: locations retained (as roots)
    until this frame returns, then deleted if that creates no dangling
    pointer.  Figure 7 charges return:(A, rho, kappa) the same words as
    return:(rho, kappa); A itself is free.
    """

    __slots__ = ("frame",)

    def __init__(
        self, frame: Tuple[Location, ...], env: Environment, parent: Kont
    ):
        self.frame = frame
        self.env = env
        self.parent = parent
        self._flat_space = None
        self._linked_space = None
        self.depth = parent.depth + 1

    def _flat_own(self) -> int:
        # Figure 7 charges return:(A, rho, kappa) the same words as
        # return:(rho, kappa); A itself is free.
        return 1 + len(self.env._bindings)

    def _linked_own(self) -> int:
        return 1

    def direct_locations(self) -> Tuple[Location, ...]:
        env_locations = self.env.location_tuple() if self.env else ()
        return env_locations + self.frame

    def __repr__(self) -> str:
        return f"return-stack:(|A|={len(self.frame)}, {self.parent!r})"


HALT = Halt()


def chain(kont: Optional[Kont]) -> Iterator[Kont]:
    """Iterate a continuation and all its ancestors (iteratively, so
    CPS-deep chains cannot overflow the Python stack)."""
    while kont is not None:
        yield kont
        kont = kont.parent


def depth(kont: Kont) -> int:
    """Number of frames in the continuation (halt included)."""
    return sum(1 for _ in chain(kont))
