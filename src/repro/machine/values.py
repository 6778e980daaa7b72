"""Runtime values (the Value grammar of Figure 4).

::

    v ::= TRUE | FALSE | NUM:z | SYM:I | VEC:(a0, ...) | ...
        | UNSPECIFIED | UNDEFINED | PRIMOP:phi
        | ESCAPE:(a, kappa) | CLOSURE:(a, L, rho)

This reproduction adds the immediate values NIL, CHAR, STR and the
heap value PAIR (two locations), which the paper leaves to "additional
rules, mainly for primitive procedures, which are not specified".

Values never contain other values directly — compound data (vectors,
pairs) hold *locations*, so sharing and mutation go through the store
exactly as in the paper.  Locations are plain integers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..reader.datum import Char as CharDatum, Symbol
from .errors import StuckError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..syntax.ast import Lambda
    from .continuation import Kont
    from .environment import Environment

Location = int


class Value:
    """Base class for runtime values."""

    __slots__ = ()

    def locations(self) -> Tuple[Location, ...]:
        """Locations this value refers to directly (GC edges)."""
        return ()


class _Singleton(Value):
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        # Singletons are identity-compared throughout the machines
        # (``v is NIL``, ``v is TRUE``); pickled copies would silently
        # break eq?/null?/truthiness, so unpickling must resolve back
        # to the canonical module-level instance.
        return (_singleton, (self._name,))


class Boolean(Value):
    """TRUE or FALSE; use the module-level singletons."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __reduce__(self):
        return (_boolean, (self.value,))


TRUE = Boolean(True)
FALSE = Boolean(False)
UNSPECIFIED = _Singleton("UNSPECIFIED")
UNDEFINED = _Singleton("UNDEFINED")
NIL = _Singleton("NIL")
EOF = _Singleton("EOF")

_SINGLETONS = {s._name: s for s in (UNSPECIFIED, UNDEFINED, NIL, EOF)}


def _singleton(name: str) -> "_Singleton":
    return _SINGLETONS[name]


def _boolean(value: bool) -> Boolean:
    return TRUE if value else FALSE


class Num(Value):
    """NUM:z — an exact integer of unlimited precision."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return f"NUM:{self.value}"


#: Interned NUM values for small results: ``_SMALL_NUMS[z]`` is
#: ``NUM:z`` for -1024 <= z <= 1024 (the tail of the list holds the
#: negatives, so plain Python indexing resolves both signs).  Sharing
#: is sound because numbers are immutable and nothing observes NUM
#: identity — ``eqv?`` compares by value and the space accountings
#: charge per *location*, not per object.  The arithmetic primitives
#: return pool members for in-range results instead of allocating.
_SMALL_NUMS = tuple(
    Num(z) for z in list(range(0, 1025)) + list(range(-1024, 0))
)


class Sym(Value):
    """SYM:I — a symbol."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"SYM:{self.name}"


class Char(Value):
    """A character value."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:
        return f"CHAR:{self.value!r}"


class Str(Value):
    """An immutable string value (immediate in this reproduction)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:
        return f"STR:{self.value!r}"


class Vector(Value):
    """VEC:(a0, ..., a_{n-1}) — n locations holding the elements."""

    __slots__ = ("locations_",)

    def __init__(self, locations: Tuple[Location, ...]):
        self.locations_ = tuple(locations)

    def locations(self) -> Tuple[Location, ...]:
        return self.locations_

    @property
    def length(self) -> int:
        return len(self.locations_)

    def __repr__(self) -> str:
        return f"VEC:{self.locations_}"


class Pair(Value):
    """A cons cell: two locations holding car and cdr."""

    __slots__ = ("car_loc", "cdr_loc")

    def __init__(self, car_loc: Location, cdr_loc: Location):
        self.car_loc = car_loc
        self.cdr_loc = cdr_loc

    def locations(self) -> Tuple[Location, ...]:
        return (self.car_loc, self.cdr_loc)

    def __repr__(self) -> str:
        return f"PAIR:({self.car_loc}, {self.cdr_loc})"


class Closure(Value):
    """CLOSURE:(a, L, rho).

    ``tag`` is the location allocated to identify the closure — the
    paper: "A bug in the design of Scheme requires that a location be
    allocated to tag the closure [Ram94]" (it makes ``eqv?`` on
    procedures observable).
    """

    __slots__ = ("tag", "lam", "env", "_locs")

    def __init__(self, tag: Location, lam: "Lambda", env: "Environment"):
        self.tag = tag
        self.lam = lam
        self.env = env
        self._locs: Optional[Tuple[Location, ...]] = None

    def locations(self) -> Tuple[Location, ...]:
        locs = self._locs
        if locs is None:
            locs = self._locs = (self.tag,) + self.env.location_tuple()
        return locs

    def __repr__(self) -> str:
        return f"CLOSURE:(tag={self.tag}, params={self.lam.params})"


class Escape(Value):
    """ESCAPE:(a, kappa) — a captured continuation (from call/cc)."""

    __slots__ = ("tag", "kont")

    def __init__(self, tag: Location, kont: "Kont"):
        self.tag = tag
        self.kont = kont

    def locations(self) -> Tuple[Location, ...]:
        # The continuation's own locations are traversed by the GC via
        # Kont.locations(); here we expose only the tag plus a marker
        # handled specially in the collector.
        return (self.tag,)

    def __repr__(self) -> str:
        return f"ESCAPE:(tag={self.tag})"


class Primop(Value):
    """PRIMOP:phi — a standard-library procedure.

    ``proc`` receives ``(machine, store, args)`` and returns a Value;
    control primops (call/cc, apply, escapes into the evaluator)
    instead set ``controls=True`` and receive ``(machine, state, args)``
    returning a new machine state.
    """

    __slots__ = ("name", "proc", "arity", "controls")

    def __init__(
        self,
        name: str,
        proc: Callable,
        arity: Optional[Tuple[int, Optional[int]]] = None,
        controls: bool = False,
    ):
        self.name = name
        self.proc = proc
        self.arity = arity
        self.controls = controls

    def __repr__(self) -> str:
        return f"PRIMOP:{self.name}"


def is_true(value: Value) -> bool:
    """Scheme truth: everything except FALSE is true."""
    return value is not FALSE


def make_boolean(flag: bool) -> Boolean:
    return TRUE if flag else FALSE


def constant_value(constant) -> Value:
    """Map a quoted constant datum to a runtime value."""
    if isinstance(constant, bool):
        return TRUE if constant else FALSE
    if isinstance(constant, int):
        return Num(constant)
    if isinstance(constant, Symbol):
        return Sym(constant.name)
    if isinstance(constant, CharDatum):
        return Char(constant.value)
    if isinstance(constant, str):
        return Str(constant)
    if constant == ():
        return NIL
    raise StuckError(f"not an atomic constant: {constant!r}")
