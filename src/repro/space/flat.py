"""Figure 7: the space consumed by a configuration, flat environments.

::

    space((v, sigma))           = space(v) + space(sigma)
    space((E, rho, kappa, s))   = |Dom rho| + space(kappa) + space(sigma)
    space((v, rho, kappa, s))   = space(v) + |Dom rho| + space(kappa)
                                  + space(sigma)
    space(sigma)                = sum over a in sigma of (1 + space(sigma(a)))

    space(TRUE) = space(FALSE) = space(SYM:I) = 1
    space(VEC:(a0, ..., a_{n-1})) = 1 + n
    space(NUM:z) = 1 + log2 z      (exact integers; see below)
    space(CLOSURE:(a, L, rho)) = 1 + |Dom rho|

    space(halt) = 1
    space(select:(E1, E2, rho, kappa)) = 1 + |Dom rho| + space(kappa)
    space(assign:(I, rho, kappa))      = 1 + |Dom rho| + space(kappa)
    space(push:((E...m), (v...n), pi, rho, kappa))
                                       = 1 + m + n + |Dom rho| + space(kappa)
    space(call:((v...m), kappa))       = 1 + m + space(kappa)
    space(return:(rho, kappa))         = 1 + |Dom rho| + space(kappa)
    space(return:(A, rho, kappa))      = 1 + |Dom rho| + space(kappa)

Values the paper leaves unspecified get the natural extensions: PAIR
costs 3 words (a two-slot VEC), STR costs 1 + its length, immediates
cost 1, and ESCAPE:(a, kappa) costs 1 + space(kappa) — a captured
continuation retains its frames.

``space(NUM:z) = 1 + log2 z`` models unlimited-precision integers; the
``fixed_precision`` flag switches to space(NUM) = 1, which the paper
invokes when noting that its "linear" example programs are O(N log N)
with bignums but O(N) with fixed precision.

Two things compute it.  :func:`configuration_space` adds
:func:`registers_space` (the accumulator, the register environment and
the continuation's cached ``Kont.flat_space``) to :func:`store_space`,
a walk of the store's cells; it is the reference engine's measurement.
:func:`flat_charges` walks the configuration component by component
and charges each its words by the same rules (``Kont._flat_own``,
:func:`value_space`); the blame and retention layers group its charges
by holder, and the tests hold its total to :func:`configuration_space`.
The delta engine walks no store: it adds :func:`registers_space` to the
store words it keeps as the store changes
(``repro.space.meter.DeltaMeter``).
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

from ..machine.config import Final, State
from ..machine.values import (
    Closure,
    Escape,
    Num,
    Pair,
    Str,
    Value,
    Vector,
)


def number_space(value: int, fixed_precision: bool = False) -> int:
    """1 + log2(z) for exact integers, pinned to at least 1 bit."""
    if fixed_precision:
        return 1
    bits = abs(value).bit_length()
    return 1 + bits if bits > 1 else 2


def value_space(value: Value, fixed_precision: bool = False) -> int:
    """space(v) per Figure 7 (see the module docstring for extensions)."""
    if isinstance(value, Num):
        return number_space(value.value, fixed_precision)
    if isinstance(value, Closure):
        return 1 + len(value.env)
    if isinstance(value, Vector):
        return 1 + value.length
    if isinstance(value, Pair):
        return 3
    if isinstance(value, Escape):
        # Denotational escapes wrap a Python-level continuation with
        # no machine frames; they cost one word.
        return 1 + getattr(value.kont, "flat_space", 0)
    if isinstance(value, Str):
        return 1 + len(value.value)
    return 1


def store_space(store, fixed_precision: bool = False) -> int:
    """space(sigma): 1 + space(v) summed over the store's cells."""
    return sum(
        1 + value_space(value, fixed_precision)
        for _location, value in store.items()
    )


def registers_space(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> int:
    """space(C) less space(sigma): the accumulator, |Dom rho| and the
    continuation's cached ``Kont.flat_space``."""
    if configuration.is_final:
        return value_space(configuration.value, fixed_precision)
    total = len(configuration.env) + configuration.kont.flat_space
    if configuration.is_value:
        total += value_space(configuration.control, fixed_precision)
    return total


def configuration_space(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> int:
    """space(C) for either configuration shape."""
    store = store_space(configuration.store, fixed_precision)
    return store + registers_space(configuration, fixed_precision)


#: Holder keys of the configuration's registers in a charge walk.  A
#: continuation frame's holder is the frame itself and a store cell's
#: is its location.
REGISTER = "register"
ACCUMULATOR = "accumulator"

#: One charge of a walk: (holder, part, words, fresh).  *part* is what
#: the words are for: the register environment, a frame, or a value.
#: *fresh* counts the bindings charged with it (linked accounting only).
Charge = Tuple[object, object, int, int]


def flat_charges(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> Iterator[Charge]:
    """Figure 7 as a walk: charge the register environment, each
    continuation frame from the top down, the accumulator and each
    store cell in store order.  The words sum to
    :func:`configuration_space`."""
    if configuration.is_final:
        value = configuration.value
        yield ACCUMULATOR, value, value_space(value, fixed_precision), 0
    else:
        env = configuration.env
        yield REGISTER, env, len(env._bindings), 0
        frame = configuration.kont
        while frame is not None:
            yield frame, frame, frame._flat_own(), 0
            frame = frame.parent
        if configuration.is_value:
            value = configuration.control
            yield ACCUMULATOR, value, value_space(value, fixed_precision), 0
    for location, value in configuration.store.items():
        yield location, value, 1 + value_space(value, fixed_precision), 0
