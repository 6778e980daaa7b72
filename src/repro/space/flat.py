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

Two things compute it.  :func:`configuration_space` adds the O(1)
totals the continuation frames and the store keep as they are built;
it is what the meter reads.  :func:`flat_charges` walks the
configuration component by component and charges each its words by
the same rules (``Kont._flat_own``, :func:`value_space`); the blame
and retention layers group its charges by holder, and the tests hold
its total to the cached one.
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
    return 1 + max(1, abs(value).bit_length())


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
    """space(sigma) — maintained incrementally by the store, O(1)."""
    return store.space_fixed if fixed_precision else store.space_bignum


def state_space(state: State, fixed_precision: bool = False) -> int:
    """space of an intermediate configuration."""
    total = (
        len(state.env)
        + state.kont.flat_space
        + store_space(state.store, fixed_precision)
    )
    if state.is_value:
        total += value_space(state.control, fixed_precision)
    return total


def final_space(final: Final, fixed_precision: bool = False) -> int:
    """space of a final configuration (v, sigma)."""
    return value_space(final.value, fixed_precision) + store_space(
        final.store, fixed_precision
    )


def configuration_space(
    configuration: Union[State, Final], fixed_precision: bool = False
) -> int:
    """space(C) for either configuration shape."""
    if isinstance(configuration, Final):
        return final_space(configuration, fixed_precision)
    return state_space(configuration, fixed_precision)


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
