"""Standard procedures for the initial environment rho_0 / store sigma_0.

Section 12: "Let rho_0 and sigma_0 be some fixed initial environment
and initial store that contain Scheme's standard procedures, as
described in Section 6 of [IEE91]."  The core transition rules "must be
supplemented by additional rules, mainly for primitive procedures,
which are not specified in this paper" — this module supplies them.

Primitive conventions:

- an *ordinary* primitive maps ``(machine, store, args) -> Value`` and
  may allocate (cons, list, make-vector, ...);
- a *control* primitive (call/cc, apply) maps
  ``(machine, state, args, kont) -> Configuration`` and may transfer
  control;
- domain errors raise :class:`PrimitiveError`, i.e. the machine is
  stuck, matching the paper's treatment of program errors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .environment import Environment
from .errors import PrimitiveError
from .store import Store
from operator import eq, ge, gt, le, lt

from .values import (
    Boolean,
    Char,
    Closure,
    Escape,
    FALSE,
    NIL,
    Num,
    Pair,
    Primop,
    Str,
    Sym,
    TRUE,
    UNSPECIFIED,
    Value,
    Vector,
    _SMALL_NUMS,
    is_true,
    make_boolean,
)

_REGISTRY: Dict[str, Primop] = {}


def primitive(
    name: str,
    arity: Optional[Tuple[int, Optional[int]]] = None,
    controls: bool = False,
    aliases: Tuple[str, ...] = (),
):
    """Register a primitive under *name* (and *aliases*)."""

    def register(proc: Callable) -> Callable:
        primop = Primop(name, proc, arity=arity, controls=controls)
        _REGISTRY[name] = primop
        for alias in aliases:
            _REGISTRY[alias] = Primop(alias, proc, arity=arity, controls=controls)
        return proc

    return register


# ---------------------------------------------------------------------------
# Argument checking helpers
# ---------------------------------------------------------------------------


def check_num(name: str, value: Value) -> int:
    if not isinstance(value, Num):
        raise PrimitiveError(f"{name}: not a number: {value!r}")
    return value.value


def check_pair(name: str, value: Value) -> Pair:
    if not isinstance(value, Pair):
        raise PrimitiveError(f"{name}: not a pair: {value!r}")
    return value


def check_vector(name: str, value: Value) -> Vector:
    if not isinstance(value, Vector):
        raise PrimitiveError(f"{name}: not a vector: {value!r}")
    return value


def check_index(name: str, length: int, value: Value) -> int:
    index = check_num(name, value)
    if not 0 <= index < length:
        raise PrimitiveError(f"{name}: index {index} out of range [0, {length})")
    return index


# ---------------------------------------------------------------------------
# List plumbing
# ---------------------------------------------------------------------------


def make_list(store: Store, values: List[Value]) -> Value:
    """Allocate a fresh proper list holding *values*."""
    result: Value = NIL
    for value in reversed(values):
        car_loc = store.alloc(value)
        cdr_loc = store.alloc(result)
        result = Pair(car_loc, cdr_loc)
    return result


def iter_list(store: Store, value: Value, what: str = "list") -> Iterator[Value]:
    """Iterate the elements of a proper list, detecting cycles."""
    seen = set()
    current = value
    while current is not NIL:
        if not isinstance(current, Pair):
            raise PrimitiveError(f"{what}: improper list")
        key = (current.car_loc, current.cdr_loc)
        if key in seen:
            raise PrimitiveError(f"{what}: cyclic list")
        seen.add(key)
        yield store.read(current.car_loc)
        current = store.read(current.cdr_loc)


def list_values(store: Store, value: Value, what: str = "list") -> List[Value]:
    return list(iter_list(store, value, what))


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------


@primitive("+", arity=(0, None))
def prim_add(machine, store, args):
    if len(args) == 2:
        a0, a1 = args
        # Exact-class fast path (the hot binary case); subclasses and
        # non-numbers fall through to the checked path, whose error
        # order (left operand first) the fast path cannot reach.
        if a0.__class__ is Num and a1.__class__ is Num:
            z = a0.value + a1.value
            return _SMALL_NUMS[z] if -1024 <= z <= 1024 else Num(z)
        return Num(check_num("+", a0) + check_num("+", a1))
    return Num(sum(check_num("+", a) for a in args))


@primitive("-", arity=(1, None))
def prim_sub(machine, store, args):
    if len(args) == 2:
        a0, a1 = args
        if a0.__class__ is Num and a1.__class__ is Num:
            z = a0.value - a1.value
            return _SMALL_NUMS[z] if -1024 <= z <= 1024 else Num(z)
        return Num(check_num("-", a0) - check_num("-", a1))
    first = check_num("-", args[0])
    if len(args) == 1:
        return Num(-first)
    for arg in args[1:]:
        first -= check_num("-", arg)
    return Num(first)


@primitive("*", arity=(0, None))
def prim_mul(machine, store, args):
    product = 1
    for arg in args:
        product *= check_num("*", arg)
    return Num(product)


@primitive("quotient", arity=(2, 2))
def prim_quotient(machine, store, args):
    numerator = check_num("quotient", args[0])
    denominator = check_num("quotient", args[1])
    if denominator == 0:
        raise PrimitiveError("quotient: division by zero")
    quotient = abs(numerator) // abs(denominator)
    if (numerator < 0) != (denominator < 0):
        quotient = -quotient
    return Num(quotient)


@primitive("remainder", arity=(2, 2))
def prim_remainder(machine, store, args):
    numerator = check_num("remainder", args[0])
    denominator = check_num("remainder", args[1])
    if denominator == 0:
        raise PrimitiveError("remainder: division by zero")
    remainder = abs(numerator) % abs(denominator)
    return Num(-remainder if numerator < 0 else remainder)


@primitive("modulo", arity=(2, 2))
def prim_modulo(machine, store, args):
    numerator = check_num("modulo", args[0])
    denominator = check_num("modulo", args[1])
    if denominator == 0:
        raise PrimitiveError("modulo: division by zero")
    return Num(numerator % denominator)


@primitive("abs", arity=(1, 1))
def prim_abs(machine, store, args):
    return Num(abs(check_num("abs", args[0])))


@primitive("min", arity=(1, None))
def prim_min(machine, store, args):
    return Num(min(check_num("min", a) for a in args))


@primitive("max", arity=(1, None))
def prim_max(machine, store, args):
    return Num(max(check_num("max", a) for a in args))


@primitive("expt", arity=(2, 2))
def prim_expt(machine, store, args):
    base = check_num("expt", args[0])
    power = check_num("expt", args[1])
    if power < 0:
        raise PrimitiveError("expt: negative exponent on exact integer")
    return Num(base ** power)


@primitive("gcd", arity=(0, None))
def prim_gcd(machine, store, args):
    from math import gcd

    result = 0
    for arg in args:
        result = gcd(result, check_num("gcd", arg))
    return Num(result)


def _comparison(name: str, compare) -> Callable:
    def prim(machine, store, args):
        if len(args) == 2:
            a0, a1 = args
            if a0.__class__ is Num and a1.__class__ is Num:
                return TRUE if compare(a0.value, a1.value) else FALSE
            # Same checks in the same order as the general chain below.
            return make_boolean(
                compare(check_num(name, a0), check_num(name, a1))
            )
        numbers = [check_num(name, a) for a in args]
        return make_boolean(
            all(compare(a, b) for a, b in zip(numbers, numbers[1:]))
        )

    return prim


# operator.* rather than lambdas: the C comparison avoids a Python
# frame per primitive application.
primitive("=", arity=(2, None))(_comparison("=", eq))
primitive("<", arity=(2, None))(_comparison("<", lt))
primitive(">", arity=(2, None))(_comparison(">", gt))
primitive("<=", arity=(2, None))(_comparison("<=", le))
primitive(">=", arity=(2, None))(_comparison(">=", ge))


@primitive("zero?", arity=(1, 1))
def prim_zero_p(machine, store, args):
    return make_boolean(check_num("zero?", args[0]) == 0)


@primitive("positive?", arity=(1, 1))
def prim_positive_p(machine, store, args):
    return make_boolean(check_num("positive?", args[0]) > 0)


@primitive("negative?", arity=(1, 1))
def prim_negative_p(machine, store, args):
    return make_boolean(check_num("negative?", args[0]) < 0)


@primitive("even?", arity=(1, 1))
def prim_even_p(machine, store, args):
    return make_boolean(check_num("even?", args[0]) % 2 == 0)


@primitive("odd?", arity=(1, 1))
def prim_odd_p(machine, store, args):
    return make_boolean(check_num("odd?", args[0]) % 2 != 0)


@primitive("random", arity=(1, 1))
def prim_random(machine, store, args):
    bound = check_num("random", args[0])
    if bound <= 0:
        raise PrimitiveError(f"random: bound must be positive, got {bound}")
    return Num(machine.policy.random_integer(bound))


# ---------------------------------------------------------------------------
# Type predicates and equivalence
# ---------------------------------------------------------------------------


@primitive("not", arity=(1, 1))
def prim_not(machine, store, args):
    return make_boolean(not is_true(args[0]))


_TYPE_TESTS = {
    "number?": lambda v: isinstance(v, Num),
    "symbol?": lambda v: isinstance(v, Sym),
    "boolean?": lambda v: isinstance(v, Boolean),
    "pair?": lambda v: isinstance(v, Pair),
    "null?": lambda v: v is NIL,
    "vector?": lambda v: isinstance(v, Vector),
    "string?": lambda v: isinstance(v, Str),
    "char?": lambda v: isinstance(v, Char),
    "procedure?": lambda v: isinstance(v, (Closure, Primop, Escape)),
}

for _name, _test in _TYPE_TESTS.items():

    def _make(test):
        def prim(machine, store, args):
            return make_boolean(test(args[0]))

        return prim

    primitive(_name, arity=(1, 1))(_make(_test))


def eqv_values(a: Value, b: Value) -> bool:
    """eqv? — identity for heap values, value equality for immediates.

    Closures and escapes compare by their tag location, the paper's
    reason for tagging them ("A bug in the design of Scheme requires
    that a location be allocated to tag the closure").
    """
    if a is b:
        return True
    if isinstance(a, Num) and isinstance(b, Num):
        return a.value == b.value
    if isinstance(a, Sym) and isinstance(b, Sym):
        return a.name == b.name
    if isinstance(a, Char) and isinstance(b, Char):
        return a.value == b.value
    if isinstance(a, Boolean) and isinstance(b, Boolean):
        return a.value == b.value
    if isinstance(a, Pair) and isinstance(b, Pair):
        return a.car_loc == b.car_loc and a.cdr_loc == b.cdr_loc
    if isinstance(a, Vector) and isinstance(b, Vector):
        return a.locations_ == b.locations_
    if isinstance(a, Closure) and isinstance(b, Closure):
        return a.tag == b.tag
    if isinstance(a, Escape) and isinstance(b, Escape):
        return a.tag == b.tag
    return False


@primitive("eqv?", arity=(2, 2), aliases=("eq?",))
def prim_eqv_p(machine, store, args):
    return make_boolean(eqv_values(args[0], args[1]))


def equal_values(store: Store, a: Value, b: Value) -> bool:
    """equal? — structural equality through the store (iterative, with
    a visited set so shared/cyclic structure terminates)."""
    pending = [(a, b)]
    visited = set()
    while pending:
        left, right = pending.pop()
        if eqv_values(left, right):
            continue
        if isinstance(left, Str) and isinstance(right, Str):
            if left.value != right.value:
                return False
            continue
        if isinstance(left, Pair) and isinstance(right, Pair):
            key = (left.car_loc, left.cdr_loc, right.car_loc, right.cdr_loc)
            if key in visited:
                continue
            visited.add(key)
            pending.append((store.read(left.car_loc), store.read(right.car_loc)))
            pending.append((store.read(left.cdr_loc), store.read(right.cdr_loc)))
            continue
        if isinstance(left, Vector) and isinstance(right, Vector):
            if left.length != right.length:
                return False
            key = (left.locations_, right.locations_)
            if key in visited:
                continue
            visited.add(key)
            for la, lb in zip(left.locations_, right.locations_):
                pending.append((store.read(la), store.read(lb)))
            continue
        return False
    return True


@primitive("equal?", arity=(2, 2))
def prim_equal_p(machine, store, args):
    return make_boolean(equal_values(store, args[0], args[1]))


# ---------------------------------------------------------------------------
# Pairs and lists
# ---------------------------------------------------------------------------


@primitive("cons", arity=(2, 2))
def prim_cons(machine, store, args):
    return Pair(store.alloc(args[0]), store.alloc(args[1]))


@primitive("car", arity=(1, 1))
def prim_car(machine, store, args):
    return store.read(check_pair("car", args[0]).car_loc)


@primitive("cdr", arity=(1, 1))
def prim_cdr(machine, store, args):
    return store.read(check_pair("cdr", args[0]).cdr_loc)


@primitive("set-car!", arity=(2, 2))
def prim_set_car(machine, store, args):
    store.write(check_pair("set-car!", args[0]).car_loc, args[1])
    return UNSPECIFIED


@primitive("set-cdr!", arity=(2, 2))
def prim_set_cdr(machine, store, args):
    store.write(check_pair("set-cdr!", args[0]).cdr_loc, args[1])
    return UNSPECIFIED


def _compound_accessor(name: str, path: str) -> Callable:
    """caar/cadr/... : path is applied right to left ('ad' = car of cdr)."""

    def prim(machine, store, args):
        value = args[0]
        for step in reversed(path):
            pair = check_pair(name, value)
            value = store.read(pair.car_loc if step == "a" else pair.cdr_loc)
        return value

    return prim


for _path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add",
              "daa", "dad", "dda", "ddd"):
    _accessor_name = "c" + _path + "r"
    primitive(_accessor_name, arity=(1, 1))(
        _compound_accessor(_accessor_name, _path)
    )


@primitive("list", arity=(0, None))
def prim_list(machine, store, args):
    return make_list(store, list(args))


@primitive("length", arity=(1, 1))
def prim_length(machine, store, args):
    return Num(sum(1 for _ in iter_list(store, args[0], "length")))


@primitive("list-ref", arity=(2, 2))
def prim_list_ref(machine, store, args):
    index = check_num("list-ref", args[1])
    if index < 0:
        raise PrimitiveError(f"list-ref: negative index {index}")
    for position, value in enumerate(iter_list(store, args[0], "list-ref")):
        if position == index:
            return value
    raise PrimitiveError(f"list-ref: index {index} past end of list")


@primitive("list-tail", arity=(2, 2))
def prim_list_tail(machine, store, args):
    count = check_num("list-tail", args[1])
    current = args[0]
    for _ in range(count):
        current = store.read(check_pair("list-tail", current).cdr_loc)
    return current


@primitive("append", arity=(0, None))
def prim_append(machine, store, args):
    if not args:
        return NIL
    result = args[-1]
    for lst in reversed(args[:-1]):
        values = list_values(store, lst, "append")
        for value in reversed(values):
            result = Pair(store.alloc(value), store.alloc(result))
    return result


@primitive("reverse", arity=(1, 1))
def prim_reverse(machine, store, args):
    result: Value = NIL
    for value in iter_list(store, args[0], "reverse"):
        result = Pair(store.alloc(value), store.alloc(result))
    return result


def _member(name: str, same) -> Callable:
    def prim(machine, store, args):
        target = args[0]
        current = args[1]
        seen = set()
        while current is not NIL:
            pair = check_pair(name, current)
            key = (pair.car_loc, pair.cdr_loc)
            if key in seen:
                raise PrimitiveError(f"{name}: cyclic list")
            seen.add(key)
            if same(store, store.read(pair.car_loc), target):
                return current
            current = store.read(pair.cdr_loc)
        return FALSE

    return prim


primitive("memq", arity=(2, 2))(_member("memq", lambda s, a, b: eqv_values(a, b)))
primitive("memv", arity=(2, 2))(_member("memv", lambda s, a, b: eqv_values(a, b)))
primitive("member", arity=(2, 2))(_member("member", equal_values))


def _assoc(name: str, same) -> Callable:
    def prim(machine, store, args):
        target = args[0]
        for entry in iter_list(store, args[1], name):
            pair = check_pair(name, entry)
            if same(store, store.read(pair.car_loc), target):
                return entry
        return FALSE

    return prim


primitive("assq", arity=(2, 2))(_assoc("assq", lambda s, a, b: eqv_values(a, b)))
primitive("assv", arity=(2, 2))(_assoc("assv", lambda s, a, b: eqv_values(a, b)))
primitive("assoc", arity=(2, 2))(_assoc("assoc", equal_values))


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


@primitive("make-vector", arity=(1, 2))
def prim_make_vector(machine, store, args):
    length = check_num("make-vector", args[0])
    if length < 0:
        raise PrimitiveError(f"make-vector: negative length {length}")
    fill = args[1] if len(args) == 2 else UNSPECIFIED
    return Vector(store.alloc_many(fill for _ in range(length)))


@primitive("vector", arity=(0, None))
def prim_vector(machine, store, args):
    return Vector(store.alloc_many(args))


@primitive("vector-length", arity=(1, 1))
def prim_vector_length(machine, store, args):
    return Num(check_vector("vector-length", args[0]).length)


@primitive("vector-ref", arity=(2, 2))
def prim_vector_ref(machine, store, args):
    vector = check_vector("vector-ref", args[0])
    index = check_index("vector-ref", vector.length, args[1])
    return store.read(vector.locations_[index])


@primitive("vector-set!", arity=(3, 3))
def prim_vector_set(machine, store, args):
    vector = check_vector("vector-set!", args[0])
    index = check_index("vector-set!", vector.length, args[1])
    store.write(vector.locations_[index], args[2])
    return UNSPECIFIED


@primitive("vector-fill!", arity=(2, 2))
def prim_vector_fill(machine, store, args):
    vector = check_vector("vector-fill!", args[0])
    for location in vector.locations_:
        store.write(location, args[1])
    return UNSPECIFIED


# ---------------------------------------------------------------------------
# Strings and symbols (minimal: enough for the corpus programs)
# ---------------------------------------------------------------------------


@primitive("string-length", arity=(1, 1))
def prim_string_length(machine, store, args):
    if not isinstance(args[0], Str):
        raise PrimitiveError(f"string-length: not a string: {args[0]!r}")
    return Num(len(args[0].value))


@primitive("string-append", arity=(0, None))
def prim_string_append(machine, store, args):
    parts = []
    for arg in args:
        if not isinstance(arg, Str):
            raise PrimitiveError(f"string-append: not a string: {arg!r}")
        parts.append(arg.value)
    return Str("".join(parts))


@primitive("string=?", arity=(2, None))
def prim_string_eq(machine, store, args):
    texts = []
    for arg in args:
        if not isinstance(arg, Str):
            raise PrimitiveError(f"string=?: not a string: {arg!r}")
        texts.append(arg.value)
    return make_boolean(all(a == b for a, b in zip(texts, texts[1:])))


@primitive("symbol->string", arity=(1, 1))
def prim_symbol_to_string(machine, store, args):
    if not isinstance(args[0], Sym):
        raise PrimitiveError(f"symbol->string: not a symbol: {args[0]!r}")
    return Str(args[0].name)


@primitive("number->string", arity=(1, 1))
def prim_number_to_string(machine, store, args):
    return Str(str(check_num("number->string", args[0])))


# ---------------------------------------------------------------------------
# Control
# ---------------------------------------------------------------------------


@primitive(
    "call-with-current-continuation",
    arity=(1, 1),
    controls=True,
    aliases=("call/cc",),
)
def prim_call_cc(machine, state, args, kont):
    tag = state.store.alloc(UNSPECIFIED)
    state.store.note_escape()
    escape = Escape(tag, kont)
    return machine.apply_procedure(state, args[0], (escape,), kont)


@primitive("apply", arity=(2, None), controls=True)
def prim_apply(machine, state, args, kont):
    operator = args[0]
    spread = list(args[1:-1])
    spread.extend(list_values(state.store, args[-1], "apply"))
    return machine.apply_procedure(state, operator, tuple(spread), kont)


@primitive("error", arity=(1, None))
def prim_error(machine, store, args):
    raise PrimitiveError("error: " + " ".join(repr(a) for a in args))


# ---------------------------------------------------------------------------
# Initial environment
# ---------------------------------------------------------------------------


def primitive_names() -> Tuple[str, ...]:
    """Names bound in rho_0 (for the section 12 validator)."""
    return tuple(sorted(_REGISTRY))


def make_initial_environment(store: Store, names=None) -> Environment:
    """Allocate sigma_0's cells for the standard procedures and return
    rho_0 binding each name to its cell.

    With *names*, only those standard procedures are bound — the space
    meter trims rho_0 to the program's free variables by default, so
    that per-frame |Dom rho| constants (~1 word per standard procedure
    in scope, in every saved environment) do not drown the asymptotic
    effects at small N.  Trimming changes S_X(P, D) by a per-program
    constant only; ``names=None`` gives the full fixed rho_0.
    """
    if names is None:
        wanted = sorted(_REGISTRY)
    else:
        wanted = sorted(name for name in names if name in _REGISTRY)
    bindings = {}
    for name in wanted:
        bindings[name] = store.alloc(_REGISTRY[name])
    return Environment(bindings)
