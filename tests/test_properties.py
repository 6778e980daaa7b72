"""Property-based tests (hypothesis) for the core invariants.

- reader round-trips;
- random terminating programs compute the same answer on every
  reference machine (Corollary 20);
- Theorem 24's pointwise inequalities on random programs;
- GC never collects reachable locations and is idempotent;
- the delta engine's store words match a walk of the cells.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import ACCOUNTINGS, primed_meter, walked_store_words
from repro.harness.runner import answers_agree, compare_machines
from repro.machine.config import Final
from repro.machine.continuation import Halt
from repro.machine.environment import EMPTY_ENV
from repro.machine.gc import collect, reachable_locations
from repro.machine.store import Store
from repro.machine.values import (
    NIL,
    TRUE,
    Closure,
    Escape,
    Num,
    Pair,
    Str,
    Sym,
    Vector,
)
from repro.reader.datum import Symbol, datum_to_string
from repro.reader.parser import read
from repro.space.consumption import measure_all
from repro.syntax.ast import Lambda, Quote

# ---------------------------------------------------------------------------
# Reader round-trip
# ---------------------------------------------------------------------------

symbol_names = st.from_regex(r"[a-z][a-z0-9?!*<>=-]{0,8}", fullmatch=True)

atoms = st.one_of(
    st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
    st.booleans(),
    symbol_names.map(Symbol),
)

datums = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=20,
)


@given(datums)
@settings(max_examples=200)
def test_reader_round_trip(datum):
    assert read(datum_to_string(datum)) == datum


# ---------------------------------------------------------------------------
# Random terminating programs
# ---------------------------------------------------------------------------
#
# Expressions are generated over a small set of bound variables with
# only structurally-decreasing recursion (a fuel parameter), so every
# generated program terminates.

VARS = ("a", "b")


def pure_exprs(depth):
    """Expression strategy over numbers and the variables a, b."""
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(str),
        st.sampled_from(VARS),
    )
    if depth == 0:
        return leaf
    sub = pure_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub, sub).map(
            lambda t: f"(if (zero? {t[0]}) {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub).map(
            lambda t: f"(let ((a {t[0]})) {t[1]})"
        ),
        st.tuples(sub, sub).map(
            lambda t: f"((lambda (b) {t[1]}) {t[0]})"
        ),
        # cons only in number-preserving shapes, so every expression
        # stays number-valued and no generated program gets stuck.
        sub.map(lambda e: f"(car (cons {e} '0))"),
        st.tuples(sub, sub).map(
            lambda t: f"(cdr (cons {t[0]} {t[1]}))"
        ),
        st.tuples(sub, sub).map(
            lambda t: f"(begin (set! a {t[0]}) {t[1]})"
        ),
    )


program_bodies = pure_exprs(3)


def as_program(body):
    return f"(define (f n) (let ((a n) (b 1)) {body}))"


@given(program_bodies)
@settings(max_examples=60, deadline=None)
def test_corollary20_on_random_programs(body):
    source = as_program(body)
    results = compare_machines(
        source,
        "3",
        machines=("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo"),
    )
    assert answers_agree(results), source


@given(program_bodies)
@settings(max_examples=25, deadline=None)
def test_theorem24_on_random_programs(body):
    source = as_program(body)
    totals = {
        name: result.total
        for name, result in measure_all(source, "2").items()
    }
    assert totals["tail"] <= totals["gc"] <= totals["stack"], source
    assert totals["sfs"] <= totals["evlis"] <= totals["tail"], source
    assert totals["sfs"] <= totals["free"] <= totals["tail"], source


# ---------------------------------------------------------------------------
# GC invariants on random heaps
# ---------------------------------------------------------------------------


@st.composite
def heaps(draw):
    """A random store of numbers, pairs, and vectors plus a root set."""
    store = Store()
    locations = [store.alloc(Num(draw(st.integers(0, 100))))]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["num", "pair", "vector"]))
        if kind == "num":
            locations.append(store.alloc(Num(draw(st.integers(0, 100)))))
        elif kind == "pair":
            car = draw(st.sampled_from(locations))
            cdr = draw(st.sampled_from(locations))
            locations.append(store.alloc(Pair(car, cdr)))
        else:
            size = draw(st.integers(0, 3))
            cells = tuple(
                draw(st.sampled_from(locations)) for _ in range(size)
            )
            locations.append(store.alloc(Vector(cells)))
    root_count = draw(st.integers(0, min(3, len(locations))))
    roots = draw(
        st.lists(
            st.sampled_from(locations),
            min_size=root_count,
            max_size=root_count,
        )
    )
    return store, roots


@given(heaps())
@settings(max_examples=150)
def test_gc_preserves_exactly_the_reachable(heap):
    store, roots = heap
    from repro.machine.config import State
    from repro.machine.continuation import Halt
    from repro.machine.environment import EMPTY_ENV

    env = EMPTY_ENV.extend(
        tuple(f"r{i}" for i in range(len(roots))), tuple(roots)
    )
    live_before = reachable_locations(store, root_env=env)
    state = State(Num(0), True, env, Halt(), store)
    collect(state)
    assert set(store.locations()) == live_before
    # Idempotent: a second collection finds nothing.
    assert collect(state) == 0


#: A store value to build: its class and what it holds.  References are
#: indices, taken modulo the locations allocated so far.
value_specs = st.one_of(
    st.tuples(st.just("num"), st.integers(-(2 ** 80), 2 ** 80)),
    st.tuples(st.just("str"), st.text(max_size=4)),
    st.tuples(st.just("immediate"), st.sampled_from((TRUE, NIL, Sym("s")))),
    st.tuples(st.just("pair"), st.lists(st.integers(0, 63), min_size=2,
                                        max_size=2)),
    st.tuples(st.just("vector"), st.lists(st.integers(0, 63), max_size=3)),
    st.tuples(st.just("closure"), st.lists(st.integers(0, 63), max_size=3)),
    st.tuples(st.just("escape"), st.integers(0, 63)),
)

store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), value_specs),
        st.tuples(st.just("alloc_many"), st.lists(value_specs, max_size=3)),
        st.tuples(st.just("write"), st.integers(0, 63), value_specs),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 63), max_size=3)),
    ),
    max_size=30,
)


def _value(spec, locations):
    kind, held = spec
    if kind == "num":
        return Num(held)
    if kind == "str":
        return Str(held)
    if kind == "immediate":
        return held
    if kind == "escape":
        return Escape(locations[held % len(locations)], Halt())
    refs = tuple(locations[index % len(locations)] for index in held)
    if kind == "pair":
        return Pair(*refs)
    if kind == "vector":
        return Vector(refs)
    env = EMPTY_ENV.extend(("x", "y", "z")[: len(refs)], refs)
    return Closure(locations[0], Lambda((), Quote(1)), env)


@given(store_operations)
@settings(max_examples=100, deadline=None)
def test_store_space_totals_match_recomputation(operations):
    """A primed delta engine follows random allocations, writes and
    deletions: its store words equal the walk of the cells after every
    operation, under both accountings and both precisions."""
    for linked, fixed_precision in ACCOUNTINGS:
        store = Store()
        meter = primed_meter(store, linked, fixed_precision)
        locations = [store.alloc(Num(0))]
        for operation in operations:
            kind = operation[0]
            if kind == "alloc":
                locations.append(store.alloc(_value(operation[1], locations)))
            elif kind == "alloc_many":
                values = [_value(spec, locations) for spec in operation[1]]
                locations.extend(store.alloc_many(values))
            elif kind == "write":
                location = locations[operation[1] % len(locations)]
                if location in store:
                    store.write(location, _value(operation[2], locations))
            else:
                store.delete_many(
                    locations[index % len(locations)]
                    for index in operation[1]
                )
            assert meter.store_words == walked_store_words(
                store, linked, fixed_precision
            ), (linked, fixed_precision, operation)


# ---------------------------------------------------------------------------
# CPS conversion on random programs
# ---------------------------------------------------------------------------


@given(program_bodies)
@settings(max_examples=40, deadline=None)
def test_cps_image_computes_same_answer(body):
    from repro.compiler.cps import cps_program
    from repro.harness.runner import run

    source = as_program(body)
    direct = run(source, "3").answer
    image = run(cps_program(source), "3").answer
    assert direct == image, source


@given(program_bodies)
@settings(max_examples=25, deadline=None)
def test_cps_image_is_pure(body):
    from repro.analysis.callgraph import classify_calls
    from repro.compiler.cps import cps_program

    image = cps_program(as_program(body))
    offenders = [
        c
        for c in classify_calls(image)
        if not c.is_tail
        and c.operator_kind != "primitive"
        and c.enclosing is not None
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# Denotational agreement on random programs (section 16)
# ---------------------------------------------------------------------------


@given(program_bodies)
@settings(max_examples=40, deadline=None)
def test_denotational_agreement_on_random_programs(body):
    from repro.denotational import denotational_answer
    from repro.harness.runner import run

    source = as_program(body)
    assert denotational_answer(source, "3") == run(source, "3").answer


# ---------------------------------------------------------------------------
# Expander determinism
# ---------------------------------------------------------------------------


@given(program_bodies)
@settings(max_examples=50)
def test_expansion_is_deterministic(body):
    from repro.syntax.ast import core_to_string
    from repro.syntax.expander import Expander
    from repro.reader.parser import read_all

    source = as_program(body)
    first = core_to_string(Expander().expand_program(read_all(source)))
    second = core_to_string(Expander().expand_program(read_all(source)))
    assert first == second
