"""Integrity cross-checks: the incremental/cached space accounting
must equal a from-scratch recomputation at every step of a real run —
the cached continuation totals the reference measure adds to its store
walk, and the store words the delta engine keeps.
"""

import pytest

from repro.machine.config import Final
from repro.machine.continuation import CallK, Push, chain
from repro.machine.variants import make_machine
from repro.space.consumption import prepare_input, prepare_program
from repro.space.flat import configuration_space, value_space
from repro.space.meter import make_meter


def brute_force_kont_space(kont) -> int:
    """Figure 7's continuation clauses, recomputed without the cache."""
    total = 0
    for frame in chain(kont):
        if frame.parent is None:  # halt
            total += 1
        elif isinstance(frame, Push):
            total += 1 + len(frame.pending) + len(frame.done) + len(frame.env)
        elif isinstance(frame, CallK):
            total += 1 + len(frame.args)
        else:  # select / assign / return / return-stack
            total += 1 + len(frame.env)
    return total


def brute_force_state_space(state, fixed_precision=True) -> int:
    store_total = sum(
        1 + value_space(value, fixed_precision)
        for _loc, value in state.store.items()
    )
    total = (
        len(state.env)
        + brute_force_kont_space(state.kont)
        + store_total
    )
    if state.is_value:
        total += value_space(state.control, fixed_precision)
    return total


PROGRAMS = [
    ("loop", "(define (f n) (if (zero? n) 0 (f (- n 1))))", "12"),
    ("sum", "(define (f n) (if (zero? n) 0 (+ n (f (- n 1)))))", "10"),
    ("lists",
     "(define (f n) (define (go i acc) (if (zero? i) (length acc) "
     "(go (- i 1) (cons i acc)))) (go n '()))", "8"),
    ("vectors",
     "(define (f n) (let ((v (make-vector n 3))) (vector-ref v 0)))", "6"),
    ("callcc",
     "(define (f n) (call/cc (lambda (k) (if (even? n) (k n) (+ n 1)))))",
     "5"),
]


@pytest.mark.parametrize("machine_name", ["tail", "gc", "stack", "sfs", "mta"])
@pytest.mark.parametrize(
    "name, source, argument", PROGRAMS, ids=[p[0] for p in PROGRAMS]
)
def test_incremental_equals_brute_force(machine_name, name, source, argument):
    machine = make_machine(machine_name)
    state = machine.inject(prepare_program(source), prepare_input(argument))
    meter = make_meter(machine, fixed_precision=True)
    meter.prime(state)
    try:
        for _step in range(3000):
            expected = brute_force_state_space(state)
            where = f"{machine_name}/{name} diverged at step {_step}"
            assert configuration_space(state, fixed_precision=True) == (
                expected
            ), where
            assert meter.measure(state) == expected, where
            result = machine.step(state)
            if isinstance(result, Final):
                return
            state = result
    finally:
        meter.detach(state.store)
    raise AssertionError("program did not finish within the step budget")
