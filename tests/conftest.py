"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.harness.runner import run
from repro.machine.config import State
from repro.machine.continuation import Halt
from repro.machine.environment import EMPTY_ENV
from repro.machine.values import TRUE
from repro.machine.variants import make_machine
from repro.space.consumption import space_consumption
from repro.space.flat import store_space
from repro.space.linked import store_structural
from repro.space.meter import make_meter

#: The four store accountings: (linked, fixed_precision).
ACCOUNTINGS = ((False, False), (False, True), (True, False), (True, True))


def evaluate(source: str, argument=None, machine: str = "tail", **options):
    """Run a program and return its answer string."""
    return run(source, argument, machine=machine, **options).answer


def consumption(machine: str, source: str, argument=None, **options) -> int:
    """S_X(P, D) shorthand."""
    return space_consumption(machine, source, argument, **options)


def primed_meter(store, linked: bool = False, fixed_precision: bool = False):
    """A delta engine primed on *store* under the empty environment and
    a halt continuation, so ``meter.store_words`` follows the store's
    mutations from here on.  The stack machine has no GC rule, so the
    prime collects nothing."""
    meter = make_meter(make_machine("stack"), linked, fixed_precision)
    meter.prime(State(TRUE, True, EMPTY_ENV, Halt(), store))
    return meter


def walked_store_words(
    store, linked: bool = False, fixed_precision: bool = False
) -> int:
    """The store's words summed over its cells (Figure 7, or Figure 8's
    structural words when *linked*)."""
    walk = store_structural if linked else store_space
    return walk(store, fixed_precision)


@pytest.fixture
def loop_program():
    """The Theorem 25 tail/gc separator: an iterative loop."""
    return "(define (f n) (if (zero? n) 0 (f (- n 1))))"


ALL_MACHINE_NAMES = ("tail", "gc", "stack", "evlis", "free", "sfs")
