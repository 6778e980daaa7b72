"""Fused step-rate measurement worker.

Measures, for every machine on fib(13), the best-of-``ROUNDS`` step
rate of the seed stepper and of the default stepper, taking the rounds
round-robin — the per-machine figure ``check_step_rate.py`` gates (the
default stepper over the same worker's seed rate) and the stack
machine's absolute one-million-steps/second gate — and prints the
result as JSON.  Run as a script (the bench suite invokes it in a
subprocess)::

    PYTHONPATH=src python benchmarks/fused_step_rate.py

A fresh process measures from one shallow Python stack, as the CLI and
the harness drivers run, rather than from inside a pytest session.
"""

from __future__ import annotations

import json
import sys
import time

ROUNDS = 5

MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")


def timed_run(stepper, program, argument):
    """Steps/second of one run, with the run's (transitions, answer)."""
    from repro.space.meter import run_to_final

    start = time.perf_counter()
    final, taken = run_to_final(stepper, program, argument)
    elapsed = time.perf_counter() - start
    return taken / elapsed, (taken, repr(final.value))


def step_rate_entry(name, workload, program, argument, rounds=ROUNDS):
    """Seed and default-stepper rates of one cell, each the best of
    *rounds* runs.  The rounds go round-robin, one run of each stepper
    per round, so a slow spell of the host falls on both steppers alike
    rather than on one.  The two steppers must run the identical
    computation."""
    from repro.machine.reference_step import make_seed_stepper
    from repro.machine.variants import make_machine

    factories = (make_seed_stepper, make_machine)
    best = [0.0] * len(factories)
    runs = [None] * len(factories)
    for _ in range(rounds):
        for index, factory in enumerate(factories):
            rate, runs[index] = timed_run(factory(name), program, argument)
            best[index] = max(best[index], rate)
    before, after = best
    seed_run, run = runs
    assert run == seed_run, (name, workload)
    return {
        "workload": workload,
        "transitions": run[0],
        "before_steps_per_second": round(before, 1),
        "after_steps_per_second": round(after, 1),
        "speedup": round(after / before, 2),
    }


def main() -> int:
    from repro.programs.corpus import load_program
    from repro.space.consumption import prepare_input, prepare_program

    program = prepare_program(load_program("fib").source)
    argument = prepare_input("13")
    machines = {
        name: step_rate_entry(name, "fib(13)", program, argument)
        for name in MACHINES
    }
    json.dump({"machines": machines, "rounds": ROUNDS}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
