"""Fused step-rate measurement worker.

Measures, for every machine on fib(13), the best-of-``ROUNDS`` step
rate of the seed stepper, gen-2 (the default stepper with tier-up
disabled) and the default stepper — the fused and gen-2 figures
``check_step_rate.py`` gates, each over the same worker's seed rate,
and the stack machine's absolute one-million-steps/second gate — and
prints the result as JSON.  Run as a script (the bench suite invokes it in a subprocess)::

    PYTHONPATH=src python benchmarks/fused_step_rate.py

Why a subprocess: generated code descends into Python functions for
non-tail calls, so its speed depends on the Python stack depth it is
called from (CPython 3.11's chunked data stack; see
``gen3_step_rate.py``): called under 0-63 extra Python frames, a warm
evlis fib 13 ran between 1.2 and 6.9 M steps/s, and pytest adds 30-40.
A fresh process measures from one shallow depth, as the CLI and the
harness drivers run.  This worker is separate from ``gen3_step_rate.py``
because adding code to that module moved its gen-3 per-machine ratios
by up to 0.8 (gc up, mta down; CPython 3.11 on a 2-vCPU VM), so that
module stays as it is.
"""

from __future__ import annotations

import json
import sys
import time

ROUNDS = 5

MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")


def best_step_rate(factory, name, program, argument, rounds=ROUNDS):
    """Best-of-*rounds* steps/second for one stepper on one workload,
    with the run's (transitions, answer)."""
    from repro.space.meter import run_to_final

    best = 0.0
    run = None
    for _ in range(rounds):
        stepper = factory(name)
        start = time.perf_counter()
        final, taken = run_to_final(stepper, program, argument)
        elapsed = time.perf_counter() - start
        best = max(best, taken / elapsed)
        run = (taken, repr(final.value))
    return best, run


def step_rate_entry(name, workload, program, argument):
    """Seed, gen-2 and default-stepper rates of one cell; the three
    steppers must run the identical computation."""
    from repro.machine.reference_step import make_seed_stepper
    from repro.machine.variants import make_machine

    def gen2(machine):
        stepper = make_machine(machine)
        stepper._tier_up = sys.maxsize  # never tier up: gen-2 alone
        return stepper

    before, seed_run = best_step_rate(make_seed_stepper, name, program, argument)
    rate2, gen2_run = best_step_rate(gen2, name, program, argument)
    after, run = best_step_rate(make_machine, name, program, argument)
    assert run == gen2_run == seed_run, (name, workload)
    return {
        "workload": workload,
        "transitions": run[0],
        "before_steps_per_second": round(before, 1),
        "gen2_steps_per_second": round(rate2, 1),
        "after_steps_per_second": round(after, 1),
        "speedup": round(after / before, 2),
        "gen3_over_gen2": round(after / rate2, 2),
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
