"""Gen-3 step-rate measurement worker.

Measures, for every machine over the flagship corpus, the warm
gen3/gen2 step-rate ratio and the cold one, and prints the result as
JSON.  Run as a script (the bench suite invokes it in a subprocess)::

    PYTHONPATH=src python benchmarks/gen3_step_rate.py

Why a subprocess: the gen-3 tier descends into generated Python
functions for non-tail calls, so its throughput is sensitive to the
*base* Python call depth — CPython 3.11 allocates frames on a chunked
data stack, and when the run's recursion oscillates across a chunk
boundary every call pays the chunk alloc/free slow path.  A pytest
session sits ~30-40 frames deep, which on CPython 3.11 lands the
oscillation right on a boundary and costs the generated code ~30%
(the flat gen-2 loop, one frame per batch, is immune).  Real runs —
the CLI, the harness drivers — execute at shallow depth, so the gate
measures from a fresh process's shallow stack, like them.

Methodology, warm: per cell, one warm-up pair, then ``ROUNDS`` tightly
interleaved gen2/gen3 pairs timed with ``process_time``; the recorded
rates are each tier's best, and the recorded ratio is the best
*per-pair* ratio — the two runs of a pair execute back to back under
near-identical clock conditions, so pairing cancels frequency drift
that a quotient of two independent bests would keep.

Methodology, cold (``cold_over_gen2``): the warm figures hide what
building generated code costs, so per cell ``COLD_PAIRS`` pairs time
the *first* run of a fresh parse under the default stepper (which
tiers code up on heat) and under gen-2 alone, back to back,
alternating which goes first; the recorded figure is the median
per-pair rate ratio.  A ratio of two runs in one process, so the
host's speed cancels.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

ROUNDS = 10
COLD_PAIRS = 5

MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")


def measure_cells(name, workloads, rounds=ROUNDS):
    from repro.machine.variants import make_machine
    from repro.space.meter import run_to_final

    cells = {}
    for workload, program, argument in workloads:
        for gen3 in (False, True):
            machine = make_machine(name)
            if not gen3:
                machine._tier_up = sys.maxsize  # never tier up: gen-2
            run_to_final(machine, program, argument)
        best2 = best3 = best_ratio = 0.0
        run2 = run3 = None
        for _ in range(rounds):
            machine = make_machine(name)
            machine._tier_up = sys.maxsize
            start = time.process_time()
            final, steps = run_to_final(machine, program, argument)
            rate2 = steps / (time.process_time() - start)
            run2 = (steps, repr(final.value))
            machine = make_machine(name)
            start = time.process_time()
            final, steps = run_to_final(machine, program, argument)
            rate3 = steps / (time.process_time() - start)
            run3 = (steps, repr(final.value))
            best2 = max(best2, rate2)
            best3 = max(best3, rate3)
            best_ratio = max(best_ratio, rate3 / rate2)
        # Identical computation: same transitions, same answer.
        assert run2 == run3, (name, workload, run2, run3)
        cells[workload] = {
            "transitions": run2[0],
            "gen2_steps_per_second": round(best2, 1),
            "gen3_steps_per_second": round(best3, 1),
            "gen3_over_gen2": round(best_ratio, 3),
        }
    return cells


def measure_cold(name, sources, pairs=COLD_PAIRS):
    """The median per-pair cold rate ratio (default stepper over
    gen-2 alone) of each workload, every run on a fresh parse."""
    from repro.machine.variants import make_machine
    from repro.space.consumption import prepare_input, prepare_program
    from repro.space.meter import run_to_final

    def first_run(source, argument, gen3):
        program = prepare_program(source)
        argument = prepare_input(argument)
        machine = make_machine(name)
        if gen3 is False:
            machine._tier_up = sys.maxsize
        start = time.process_time()
        final, steps = run_to_final(machine, program, argument)
        elapsed = time.process_time() - start
        return steps / elapsed, (steps, repr(final.value))

    ratios = {}
    for workload, source, argument in sources:
        pair_ratios = []
        for index in range(pairs):
            order = (None, False) if index % 2 == 0 else (False, None)
            runs = {
                gen3: first_run(source, argument, gen3) for gen3 in order
            }
            (cold, cold_run), (gen2, gen2_run) = runs[None], runs[False]
            # Identical computation: same transitions, same answer.
            assert cold_run == gen2_run, (name, workload, cold_run, gen2_run)
            pair_ratios.append(cold / gen2)
        ratios[workload] = round(statistics.median(pair_ratios), 3)
    return ratios


def main() -> int:
    from repro.programs.corpus import load_program
    from repro.programs.examples import find_leftmost_program
    from repro.space.consumption import prepare_input, prepare_program

    sources = (
        ("fib(13)", load_program("fib").source, "13"),
        (
            "find-leftmost(right, 256)",
            find_leftmost_program("right"),
            "256",
        ),
    )
    workloads = tuple(
        (workload, prepare_program(source), prepare_input(argument))
        for workload, source, argument in sources
    )
    machines = {}
    for name in MACHINES:
        cells = measure_cells(name, workloads)
        for workload, ratio in measure_cold(name, sources).items():
            cells[workload]["cold_over_gen2"] = ratio
        machines[name] = {"cells": cells}
    json.dump(
        {"machines": machines, "rounds": ROUNDS, "cold_pairs": COLD_PAIRS},
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
