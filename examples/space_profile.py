#!/usr/bin/env python3
"""Watch a computation's space over time: the ``space`` events a trace
bus records for every configuration C_i, rendered as a text sparkline,
for the same program under proper and improper tail recursion.

Run:  python examples/space_profile.py
"""

from repro.harness.report import sparkline
from repro.machine.variants import make_machine
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import run_metered
from repro.telemetry.bus import TraceBus

PROGRAM = """
(define (build n acc)
  (if (zero? n) acc (build (- n 1) (cons n acc))))
(define (sum lst acc)
  (if (null? lst) acc (sum (cdr lst) (+ acc (car lst)))))
(define (f n)
  (sum (build n '()) 0))
"""


def profile(machine_name, argument="60"):
    machine = make_machine(machine_name)
    bus = TraceBus()
    result = run_metered(
        machine,
        prepare_program(PROGRAM),
        prepare_input(argument),
        fixed_precision=True,
        trace=bus,
    )
    values = [event.value for event in bus.events if event.kind == "space"]
    print(f"{machine_name:>6}  sup={result.sup_space:>6}  |{sparkline(values)}|")
    return result


def main():
    print("space(C_i) over time for: build a list of N, then sum it\n")
    for name in ("tail", "gc", "stack", "sfs"):
        profile(name)
    print(
        "\ntail : the list grows, then shrinks as sum consumes it —"
        "\n       the collector reclaims each cell the moment sum passes it."
        "\ngc   : the return-frame chain grows on top of the list."
        "\nstack: nothing is ever collected; the profile only rises."
        "\nsfs  : the tail shape, minus every over-captured binding."
    )


if __name__ == "__main__":
    main()
