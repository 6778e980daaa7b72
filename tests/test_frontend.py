"""The front end: one compiled program, one validation rule.

Every entry point gets its program from
:func:`repro.compiler.frontend.prepare_program`, so they accept and
reject the same programs, and everything derived from a program lives
on its own nodes: a tree is freed once the caller drops it, and
re-injecting a compiled program lowers only the new ``(P D)`` call.
"""

import gc
import weakref

import pytest

from repro.compiler import prepass
from repro.compiler.frontend import prepare_input, prepare_program
from repro.compiler.prepass import plan_count
from repro.harness.runner import run
from repro.machine.variants import make_stepper
from repro.programs.corpus import load_program
from repro.space.consumption import measure
from repro.syntax.validate import ValidationError
from repro.telemetry.blame import trace_run
from repro.telemetry.retention import retention_run

#: Closures, set!, an if with a fused test, quotes and a string: every
#: kind of derived data.
SOURCE = """
(define (count-down n acc)
  (if (zero? n)
      (string-length (car acc))
      (begin (set! acc (cons "x" acc))
             (count-down (- n 1) acc))))
(define (f n) (count-down n '()))
"""

ENTRY_POINTS = {
    "run": lambda program, argument: run(program, argument, machine="gc"),
    "measure": lambda program, argument: measure("gc", program, argument),
    "trace_run": lambda program, argument: trace_run(
        "gc", program, argument),
    "retention_run": lambda program, argument: retention_run(
        "gc", program, argument),
}


@pytest.mark.parametrize("entry", ["run", "measure", "trace_run"])
def test_a_tree_is_freed_after_the_call(entry):
    program = prepare_program(SOURCE)
    root = weakref.ref(program)
    ENTRY_POINTS[entry](program, "60")
    del program
    gc.collect()
    assert root() is None


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_accepts_string_constants(entry):
    string_ops = load_program("string-ops")
    ENTRY_POINTS[entry](string_ops.source, string_ops.default_input)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_unbound_free_variables(entry):
    with pytest.raises(ValidationError, match="helper"):
        ENTRY_POINTS[entry]("(define (f n) (if (zero? n) 0 (helper n)))",
                            "0")


def test_strict_run_rejects_string_constants():
    with pytest.raises(ValidationError, match="compound constant"):
        run('(define (f n) "s")', "1", strict=True)


def test_a_compiled_program_is_returned_unchanged():
    program = prepare_program(SOURCE)
    built = plan_count()
    assert prepare_program(program) is program
    assert plan_count() == built
    assert prepare_input(None) is None


def test_reinjecting_lowers_only_the_argument_and_its_call(monkeypatch):
    program = prepare_program(SOURCE)
    machine = make_stepper("gc")
    machine.inject(program, prepare_input("4"))
    walked = []
    unlowered = prepass._unlowered

    def spy(expr):
        nodes = unlowered(expr)
        walked.extend(node for node, _scope in nodes)
        return nodes

    monkeypatch.setattr(prepass, "_unlowered", spy)
    built = plan_count()
    argument = prepare_input("5")
    state = machine.inject(program, argument)
    assert walked == [argument, state.control]
    assert plan_count() == built + 1  # the (P D) call's plan
