"""High-level drivers: run a program, compare machines, check answers.

These wrap the front end (reader -> expander -> validator -> prepass),
the machine and the meter into single calls used by the examples,
tests, and benchmark harness.  The telemetry stack rides along:
:func:`run` threads ``trace``/``metrics`` buses into the metered run,
and the full trace-and-blame driver is
:func:`repro.telemetry.blame.trace_run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Union

from ..compiler.frontend import Source, prepare_input, prepare_program
from ..machine.answer import answer_string
from ..machine.policy import Policy
from ..machine.values import Value
from ..machine.variants import REFERENCE_MACHINES, make_stepper
from ..space.meter import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_STEP_LIMIT,
    run_metered,
    run_to_final,
)


@dataclass
class RunResult:
    """The outcome of running one program on one machine."""

    machine: str
    answer: str
    value: Value
    steps: int
    sup_space: Optional[int] = None
    consumption: Optional[int] = None

    def __str__(self) -> str:
        return self.answer


def run(
    program: Source,
    argument: Optional[Source] = None,
    machine: str = "tail",
    *,
    meter: Union[bool, str] = False,
    linked: bool = False,
    fixed_precision: bool = False,
    engine: str = "delta",
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    policy: Optional[Policy] = None,
    strict: bool = False,
    gc_interval: int = 1,
    step_limit: int = DEFAULT_STEP_LIMIT,
    answer_limit: int = 10000,
    stepper: str = "annotated",
    budget: Optional[int] = None,
    checkpoint_hook=None,
    trace=None,
    metrics=None,
    blame=None,
    retention=None,
) -> RunResult:
    """Run *program* (optionally applied to *argument*).

    With ``meter=True`` (equivalently ``meter="exact"``) the run is a
    Definition 21 space-efficient computation and the result carries
    sup-space and S_X; without it the run measures no space and is
    much faster: every 1,024 steps it compacts the continuation and
    collects only if the store has doubled (and grown by at least
    1,024 cells) since the last collection (see
    :func:`repro.space.meter.run_to_final`), so ``gc_interval`` applies
    to metered runs only.  ``meter="sampled"`` lets the meter take its
    lazy schedule (identical numbers, exact measurement only where its
    bound passes the running sup and at allocation bursts; see
    :func:`repro.space.meter.run_metered`).
    ``engine`` picks the metering engine (``"delta"`` or
    ``"reference"``).

    The program and argument go through the front end
    (:mod:`repro.compiler.frontend`): free variables must be bound in
    rho_0 and constants atomic (strings allowed); ``strict=True``
    rejects string constants too, per the letter of section 12.

    ``stepper`` selects the transition function: ``"annotated"`` (the
    live stepper, whose fused loop runs the gen-2 superinstructions on
    unmetered runs; metered runs step one transition at a time) or
    ``"seed"`` (the preserved seed stepper of
    :mod:`repro.machine.reference_step`).  Both compute identical
    answers, step counts, and space numbers — the lockstep suite holds
    them equal — so this knob exists for differential testing, not for
    semantics.

    ``budget`` caps the Definition 23 consumption on metered runs: the
    run raises :class:`repro.space.meter.QuotaExceeded` (a structured
    receipt naming the blame-census top holder) the moment its
    certified space lower bound crosses.  ``checkpoint_hook(steps,
    consumption)`` is the meter's progress callback, called every
    ``checkpoint_every`` steps under either meter.

    ``trace``/``metrics``/``blame`` attach the telemetry stack (a
    :class:`~repro.telemetry.bus.TraceBus`, a
    :class:`~repro.telemetry.metrics.MetricsRegistry`, a
    :class:`~repro.telemetry.blame.BlameProfiler`).  With ``meter=True``
    they ride the metered loop and observe every transition, space
    measurement, and reclamation; without it the bus goes to
    :func:`~repro.space.meter.run_to_final`, which steps the run one
    transition at a time and publishes each (step/apply events only —
    space is not measured on unmetered runs, and ``blame`` requires the
    meter).
    """
    if meter is True:
        meter = "exact"
    if not meter and not (
        blame is None
        and retention is None
        and budget is None
        and checkpoint_hook is None
    ):
        raise ValueError(
            "blame, retention, budget and checkpoint_hook require a "
            "metered run"
        )
    program_expr = prepare_program(program, strict)
    argument_expr = prepare_input(argument, strict)

    stepper_machine = make_stepper(machine, stepper, policy=policy)
    if meter:
        result = run_metered(
            stepper_machine,
            program_expr,
            argument_expr,
            linked=linked,
            fixed_precision=fixed_precision,
            gc_interval=gc_interval,
            step_limit=step_limit,
            engine=engine,
            meter=meter,
            checkpoint_every=checkpoint_every,
            checkpoint_hook=checkpoint_hook,
            budget=budget,
            trace=trace,
            metrics=metrics,
            blame=blame,
            retention=retention,
        )
        return RunResult(
            machine=machine,
            answer=answer_string(result.final, answer_limit),
            value=result.final.value,
            steps=result.steps,
            sup_space=result.sup_space,
            consumption=result.consumption,
        )
    if trace is not None:
        trace.meta.update(machine=machine, metered=False)
        trace.emit_phase("run", True)
    try:
        final, steps = run_to_final(
            stepper_machine,
            program_expr,
            argument_expr,
            gc_interval=1024,
            step_limit=step_limit,
            trace=trace,
        )
    finally:
        if trace is not None:
            trace.emit_phase("run", False)
    if metrics is not None:
        metrics.counter("steps_total", machine=machine).inc(steps)
    return RunResult(
        machine=machine,
        answer=answer_string(final, answer_limit),
        value=final.value,
        steps=steps,
    )


def compare_machines(
    program: Source,
    argument: Optional[Source] = None,
    machines: Iterable[str] = tuple(REFERENCE_MACHINES),
    **options,
) -> Dict[str, RunResult]:
    """Run the same (program, argument) on several machines.

    Corollary 20: all reference implementations compute the same
    answers — so the ``answer`` fields should agree; the space fields
    will not.
    """
    program_expr = prepare_program(program)
    argument_expr = prepare_input(argument)
    return {
        name: run(program_expr, argument_expr, machine=name, **options)
        for name in machines
    }


def answers_agree(results: Dict[str, RunResult]) -> bool:
    """True when every machine produced the same observable answer."""
    answers = {result.answer for result in results.values()}
    return len(answers) == 1
