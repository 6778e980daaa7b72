"""The space consumption functions S_X and U_X (Definition 23).

::

    S_X(P, D) = |P| + sup { space(C_i) : i in I }

over space-efficient computations with C_0 = ((P D), rho_0, halt,
sigma_0).  The sup over *all* nondeterministic computations is not
computable; a :class:`~repro.machine.policy.Policy` fixes the choices,
and matching the policy across machines realizes exactly the lifted
computations used in the proofs of Theorems 19 and 24 (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..compiler.frontend import Source, prepare_input, prepare_program
from ..machine.answer import answer_string
from ..machine.policy import Policy
from ..machine.variants import REFERENCE_MACHINES, make_machine
from .meter import DEFAULT_STEP_LIMIT, run_metered


@dataclass
class Consumption:
    """One S_X(P, D) / U_X(P, D) measurement with its provenance."""

    machine: str
    total: int
    sup_space: int
    program_size: int
    steps: int
    answer: str
    linked: bool
    fixed_precision: bool
    #: Engine/meter introspection from the run (engine name, fallback
    #: counts, collection/trial counters, lazy-schedule trip and
    #: certification stats) — plain data, travels the sweep channel;
    #: ``repro analyze --meter-audit`` aggregates it.
    meter_stats: Optional[Dict] = None


def measure(
    machine_name: str,
    program: Source,
    argument: Optional[Source] = None,
    *,
    linked: bool = False,
    fixed_precision: bool = False,
    policy: Optional[Policy] = None,
    gc_interval: int = 1,
    step_limit: int = DEFAULT_STEP_LIMIT,
    answer_limit: int = 200,
    engine: str = "delta",
    meter: str = "exact",
    budget: Optional[int] = None,
    trace=None,
    metrics=None,
    blame=None,
    retention=None,
) -> Consumption:
    """Measure the Definition 23 space consumption of running
    *program* on *argument* under the named reference implementation.

    Every metering option — ``engine``, ``meter``, ``budget`` and the
    telemetry stack (``trace``/``metrics``/``blame``/``retention``) —
    goes straight to :func:`repro.space.meter.run_metered`, which picks
    the schedule."""
    machine = (
        make_machine(machine_name, policy=policy)
        if policy is not None
        else make_machine(machine_name)
    )
    result = run_metered(
        machine,
        prepare_program(program),
        prepare_input(argument),
        linked=linked,
        fixed_precision=fixed_precision,
        gc_interval=gc_interval,
        step_limit=step_limit,
        engine=engine,
        meter=meter,
        budget=budget,
        trace=trace,
        metrics=metrics,
        blame=blame,
        retention=retention,
    )
    return Consumption(
        machine=machine_name,
        total=result.consumption,
        sup_space=result.sup_space,
        program_size=result.program_size,
        steps=result.steps,
        answer=answer_string(result.final, answer_limit),
        linked=linked,
        fixed_precision=fixed_precision,
        meter_stats=result.meter_stats or None,
    )


def space_consumption(
    machine_name: str,
    program: Source,
    argument: Optional[Source] = None,
    **options,
) -> int:
    """S_X(P, D) — or U_X(P, D) with ``linked=True`` — as a number."""
    return measure(machine_name, program, argument, **options).total


def measure_all(
    program: Source,
    argument: Optional[Source] = None,
    machines: Iterable[str] = tuple(REFERENCE_MACHINES),
    **options,
) -> Dict[str, Consumption]:
    """Measure every named machine on the same (P, D) with matched
    policies (each machine gets a fresh policy of the same seed)."""
    program_expr = prepare_program(program)
    argument_expr = prepare_input(argument)
    return {
        name: measure(name, program_expr, argument_expr, **options)
        for name in machines
    }


def sweep(
    machine_name: str,
    program_for: "callable",
    ns: Iterable[int],
    argument_for: Optional["callable"] = None,
    **options,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Measure S_X over a family: ``program_for(n)`` gives the program,
    ``argument_for(n)`` (default ``str(n)``) the input.  Returns
    (ns, totals) ready for :func:`repro.space.asymptotics.fit_growth`."""
    ns = tuple(ns)
    totals = []
    for n in ns:
        program = program_for(n)
        argument = argument_for(n) if argument_for is not None else str(n)
        totals.append(space_consumption(machine_name, program, argument, **options))
    return ns, tuple(totals)
