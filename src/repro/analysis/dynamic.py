"""Dynamic tail-call census: the runtime complement of Figure 2.

Figure 2 reports *static* frequency — how many call sites are tail
calls.  The dynamic census counts how many *executed* calls are tail
calls, by stepping a reference machine and attributing every
application (the value-with-call-continuation transition) to its
syntactic call site.  Dynamic numbers are usually far more
tail-heavy than static ones: loops execute their tail call once per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..compiler.frontend import Source, prepare_input, prepare_program
from ..machine.config import Final
from ..machine.continuation import CallK
from ..machine.errors import StepLimitExceeded
from ..machine.machine import Machine
from ..machine.values import Closure, Escape, Primop
from ..machine.variants import make_machine
from ..syntax.tail import call_sites



@dataclass
class DynamicCensus:
    """Counts of executed calls, bucketed like Figure 2."""

    name: str
    calls: int = 0
    tail_calls: int = 0
    self_tail_calls: int = 0
    closure_calls: int = 0
    primitive_calls: int = 0
    escape_calls: int = 0
    steps: int = 0
    per_site: Dict[int, int] = field(default_factory=dict)

    @property
    def non_tail_calls(self) -> int:
        return self.calls - self.tail_calls

    @property
    def tail_percent(self) -> float:
        return 100.0 * self.tail_calls / self.calls if self.calls else 0.0

    @property
    def self_tail_percent(self) -> float:
        return (
            100.0 * self.self_tail_calls / self.calls if self.calls else 0.0
        )


def run_census(
    program: Source,
    argument: Optional[Source] = None,
    machine: str = "tail",
    name: str = "program",
    step_limit: int = 2_000_000,
) -> DynamicCensus:
    """Run *program* and count every executed call, classified by the
    static tailness of its call site (Definitions 1-2) and by whether
    it invokes the lambda it occurs in (a dynamic self tail call)."""
    program_expr = prepare_program(program)
    argument_expr = prepare_input(argument)

    sites = {
        id(site.call): site
        for site in call_sites(program_expr)
    }

    engine: Machine = make_machine(machine)
    state = engine.inject(program_expr, argument_expr)
    census = DynamicCensus(name=name)

    while True:
        if state.is_value and isinstance(state.kont, CallK):
            census.calls += 1
            operator = state.control
            site = sites.get(id(state.kont.site))
            is_tail = site.is_tail if site is not None else False
            if is_tail:
                census.tail_calls += 1
            if isinstance(operator, Closure):
                census.closure_calls += 1
                if (
                    is_tail
                    and site is not None
                    and site.enclosing is operator.lam
                ):
                    census.self_tail_calls += 1
            elif isinstance(operator, Primop):
                census.primitive_calls += 1
            elif isinstance(operator, Escape):
                census.escape_calls += 1
            if state.kont.site is not None:
                key = id(state.kont.site)
                census.per_site[key] = census.per_site.get(key, 0) + 1
        configuration = engine.step(state)
        census.steps += 1
        if isinstance(configuration, Final):
            return census
        state = configuration
        if census.steps >= step_limit:
            raise StepLimitExceeded(census.steps)


def corpus_dynamic_census(machine: str = "tail") -> Tuple[DynamicCensus, ...]:
    """The dynamic census over the bundled corpus."""
    from ..programs.corpus import load_corpus

    return tuple(
        run_census(
            program.source,
            program.default_input,
            machine=machine,
            name=program.name,
        )
        for program in load_corpus()
    )


def dynamic_census_table(rows=None) -> str:
    """Render the dynamic census as an aligned table."""
    if rows is None:
        rows = corpus_dynamic_census()
    rows = list(rows)
    header = (
        f"{'program':<14} {'calls':>8} {'tail':>8} {'tail%':>7} "
        f"{'self-tail%':>11} {'closure':>8} {'primitive':>10}"
    )
    lines = [header, "-" * len(header)]
    total = DynamicCensus(name="TOTAL")
    for row in rows:
        total.calls += row.calls
        total.tail_calls += row.tail_calls
        total.self_tail_calls += row.self_tail_calls
        total.closure_calls += row.closure_calls
        total.primitive_calls += row.primitive_calls
        lines.append(
            f"{row.name:<14} {row.calls:>8} {row.tail_calls:>8} "
            f"{row.tail_percent:>6.1f}% {row.self_tail_percent:>10.1f}% "
            f"{row.closure_calls:>8} {row.primitive_calls:>10}"
        )
    lines.append(
        f"{total.name:<14} {total.calls:>8} {total.tail_calls:>8} "
        f"{total.tail_percent:>6.1f}% {total.self_tail_percent:>10.1f}% "
        f"{total.closure_calls:>8} {total.primitive_calls:>10}"
    )
    return "\n".join(lines)
