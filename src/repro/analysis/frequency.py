"""Figure 2: static frequency of tail calls.

For every corpus program (and any user-supplied source) this module
counts, per Definitions 1-2 and the known-closure analysis:

- total procedure-call sites,
- non-tail calls,
- tail calls,
- tail calls to known closures (Figure 2's "self-tail" column for
  Scheme, per its caption),
- strict self-tail calls (a tail call whose known target is the
  enclosing lambda).

The paper's observation to reproduce: tail calls are much more common
than the special case of self-tail calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..compiler.frontend import Source, prepare_program
from ..programs.corpus import load_corpus
from .callgraph import classify_calls



@dataclass(frozen=True)
class FrequencyRow:
    """Static tail-call statistics for one program."""

    name: str
    calls: int
    non_tail: int
    tail: int
    known_tail: int
    self_tail: int

    @property
    def tail_percent(self) -> float:
        return 100.0 * self.tail / self.calls if self.calls else 0.0

    @property
    def known_tail_percent(self) -> float:
        return 100.0 * self.known_tail / self.calls if self.calls else 0.0

    @property
    def self_tail_percent(self) -> float:
        return 100.0 * self.self_tail / self.calls if self.calls else 0.0


def analyze_program(name: str, source: Source) -> FrequencyRow:
    """Compute the Figure 2 row for one program."""
    calls = classify_calls(prepare_program(source))
    tail = sum(1 for c in calls if c.is_tail)
    known_tail = sum(1 for c in calls if c.is_known_tail)
    self_tail = sum(1 for c in calls if c.is_self_tail)
    return FrequencyRow(
        name=name,
        calls=len(calls),
        non_tail=len(calls) - tail,
        tail=tail,
        known_tail=known_tail,
        self_tail=self_tail,
    )


def corpus_frequencies() -> Tuple[FrequencyRow, ...]:
    """Figure 2 rows for the whole bundled corpus."""
    return tuple(
        analyze_program(program.name, program.source)
        for program in load_corpus()
    )


def total_row(rows: Iterable[FrequencyRow], name: str = "TOTAL") -> FrequencyRow:
    """Aggregate several rows (the figure's bottom line)."""
    rows = list(rows)
    return FrequencyRow(
        name=name,
        calls=sum(r.calls for r in rows),
        non_tail=sum(r.non_tail for r in rows),
        tail=sum(r.tail for r in rows),
        known_tail=sum(r.known_tail for r in rows),
        self_tail=sum(r.self_tail for r in rows),
    )


def frequency_table(rows: Optional[Iterable[FrequencyRow]] = None) -> str:
    """Render the Figure 2 table as aligned text."""
    if rows is None:
        rows = corpus_frequencies()
    rows = list(rows)
    body = rows + [total_row(rows)]
    header = (
        f"{'program':<14} {'calls':>6} {'non-tail':>9} {'tail':>6} "
        f"{'tail%':>7} {'known-tail%':>12} {'self-tail%':>11}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for row in body:
        lines.append(
            f"{row.name:<14} {row.calls:>6} {row.non_tail:>9} {row.tail:>6} "
            f"{row.tail_percent:>6.1f}% {row.known_tail_percent:>11.1f}% "
            f"{row.self_tail_percent:>10.1f}%"
        )
    return "\n".join(lines)
