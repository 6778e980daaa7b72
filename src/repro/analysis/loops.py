"""Self-tail-loop candidates: a static audit table.

The call-graph analysis (:mod:`repro.analysis.callgraph`) proves which
calls are self tail calls: back edges that a properly tail recursive
machine runs as a loop in constant continuation space.  This module
renders them as a ranked table (``repro analyze --loops``), without
running anything.

A row per candidate lambda (one that is the target of at least one
self-tail call), ranked by self-tail site count:

- ``procedure`` — the operator name at the self-tail site(s) (or
  ``<direct>`` when the lambda calls itself as a literal operator);
- ``arity`` — the lambda's parameter count;
- ``sites`` — self-tail call sites into it (back edges);
- ``tail`` / ``calls`` — tail calls / all calls whose nearest
  enclosing lambda is the candidate (how much of the loop frame the
  back edge covers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..compiler.frontend import Source, prepare_program
from ..programs.corpus import load_corpus
from ..syntax.ast import Expr, Lambda, Var
from .callgraph import classify_calls


@dataclass(frozen=True)
class LoopCandidate:
    """One lambda targeted by self-tail calls."""

    program: str
    label: str
    arity: int
    self_tail_sites: int
    tail_calls: int
    calls: int


def _site_label(operator: Expr) -> Optional[str]:
    if isinstance(operator, Var):
        return operator.name
    return None


def loop_candidates(name: str, source: Source) -> Tuple[LoopCandidate, ...]:
    """All self-tail-loop candidates of one program, ranked."""
    program = prepare_program(source)
    per_lambda: Dict[int, List] = {}
    lambdas: Dict[int, Lambda] = {}
    for cc in classify_calls(program):
        if not cc.is_self_tail:
            continue
        key = id(cc.target)
        lambdas[key] = cc.target
        per_lambda.setdefault(key, []).append(cc)
    # Per-lambda body statistics: every call whose nearest enclosing
    # lambda is the candidate (the loop frame proper — calls under a
    # nested lambda run in their own frame, not the loop's).
    inside: Dict[int, List] = {key: [] for key in per_lambda}
    if per_lambda:
        for cc in classify_calls(program):
            key = id(cc.enclosing)
            if key in inside:
                inside[key].append(cc)
    rows = []
    for key, sites in per_lambda.items():
        lam = lambdas[key]
        label = "<direct>"
        for cc in sites:
            site = _site_label(cc.call.operator)
            if site is not None:
                label = site
                break
        body = inside.get(key, sites)
        rows.append(
            LoopCandidate(
                program=name,
                label=label,
                arity=len(lam.params),
                self_tail_sites=len(sites),
                tail_calls=sum(1 for cc in body if cc.is_tail),
                calls=len(body),
            )
        )
    rows.sort(key=lambda row: (-row.self_tail_sites, row.label))
    return tuple(rows)


def corpus_loop_candidates() -> Tuple[LoopCandidate, ...]:
    """Candidates across the whole bundled corpus, corpus order."""
    rows: List[LoopCandidate] = []
    for program in load_corpus():
        rows.extend(loop_candidates(program.name, program.source))
    return tuple(rows)


def loops_table(rows: Optional[Iterable[LoopCandidate]] = None) -> str:
    """Render the candidates as an aligned text table, ranked by
    self-tail site count across all programs."""
    if rows is None:
        rows = corpus_loop_candidates()
    rows = sorted(rows, key=lambda r: (-r.self_tail_sites, r.program, r.label))
    header = (
        f"{'program':<14} {'procedure':<16} {'arity':>5} {'sites':>5} "
        f"{'tail':>5} {'calls':>5}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.program:<14} {row.label:<16} {row.arity:>5} "
            f"{row.self_tail_sites:>5} {row.tail_calls:>5} {row.calls:>5}"
        )
    if not rows:
        lines.append("(no self-tail-loop candidates)")
    lines.append(f"{len(rows)} candidate(s)")
    return "\n".join(lines)
