"""Reconstructable self-tail loops: the gen-3 tier's audit table.

The bytecode pass (:mod:`repro.compiler.bytecode`) turns a lambda
whose body tail-calls itself into a direct ``while``-shaped loop, and
the call-graph analysis (:mod:`repro.analysis.callgraph`) is what
proves each back edge.  This module runs that pipeline ahead of time —
classify, compile, find each self-tail site among the code's tail
calls — and renders
the result as a ranked table, so the loop-reconstruction decisions
the stepper makes at run time are auditable from the CLI
(``repro analyze --loops``) without running anything.

A row per candidate lambda (one that is the target of at least one
self-tail call), ranked by self-tail site count:

- ``procedure`` — the operator name at the self-tail site(s) (or
  ``<direct>`` when the lambda calls itself as a literal operator);
- ``arity`` — the lambda's parameter count (the loop's register
  width);
- ``sites`` — self-tail call sites into it (back edges);
- ``tail`` / ``calls`` — tail calls / all calls whose nearest
  enclosing lambda is the candidate (how much of the loop frame the
  back edge covers);
- ``compiled`` — the bytecode pass accepted the body;
- ``loop`` — the compiled code carries a self-tail site as a tail
  call, the reconstructed back edge, i.e. the candidate actually
  became a loop.

``compiled=yes, loop=no`` marks a body the pass lowers but where no
self-tail site survived lowering; ``compiled=no`` marks a declined
body (the machine falls back to the gen-2 stepper for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..compiler.bytecode import EA_TAIL, OP_CALL, gen3_code
from ..compiler.frontend import Source, prepare_program
from ..programs.corpus import load_corpus
from ..syntax.ast import Expr, Lambda, Var
from .callgraph import classify_calls


@dataclass(frozen=True)
class LoopCandidate:
    """One lambda targeted by self-tail calls, and what the bytecode
    pass made of it."""

    program: str
    label: str
    arity: int
    self_tail_sites: int
    tail_calls: int
    calls: int
    compiled: bool
    has_loop: bool

    @property
    def reconstructed(self) -> bool:
        """The candidate became a direct loop in the gen-3 tier."""
        return self.compiled and self.has_loop


def _site_label(operator: Expr) -> Optional[str]:
    if isinstance(operator, Var):
        return operator.name
    return None


def loop_candidates(name: str, source: Source) -> Tuple[LoopCandidate, ...]:
    """All self-tail-loop candidates of one program, ranked.

    Lowers each candidate exactly as the machine does once its code
    is hot, so the ``compiled``/``loop`` columns report the decisions
    the stepper itself would make.
    """
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
        code = gen3_code(lam)
        compiled = code.lower()
        calls = {cc.call for cc in sites}
        body = inside.get(key, sites)
        rows.append(
            LoopCandidate(
                program=name,
                label=label,
                arity=len(lam.params),
                self_tail_sites=len(sites),
                tail_calls=sum(1 for cc in body if cc.is_tail),
                calls=len(body),
                compiled=compiled,
                has_loop=compiled and any(
                    instr[0] == OP_CALL and instr[6] == EA_TAIL
                    and instr[1].site in calls
                    for instr in code.instrs
                ),
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
        f"{'tail':>5} {'calls':>5} {'compiled':>8} {'loop':>5}"
    )
    lines: List[str] = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.program:<14} {row.label:<16} {row.arity:>5} "
            f"{row.self_tail_sites:>5} {row.tail_calls:>5} {row.calls:>5} "
            f"{'yes' if row.compiled else 'no':>8} "
            f"{'yes' if row.has_loop else 'no':>5}"
        )
    if not rows:
        lines.append("(no self-tail-loop candidates)")
    reconstructed = sum(1 for row in rows if row.reconstructed)
    lines.append(
        f"{len(rows)} candidate(s), {reconstructed} reconstructed as loops"
    )
    return "\n".join(lines)
