"""Free-variable computation FV(E) for Core Scheme.

Used by the I_free and I_sfs reference implementations (section 10),
whose rules restrict environments to the free variables of the
expressions that remain to be evaluated.

FV(E) is cached on the node it describes (:func:`repro.syntax.ast.derive`),
so every query of a node returns the *same* frozenset object: the
stepper's pre-pass (``repro.compiler.prepass``) warms the caches once
per program, the per-step restriction rules of I_free/I_sfs reduce to
attribute reads, and the interned sets carry their cached frozenset
hashes into the memoized :meth:`Environment.restrict`.  The sets live
and die with the tree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable

from .ast import Call, Expr, If, Lambda, Quote, SetBang, Var, derive


def free_vars(expr: Expr) -> FrozenSet[str]:
    """Return FV(expr) as a frozen set of identifier names, computed
    once per node."""
    fv = expr.fv
    if fv is not None:
        return fv
    if isinstance(expr, Quote):
        fv = frozenset()
    elif isinstance(expr, Var):
        fv = frozenset((expr.name,))
    elif isinstance(expr, Lambda):
        fv = free_vars(expr.body) - frozenset(expr.params)
    elif isinstance(expr, If):
        fv = (
            free_vars(expr.test)
            | free_vars(expr.consequent)
            | free_vars(expr.alternative)
        )
    elif isinstance(expr, SetBang):
        fv = free_vars(expr.expr) | frozenset((expr.name,))
    elif isinstance(expr, Call):
        fv = free_vars_of_all(expr.exprs)
    else:
        raise TypeError(f"not a Core Scheme expression: {expr!r}")
    return derive(expr, "fv", fv)


def free_vars_of_all(exprs: Iterable[Expr]) -> FrozenSet[str]:
    """Union of FV over several expressions (e.g. the pending operands
    of a push continuation).  A fresh set per call: the stepper reads
    the interned sets of its call plans instead."""
    result: FrozenSet[str] = frozenset()
    for expr in exprs:
        result |= free_vars(expr)
    return result


def branch_free_vars(consequent: Expr, alternative: Expr) -> FrozenSet[str]:
    """FV(consequent) | FV(alternative) — the name set I_sfs's select
    rule restricts to — interned on the consequent, beside the
    alternative it was paired with."""
    cached = getattr(consequent, "branch_fv", None)
    if cached is not None and cached[0] is alternative:
        return cached[1]
    fv = free_vars(consequent) | free_vars(alternative)
    derive(consequent, "branch_fv", (alternative, fv))
    return fv


@lru_cache(maxsize=None)
def name_set(name: str) -> FrozenSet[str]:
    """The singleton {name}, interned — I_sfs's assign restriction."""
    return frozenset((name,))
