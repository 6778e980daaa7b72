"""Well-formedness checks for Programs and Inputs (section 12).

Section 12 of the paper: "Let Program and Input both denote the set of
Core Scheme expressions that contain no locations, and whose free
variables are bound in rho_0.  ...  The easiest way to ensure this is
to forbid vector, string, and list constants."

ASTs built by the expander never contain locations, so the validator
checks the two remaining conditions:

- every quoted constant is atomic (booleans, exact integers, symbols,
  characters, the empty list, and — except in strict mode — strings);
- every free variable is bound in the supplied global environment.

The default is the one rule every entry point applies through the
front end (:mod:`repro.compiler.frontend`).
"""

from __future__ import annotations

from typing import Iterable

from ..reader.datum import Char, Symbol
from .ast import Expr, Quote, walk
from .free_vars import free_vars


class ValidationError(ValueError):
    """Raised when an expression is not a valid Program or Input."""


_ATOMIC = (bool, int, Symbol, Char)


def validate(
    expr: Expr, global_names: Iterable[str], strict: bool = False
) -> Expr:
    """Check that *expr* is a valid Program/Input expression.

    Returns *expr* so the call composes with pipelines.  String
    constants are allowed: strings are immutable here (there is no
    ``string-set!``), so sharing one is harmless.  ``strict``
    additionally rejects them, matching the letter of section 12.
    """
    bound = frozenset(global_names)
    unbound = sorted(free_vars(expr) - bound)
    if unbound:
        raise ValidationError(
            "free variables not bound in the initial environment: "
            + ", ".join(unbound)
        )
    for node in walk(expr):
        if isinstance(node, Quote):
            value = node.value
            if isinstance(value, _ATOMIC) or value == ():
                # The empty list is an immediate value (NIL) in this
                # reproduction: it allocates nothing and shares no
                # storage, so it is safe even in strict mode.
                continue
            if not strict and isinstance(value, str):
                continue
            raise ValidationError(
                f"compound constant forbidden by section 12: {value!r}"
            )
    return expr
