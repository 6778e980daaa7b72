"""The front end: one way from source text to a compiled program.

:func:`prepare_program` reads, expands, validates and lowers a
program; :func:`prepare_input` does the same for an input D.  Every
entry point that runs, lowers or analyzes a program gets it from
here — ``repro run``, the meter, ``repro trace``, ``repro serve``, the
analyses, the CPS converter and the denotational semantics — so they
all accept and reject the same programs.

A compiled program is its own expanded tree: the prepass keeps every
plan, address and quote value on the nodes it describes
(:mod:`repro.compiler.prepass`), and all of it is freed with the tree.
An artifact is that tree pickled (:mod:`repro.serving.artifacts`).

The validation rule (:func:`repro.syntax.validate.validate`'s
default): free variables must be bound in rho_0, and constants must be
atomic, the empty list and strings included — strings are immutable
here (there is no ``string-set!``), so sharing one is harmless.
``strict=True`` applies section 12 to the letter instead.
"""

from __future__ import annotations

from typing import Optional, Union

from ..machine.primitives import primitive_names
from ..syntax.ast import Expr
from ..syntax.expander import expand_expression, expand_program
from ..syntax.validate import validate
from .prepass import annotate

Source = Union[str, Expr]


def program_sha(source: str) -> str:
    """The content address of a program: sha256 of its stripped source."""
    # Imported on first use: hashlib loads OpenSSL, about 3.5 MB of
    # resident memory that only serving and sweep history need.
    import hashlib

    return hashlib.sha256(source.strip().encode("utf-8")).hexdigest()


def prepare_program(source: Source, strict: bool = False) -> Expr:
    """The compiled program for *source*: source text, an expanded
    tree, or an already compiled program (returned as it is)."""
    program = source if isinstance(source, Expr) else expand_program(source)
    return _lower(program, strict)


def prepare_input(source: Optional[Source], strict: bool = False
                  ) -> Optional[Expr]:
    """The compiled input D for *source* (None stays None)."""
    if source is None:
        return None
    expr = source if isinstance(source, Expr) else expand_expression(source)
    return _lower(expr, strict)


def _lower(expr: Expr, strict: bool) -> Expr:
    """Validate *expr* and run the prepass over it.  A tree the prepass
    has already lowered — here, in :meth:`Machine.inject`, or in
    another process before it was pickled — is returned as it is,
    unless *strict* asks for the letter of section 12."""
    if expr.annotated and not strict:
        return expr
    validate(expr, primitive_names(), strict=strict)
    return annotate(expr)
