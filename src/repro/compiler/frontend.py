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
:func:`compiled_program` keeps a process's most recently used
programs compiled, so a sweep worker or a serve worker that meets a
program again skips the front end.

The validation rule (:func:`repro.syntax.validate.validate`'s
default): free variables must be bound in rho_0, and constants must be
atomic, the empty list and strings included — strings are immutable
here (there is no ``string-set!``), so sharing one is harmless.
``strict=True`` applies section 12 to the letter instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Union

from ..machine.primitives import primitive_names
from ..syntax.ast import Expr
from ..syntax.expander import expand_expression, expand_program
from ..syntax.validate import validate
from .prepass import annotate

Source = Union[str, Expr]

#: Programs :func:`compiled_program` keeps per process, and the
#: default size of serve's artifact cache.
DEFAULT_CAPACITY = 64

#: stripped source text -> compiled program, least recently used
#: first.  Keyed on the text itself, which :func:`program_sha` hashes:
#: hashing it here would load hashlib into every sweep worker.
_COMPILED: "OrderedDict[str, Expr]" = OrderedDict()


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


def compiled_program(source: str,
                     build: Optional[Callable[[], Expr]] = None) -> Expr:
    """The compiled program for source text *source*, built once per
    process while it stays among the :data:`DEFAULT_CAPACITY` most
    recently used: by *build* (serve hydrating an artifact) or by
    :func:`prepare_program`.  A build that raises caches nothing."""
    key = source.strip()
    program = _COMPILED.get(key)
    if program is None:
        program = build() if build is not None else prepare_program(source)
        _COMPILED[key] = program
        if len(_COMPILED) > DEFAULT_CAPACITY:
            _COMPILED.popitem(last=False)
    else:
        _COMPILED.move_to_end(key)
    return program


def clear_compiled() -> None:
    """Drop this process's compiled programs (testing hygiene)."""
    _COMPILED.clear()


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
