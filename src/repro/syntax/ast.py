"""Core Scheme internal syntax (Figure 1 of the paper).

::

    E ::= (quote c)            constants
        | I                    variable references
        | L                    lambda expressions
        | (if E0 E1 E2)        conditional expressions
        | (set! I E0)          assignments
        | (E0 E1 ...)          procedure calls
    L ::= (lambda (I1 ...) E)

AST nodes use *identity* equality (``eq=False``) so that two textually
identical subexpressions at different positions remain distinct; the
tail-expression analysis and the call-site statistics of Figure 2
depend on this.

Nodes are frozen, but every pass that derives data from a node keeps
it on that node (:func:`derive`), the way
:func:`functools.cached_property` does: free-variable sets, call plans,
lexical addresses, quote values, blame labels.  The
derived data therefore lives exactly as long as its tree, and pickling
the tree carries it.  The class attributes declared below are the
"not derived yet" defaults of the ones the stepper reads on every
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple, Union

from ..reader.datum import Char, Symbol, datum_to_string

#: Constants that may appear under ``quote`` in validated programs.
#: Section 12 forbids compound constants (vectors, strings, nonempty
#: lists) because programs and inputs must not share storage.  The
#: empty list is an immediate value; strings pass the validator's
#: default rule (they are immutable here) and fail its strict one.
Constant = Union[bool, int, Symbol, Char, str, tuple]


@dataclass(frozen=True, eq=False)
class Expr:
    """Base class for Core Scheme expressions."""

    #: FV(E), interned (:mod:`repro.syntax.free_vars`).
    fv = None
    #: True on a root the prepass has lowered
    #: (:func:`repro.compiler.prepass.annotate`).
    annotated = False

    def subexpressions(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True, eq=False)
class Quote(Expr):
    """``(quote c)`` — evaluates to the constant ``c``."""

    value: Constant

    #: The interned runtime value (:func:`repro.compiler.prepass.quote_value`).
    const = None


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A variable reference ``I``."""

    name: str

    #: The gen-2 lexical address, or None for a named lookup
    #: (:func:`repro.compiler.prepass.annotate`).
    addr = None


@dataclass(frozen=True, eq=False)
class Lambda(Expr):
    """``(lambda (I1 ...) E)`` — a lambda expression with one body."""

    params: Tuple[str, ...]
    body: Expr

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate parameter in {self.params}")

    def subexpressions(self) -> Tuple[Expr, ...]:
        return (self.body,)


@dataclass(frozen=True, eq=False)
class If(Expr):
    """``(if E0 E1 E2)`` — a three-armed conditional."""

    test: Expr
    consequent: Expr
    alternative: Expr

    #: The fused test's plan (:func:`repro.compiler.prepass.if_test_plan`).
    test_plan = None

    def subexpressions(self) -> Tuple[Expr, ...]:
        return (self.test, self.consequent, self.alternative)


@dataclass(frozen=True, eq=False)
class SetBang(Expr):
    """``(set! I E0)`` — assignment to a bound variable."""

    name: str
    expr: Expr

    def subexpressions(self) -> Tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True, eq=False)
class Call(Expr):
    """``(E0 E1 ...)`` — a procedure call.

    ``exprs[0]`` is the operator, the rest are operands; the machine
    evaluates a (policy-chosen) permutation of the whole sequence, as
    in the paper's push rule.
    """

    exprs: Tuple[Expr, ...] = field(default_factory=tuple)

    #: The left-to-right CallPlan (:func:`repro.compiler.prepass.call_plan`).
    identity_plan = None

    def __post_init__(self):
        if not self.exprs:
            raise ValueError("a call needs at least an operator")

    @property
    def operator(self) -> Expr:
        return self.exprs[0]

    @property
    def operands(self) -> Tuple[Expr, ...]:
        return self.exprs[1:]

    def subexpressions(self) -> Tuple[Expr, ...]:
        return self.exprs


def derive(node: Expr, name: str, value):
    """Cache *value* on *node* as its derived attribute *name* and
    return it.  Nodes are frozen, so this goes through
    ``object.__setattr__`` (never ``node.__dict__``, which would turn
    the node's inline attribute values into a dict and slow every later
    read)."""
    object.__setattr__(node, name, value)
    return value


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and every subexpression, preorder."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.subexpressions()))


def ast_size(expr: Expr) -> int:
    """The number of nodes in the abstract syntax tree (the |P| of
    Definition 23)."""
    return sum(1 for _ in walk(expr))


def unparse(expr: Expr):
    """Render a Core Scheme AST back to a datum tree (for debugging,
    tests, and reports)."""
    if isinstance(expr, Quote):
        return (Symbol("quote"), expr.value)
    if isinstance(expr, Var):
        return Symbol(expr.name)
    if isinstance(expr, Lambda):
        params = tuple(Symbol(p) for p in expr.params)
        return (Symbol("lambda"), params, unparse(expr.body))
    if isinstance(expr, If):
        return (
            Symbol("if"),
            unparse(expr.test),
            unparse(expr.consequent),
            unparse(expr.alternative),
        )
    if isinstance(expr, SetBang):
        return (Symbol("set!"), Symbol(expr.name), unparse(expr.expr))
    if isinstance(expr, Call):
        return tuple(unparse(e) for e in expr.exprs)
    raise TypeError(f"not a Core Scheme expression: {expr!r}")


def core_to_string(expr: Expr) -> str:
    """Render a Core Scheme AST to external syntax."""
    return datum_to_string(unparse(expr))
