"""Continuation-passing-style conversion for Core Scheme.

The IEEE standard's proper-tail-recursion requirement cites Steele's
Rabbit report [Ste78], which *explains* proper tail recursion by
CPS-converting the program: after conversion every procedure call is a
tail call, so a compiler that treats calls as gotos needs no control
stack.  This module implements that conversion (the Fischer-style
call-by-value transform) as a source-to-source pass over Core Scheme,
which lets the reproduction check Steele's account against Clinger's:

- the image of *any* program is pure CPS — statically, every closure
  call in ``cps_program(P)`` is a tail call (Definitions 1-2);
- the image computes the same observable answers (CPS conversion
  realizes the left-to-right evaluation order);
- on the properly tail recursive machine, the image of an iterative
  program still runs in constant space; but on I_gc the image is
  *worse* than the original — every call still pushes a return frame
  and pure CPS never returns until the very end, which is exactly why
  the Scheme standard demands proper tail recursion instead of hoping
  CPS-style programs survive on a stack-based implementation.

Conversion rules (k ranges over syntactic continuation variables)::

    [[c]] k                 = (k c)
    [[x]] k                 = (k x)
    [[(lambda (x...) B)]] k = (k (lambda (x... %k) [[B]] %k))
    [[(if E0 E1 E2)]] k     = [[E0]] (lambda (%v) (if %v [[E1]]k [[E2]]k))
    [[(set! x E)]] k        = [[E]] (lambda (%v)
                                      ((lambda (%t) (k %t)) (set! x %v)))
    [[(E0 E1 ...)]] k       = [[E0]] (lambda (%v0) ... (%v0 %v1 ... k))
    [[(p E1 ...)]] k        = ... (k (p %v1 ...))       p a primitive
    [[(call/cc E)]] k       = [[E]] (lambda (%f)
                                      (%f (lambda (%x %dead) (k %x)) k))

Non-variable continuations are administratively let-bound before
branching so conversion never duplicates code.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from ..machine.primitives import primitive_names
from ..syntax.ast import Call, Expr, If, Lambda, Quote, SetBang, Var
from .frontend import Source, prepare_program

#: Standard procedures that transfer control and therefore cannot be
#: applied directly in CPS code.
_CONTROL_PRIMITIVES = frozenset(
    ["call-with-current-continuation", "call/cc", "apply"]
)


class CpsError(ValueError):
    """Raised for programs the converter does not handle."""


class CpsConverter:
    """Converts Core Scheme expressions to continuation-passing style."""

    def __init__(self):
        self._counter = 0
        self._primitives: FrozenSet[str] = frozenset(primitive_names())

    def fresh(self, hint: str) -> str:
        name = f"%{hint}{self._counter}"
        self._counter += 1
        return name

    # -- public API --------------------------------------------------------

    def convert(self, expr: Expr, kont: Expr, bound: FrozenSet[str]) -> Expr:
        """[[expr]] kont, where *bound* holds the lexically bound
        names (so primitive operators can be recognized)."""
        # Leaves are copied, not shared: the source program is compiled,
        # and its nodes carry addresses derived from its own lambdas.
        if isinstance(expr, Var):
            if expr.name not in bound and expr.name in self._primitives:
                return Call((kont, self._eta_expand_primitive(expr.name)))
            return Call((kont, Var(expr.name)))
        if isinstance(expr, Quote):
            return Call((kont, Quote(expr.value)))
        if isinstance(expr, Lambda):
            kont_name = self.fresh("k")
            body = self.convert(
                expr.body,
                Var(kont_name),
                bound | frozenset(expr.params) | {kont_name},
            )
            cps_lambda = Lambda(expr.params + (kont_name,), body)
            return Call((kont, cps_lambda))
        if isinstance(expr, If):
            return self._with_named_kont(kont, lambda k: self._convert_if(
                expr, k, bound
            ))
        if isinstance(expr, SetBang):
            def build(k: Expr) -> Expr:
                value_name = self.fresh("v")
                temp_name = self.fresh("t")
                receive = Lambda(
                    (value_name,),
                    Call(
                        (
                            Lambda((temp_name,), Call((k, Var(temp_name)))),
                            SetBang(expr.name, Var(value_name)),
                        )
                    ),
                )
                return self.convert(expr.expr, receive, bound)

            return self._with_named_kont(kont, build)
        if isinstance(expr, Call):
            return self._with_named_kont(
                kont, lambda k: self._convert_call(expr, k, bound)
            )
        raise CpsError(f"not a Core Scheme expression: {expr!r}")

    # -- helpers -------------------------------------------------------------

    def _eta_expand_primitive(self, name: str) -> Expr:
        """A primitive referenced as a *value* must obey the CPS
        calling convention, so it is eta-expanded at its registered
        arity: (lambda (x1 ... %k) (%k (p x1 ...))).

        Variadic primitives cannot be wrapped at a single arity in a
        core language without rest parameters; call/cc and apply could
        never be wrapped at all."""
        from ..machine.primitives import _REGISTRY

        if name in _CONTROL_PRIMITIVES:
            raise CpsError(
                f"{name} cannot be passed as a value through CPS conversion"
            )
        arity = _REGISTRY[name].arity
        if arity is None or arity[0] != arity[1]:
            raise CpsError(
                f"variadic primitive {name} cannot be passed as a value "
                "through CPS conversion (wrap it in a lambda of fixed arity)"
            )
        params = tuple(self.fresh("x") for _ in range(arity[0]))
        kont_name = self.fresh("k")
        body = Call(
            (Var(kont_name), Call((Var(name),) + tuple(Var(p) for p in params)))
        )
        return Lambda(params + (kont_name,), body)

    def _with_named_kont(self, kont: Expr, build) -> Expr:
        """Bind a non-trivial continuation to a variable so the builder
        may mention it several times without duplicating code."""
        if isinstance(kont, Var):
            return build(kont)
        name = self.fresh("k")
        return Call((Lambda((name,), build(Var(name))), kont))

    def _convert_if(self, expr: If, k: Var, bound: FrozenSet[str]) -> Expr:
        test_name = self.fresh("v")
        branch = If(
            Var(test_name),
            self.convert(expr.consequent, k, bound),
            self.convert(expr.alternative, k, bound),
        )
        receive = Lambda((test_name,), branch)
        return self.convert(expr.test, receive, bound | {test_name})

    def _is_primitive_operator(
        self, operator: Expr, bound: FrozenSet[str]
    ) -> Optional[str]:
        if (
            isinstance(operator, Var)
            and operator.name not in bound
            and operator.name in self._primitives
        ):
            return operator.name
        return None

    def _convert_call(self, expr: Call, k: Var, bound: FrozenSet[str]) -> Expr:
        primitive = self._is_primitive_operator(expr.operator, bound)
        if primitive in _CONTROL_PRIMITIVES:
            return self._convert_control(primitive, expr, k, bound)

        names = [self.fresh("v") for _ in expr.exprs]
        if primitive is not None:
            # Direct application: primitives return, so the original
            # operator is kept and the result is passed to k.
            final: Expr = Call(
                (k, Call((expr.operator,) + tuple(Var(n) for n in names[1:])))
            )
            to_convert = list(enumerate(expr.exprs))[1:]
        else:
            final = Call(tuple(Var(n) for n in names) + (k,))
            to_convert = list(enumerate(expr.exprs))

        body = final
        for index, sub in reversed(to_convert):
            receive = Lambda((names[index],), body)
            body = self.convert(sub, receive, bound)
        return body

    def _convert_control(
        self, primitive: str, expr: Call, k: Var, bound: FrozenSet[str]
    ) -> Expr:
        if primitive in ("call-with-current-continuation", "call/cc"):
            if len(expr.operands) != 1:
                raise CpsError("call/cc takes exactly one argument")
            value_name = self.fresh("x")
            dead_name = self.fresh("dead")
            escape = Lambda(
                (value_name, dead_name), Call((k, Var(value_name)))
            )
            function_name = self.fresh("f")
            receive = Lambda(
                (function_name,),
                Call((Var(function_name), escape, k)),
            )
            return self.convert(expr.operands[0], receive, bound)
        raise CpsError(
            f"{primitive} cannot be CPS-converted by this transform"
        )


def cps_expression(expr: Expr, kont: Expr) -> Expr:
    """Convert one Core Scheme expression against a continuation
    expression (no names considered bound)."""
    return CpsConverter().convert(expr, kont, frozenset())


def cps_program(program: Source) -> Expr:
    """CPS-convert a whole program, preserving the run convention.

    The input denotes a one-argument procedure; the output is again a
    Core Scheme expression denoting a one-argument procedure, whose
    body runs the CPS image of the original under the identity top
    continuation — so ``run(cps_program(P), D)`` and S_X measurements
    work unchanged.
    """
    program_expr = prepare_program(program)
    converter = CpsConverter()
    argument_name = converter.fresh("arg")
    function_name = converter.fresh("fn")
    identity_name = converter.fresh("id")
    identity = Lambda((identity_name,), Var(identity_name))
    # [[P]] (lambda (%fn) <wrapper>) where wrapper = a direct-style
    # one-argument procedure calling the CPS closure.
    wrapper = Lambda(
        (argument_name,),
        Call((Var(function_name), Var(argument_name), identity)),
    )
    receive = Lambda((function_name,), wrapper)
    # The outer conversion result is an expression that *evaluates to*
    # the wrapper... no: [[P]] receive applies receive to the converted
    # procedure, and receive returns the wrapper — so the whole
    # expression evaluates to the wrapper, a plain 1-ary procedure.
    return converter.convert(program_expr, receive, frozenset())
