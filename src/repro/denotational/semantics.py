"""A continuation-style denotational semantics for Core Scheme.

Section 16 (Future Work): "The reference implementations described
here can be related to the denotational semantics of Scheme by proving
that every answer that is computed by the denotational semantics is
computed by the reference implementations."

This module provides the denotational side: the meaning of an
expression is a function

    E[[expr]] : Env -> K -> C        K = Value -> C,  C = Store -> A

realized with Python closures.  Command continuations are trampolined
(every C returns either a final Answer or a thunk), so deeply
recursive and CPS-heavy programs evaluate without touching Python's
stack limit.  The equivalence half of the section 16 conjecture is
checked empirically by the test suite: the denotational answer equals
the machines' observable answer on the corpus and on random programs.

Values, the store, and the standard procedures are shared with the
machine semantics; only control is denotational.  `call/cc` captures
the current expression continuation as a :class:`DenotationalEscape`.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..machine.environment import Environment
from ..machine.errors import (
    ArityError,
    NotAProcedureError,
    StepLimitExceeded,
    UnboundVariableError,
)
from ..machine.policy import LeftToRight, Policy
from ..machine.primitives import make_initial_environment
from ..machine.store import Store
from ..machine.values import (
    Closure,
    Primop,
    UNDEFINED,
    UNSPECIFIED,
    Value,
    constant_value,
    is_true,
)
from ..syntax.ast import Call, Expr, If, Lambda, Quote, SetBang, Var


from ..machine.values import Escape


class DenotationalEscape(Escape):
    """A continuation captured by call/cc: wraps the Python-level
    expression continuation.  Subclassing the machine's Escape keeps
    ``procedure?``, ``eqv?`` (tag identity), and the answer printer
    working unchanged."""

    __slots__ = ()

    def __init__(self, tag: int, kont: Callable):
        super().__init__(tag, kont)

    def __repr__(self) -> str:
        return f"DENOTATIONAL-ESCAPE:(tag={self.tag})"


class _Answer:
    """The final answer of a command continuation."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


Bounce = Union[_Answer, Callable]


class _Shim:
    """The 'machine' argument handed to ordinary primitives: they only
    consult the evaluation policy (for (random n))."""

    def __init__(self, policy: Policy):
        self.policy = policy


class DenotationalEvaluator:
    """Evaluates Core Scheme by its denotational meaning."""

    def __init__(self, policy: Optional[Policy] = None):
        self.policy = policy if policy is not None else LeftToRight()
        self._shim = _Shim(self.policy)

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        program: Expr,
        argument: Optional[Expr] = None,
        step_limit: int = 10_000_000,
        trim_globals: bool = True,
    ):
        """Return (value, store) — the denotational answer of running
        ``(program argument)`` from the standard initial environment."""
        from ..syntax.free_vars import free_vars

        store = Store()
        names = None
        if trim_globals:
            names = set(free_vars(program))
            if argument is not None:
                names |= free_vars(argument)
        env = make_initial_environment(store, names)
        self.policy.reset()
        expr = Call((program, argument)) if argument is not None else program

        bounce: Bounce = self._eval(expr, env, store, _Answer)
        remaining = step_limit
        while not isinstance(bounce, _Answer):
            bounce = bounce()
            remaining -= 1
            if remaining <= 0:
                raise StepLimitExceeded(step_limit)
        return bounce.value, store

    # -- E[[expr]] -----------------------------------------------------------

    def _eval(
        self, expr: Expr, env: Environment, store: Store, kont: Callable
    ) -> Bounce:
        if isinstance(expr, Quote):
            return lambda: kont(constant_value(expr.value))
        if isinstance(expr, Var):
            location = env.lookup(expr.name)
            if location is None or location not in store:
                raise UnboundVariableError(f"unbound variable: {expr.name}")
            value = store.read(location)
            if value is UNDEFINED:
                raise UnboundVariableError(
                    f"variable {expr.name} read before initialization"
                )
            return lambda: kont(value)
        if isinstance(expr, Lambda):
            tag = store.alloc(UNSPECIFIED)
            return lambda: kont(Closure(tag, expr, env))
        if isinstance(expr, If):
            def select(test_value: Value) -> Bounce:
                branch = (
                    expr.consequent if is_true(test_value) else expr.alternative
                )
                return self._eval(branch, env, store, kont)

            return self._eval(expr.test, env, store, select)
        if isinstance(expr, SetBang):
            def assign(value: Value) -> Bounce:
                location = env.lookup(expr.name)
                if location is None or location not in store:
                    raise UnboundVariableError(
                        f"assignment to unbound variable: {expr.name}"
                    )
                store.write(location, value)
                return lambda: kont(UNSPECIFIED)

            return self._eval(expr.expr, env, store, assign)
        if isinstance(expr, Call):
            order = self.policy.permutation(len(expr.exprs))
            values: list = [None] * len(expr.exprs)

            def eval_at(position: int) -> Bounce:
                if position == len(order):
                    return self._apply(
                        values[0], tuple(values[1:]), store, kont
                    )
                index = order[position]

                def receive(value: Value) -> Bounce:
                    values[index] = value
                    return eval_at(position + 1)

                return self._eval(expr.exprs[index], env, store, receive)

            return eval_at(0)
        raise NotAProcedureError(f"not a Core Scheme expression: {expr!r}")

    # -- application ---------------------------------------------------------

    def _apply(
        self, operator: Value, args, store: Store, kont: Callable
    ) -> Bounce:
        if isinstance(operator, Closure):
            params = operator.lam.params
            if len(params) != len(args):
                raise ArityError(
                    f"procedure expects {len(params)} arguments, "
                    f"got {len(args)}"
                )
            locations = store.alloc_many(args)
            body_env = operator.env.extend(params, locations)
            return lambda: self._eval(
                operator.lam.body, body_env, store, kont
            )
        if isinstance(operator, DenotationalEscape):
            if len(args) != 1:
                raise ArityError(
                    f"escape procedure expects 1 argument, got {len(args)}"
                )
            captured = operator.kont
            return lambda: captured(args[0])
        if isinstance(operator, Primop):
            if operator.arity is not None:
                low, high = operator.arity
                if len(args) < low or (high is not None and len(args) > high):
                    raise ArityError(
                        f"{operator.name}: bad argument count {len(args)}"
                    )
            if operator.controls:
                return self._apply_control(operator, args, store, kont)
            result = operator.proc(self._shim, store, args)
            return lambda: kont(result)
        raise NotAProcedureError(f"not a procedure: {operator!r}")

    def _apply_control(
        self, operator: Primop, args, store: Store, kont: Callable
    ) -> Bounce:
        if operator.name in ("call-with-current-continuation", "call/cc"):
            escape = DenotationalEscape(store.alloc(UNSPECIFIED), kont)
            return self._apply(args[0], (escape,), store, kont)
        if operator.name == "apply":
            from ..machine.primitives import list_values

            spread = list(args[1:-1])
            spread.extend(list_values(store, args[-1], "apply"))
            return self._apply(args[0], tuple(spread), store, kont)
        raise NotAProcedureError(
            f"control primitive not supported denotationally: {operator.name}"
        )


def denotational_answer(
    program, argument=None, policy: Optional[Policy] = None, limit: int = 10000
) -> str:
    """The observable answer of the denotational semantics, rendered
    with the same Definition 11 printer the machines use."""
    from ..machine.answer import answer_string
    from ..machine.config import Final
    from ..compiler.frontend import prepare_input, prepare_program

    evaluator = DenotationalEvaluator(policy=policy)
    value, store = evaluator.evaluate(
        prepare_program(program), prepare_input(argument)
    )
    return answer_string(Final(value, store), limit)
