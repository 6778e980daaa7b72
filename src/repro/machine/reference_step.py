"""The seed transition function, preserved verbatim as an oracle.

The live stepper (:mod:`repro.machine.machine`) is *compiled once*: it
annotates the program at inject time, dispatches through class-keyed
tables, reads interned call plans, and memoizes environment
restriction.  None of that may change a single transition — and the
way the test suite holds it to that is this module, which keeps the
seed stepper exactly as it was: isinstance ladders, per-reduction
permutation validation, tuple slicing in the push rule, fresh
free-variable unions in the I_sfs hooks, and the probe-dict
``restrict`` without memoization.

:class:`SeedStepper` and its variants quack like
:class:`~repro.machine.machine.Machine` (``inject`` / ``step`` /
``compact`` / ``apply_procedure`` / ``policy`` / ``uses_gc_rule``), so
the meter and the harness can drive either interchangeably:
``run_metered(make_seed_stepper("sfs"), ...)`` is the seed
computation, ``run_metered(make_machine("sfs"), ...)`` the compiled
one, and the lockstep suite (``tests/test_prepass_lockstep.py``)
asserts they agree state by state and number by number.  The
throughput benchmark uses the same pair for its before/after step
rates.

The gen-2 superinstruction pass (variable quickening, fused
operand/nested-primop/if-select/β transitions — DESIGN.md §7.1)
re-exercises this module without touching it: the batched-lockstep
tests replay ``run_steps`` at every small batch size against the
per-step trace produced here, and the cross-machine differential
fuzzer (``tests/test_differential_fuzz.py``) holds every machine x
stepper x engine x accounting cell to the answer this stepper
computes.

This mirrors the metering engines' ``engine="reference"`` oracle: the
optimized path is never trusted on its own word.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..syntax.ast import Call, Expr, If, Lambda, Quote, SetBang, Var
from ..syntax.free_vars import free_vars
from .config import Configuration, Final, State
from .continuation import (
    Assign,
    CallK,
    Halt,
    Kont,
    Push,
    Return,
    ReturnStack,
    Select,
)
from .environment import EMPTY_ENV, Environment
from .errors import (
    ArityError,
    NotAProcedureError,
    StuckError,
    UnboundVariableError,
)
from .gc import reachable_locations
from .machine import _arity_text
from .values import constant_value
from .policy import LeftToRight, Policy
from .store import Store
from .values import (
    Closure,
    Escape,
    Location,
    Primop,
    UNDEFINED,
    UNSPECIFIED,
    Value,
    is_true,
)
from .variants import TaggedReturn


def _seed_restrict(env: Environment, names: Iterable[str]) -> Environment:
    """The seed ``Environment.restrict``: probe-dict build on every
    call, no memoization, no superset short-circuit (reaches into the
    environment's binding dict exactly as the method did)."""
    bindings = env._bindings
    wanted = names if isinstance(names, (set, frozenset)) else frozenset(names)
    if len(wanted) >= len(bindings):
        kept = {name: loc for name, loc in bindings.items() if name in wanted}
        if len(kept) == len(bindings):
            return env
        return Environment(kept)
    return Environment(
        {name: bindings[name] for name in wanted if name in bindings}
    )


def _seed_free_vars_of_all(exprs: Tuple[Expr, ...]):
    """The seed ``free_vars_of_all``: a fresh union per call."""
    result = frozenset()
    for expr in exprs:
        result |= free_vars(expr)
    return result


class SeedStepper:
    """I_tail exactly as the seed implemented it."""

    name = "tail"
    uses_gc_rule = True

    def __init__(self, policy: Optional[Policy] = None):
        self.policy = policy if policy is not None else LeftToRight()
        # Telemetry sink, same contract as Machine.trace: None costs
        # one check per run_steps call (the loop itself is per-step
        # already, so tracing adds only the emit).
        self.trace = None

    # -- injection (seed: imports were in-function; no annotation pass) --

    def inject(
        self,
        program: Expr,
        argument: Optional[Expr] = None,
        store: Optional[Store] = None,
        global_env: Optional[Environment] = None,
        trim_globals: bool = True,
    ) -> State:
        from .primitives import make_initial_environment

        if store is None:
            store = Store()
        if global_env is None:
            names = None
            if trim_globals:
                names = set(free_vars(program))
                if argument is not None:
                    names |= free_vars(argument)
            global_env = make_initial_environment(store, names)
        expr = Call((program, argument)) if argument is not None else program
        self.policy.reset()
        return State(expr, False, global_env, Halt(), store)

    # -- the seed transition function ------------------------------------

    def step(self, state: State) -> Configuration:
        if state.is_value:
            return self._step_value(state)
        return self._step_expr(state)

    def run_steps(self, state: State, limit: int):
        """The seed run loop: one :meth:`step` call per transition
        (the driver interface the fused loop of the live stepper
        implements; here it is deliberately NOT fused, because this
        class preserves the seed's per-step costs for the before/after
        benchmark)."""
        step = self.step
        bus = self.trace
        steps = 0
        while steps < limit:
            if bus is not None:
                bus.emit_step_state(state)
            configuration = step(state)
            steps += 1
            if configuration.is_final:
                return configuration, steps
            state = configuration
        return state, steps

    def _step_expr(self, state: State) -> Configuration:
        expr = state.control
        env = state.env
        store = state.store
        if isinstance(expr, Quote):
            return state.with_value(constant_value(expr.value), env, state.kont)
        if isinstance(expr, Var):
            location = env.lookup(expr.name)
            if location is None:
                raise UnboundVariableError(f"unbound variable: {expr.name}")
            if location not in store:
                raise UnboundVariableError(
                    f"variable {expr.name} refers to an unmapped location"
                )
            value = store.read(location)
            if value is UNDEFINED:
                raise UnboundVariableError(
                    f"variable {expr.name} read before initialization"
                )
            return state.with_value(value, env, state.kont)
        if isinstance(expr, Lambda):
            closed = self.closure_env(expr, env)
            tag = store.alloc(UNSPECIFIED)
            return state.with_value(Closure(tag, expr, closed), env, state.kont)
        if isinstance(expr, If):
            saved = self.select_env(env, expr.consequent, expr.alternative)
            kont = Select(expr.consequent, expr.alternative, saved, state.kont)
            return state.with_expr(expr.test, env, kont)
        if isinstance(expr, SetBang):
            saved = self.assign_env(env, expr.name)
            kont = Assign(expr.name, saved, state.kont)
            return state.with_expr(expr.expr, env, kont)
        if isinstance(expr, Call):
            order = self.policy.permutation(len(expr.exprs))
            if sorted(order) != list(range(len(expr.exprs))):
                raise StuckError(f"policy returned a non-permutation: {order}")
            first = expr.exprs[order[0]]
            pending = tuple(expr.exprs[i] for i in order[1:])
            saved = self.call_env(env, pending)
            kont = Push(pending, (), order, saved, state.kont, site=expr)
            return state.with_expr(first, env, kont)
        raise StuckError(f"not a Core Scheme expression: {expr!r}")

    def _step_value(self, state: State) -> Configuration:
        value = state.control
        kont = state.kont
        if isinstance(kont, Halt):
            return Final(value, state.store)
        if isinstance(kont, Select):
            branch = kont.consequent if is_true(value) else kont.alternative
            return state.with_expr(branch, kont.env, kont.parent)
        if isinstance(kont, Assign):
            location = kont.env.lookup(kont.name)
            if location is None or location not in state.store:
                raise UnboundVariableError(
                    f"assignment to unbound variable: {kont.name}"
                )
            state.store.write(location, value)
            return state.with_value(UNSPECIFIED, kont.env, kont.parent)
        if isinstance(kont, Push):
            return self._step_push(state, value, kont)
        if isinstance(kont, CallK):
            return self.apply_procedure(state, value, kont.args, kont.parent)
        if isinstance(kont, ReturnStack):
            self._delete_frame(state, value, kont)
            return state.with_value(value, kont.env, kont.parent)
        if isinstance(kont, Return):
            return state.with_value(value, kont.env, kont.parent)
        raise StuckError(f"unknown continuation: {kont!r}")

    def _step_push(self, state: State, value: Value, kont: Push) -> Configuration:
        if kont.pending:
            next_expr = kont.pending[0]
            rest = kont.pending[1:]
            saved = self.push_env(kont.env, rest)
            new_kont = Push(
                rest, kont.done + (value,), kont.order, saved, kont.parent,
                site=kont.site,
            )
            return state.with_expr(next_expr, kont.env, new_kont)
        values_in_order = kont.done + (value,)
        original: list = [None] * len(values_in_order)
        for position, evaluated in zip(kont.order, values_in_order):
            original[position] = evaluated
        operator = original[0]
        args = tuple(original[1:])
        return state.with_value(
            operator, kont.env, CallK(args, kont.parent, site=kont.site)
        )

    # -- procedure application --------------------------------------------

    def apply_procedure(
        self, state: State, operator: Value, args: Tuple[Value, ...], kont: Kont
    ) -> Configuration:
        if isinstance(operator, Closure):
            return self._apply_closure(state, operator, args, kont)
        if isinstance(operator, Primop):
            return self._apply_primop(state, operator, args, kont)
        if isinstance(operator, Escape):
            if len(args) != 1:
                raise ArityError(
                    f"escape procedure expects 1 argument, got {len(args)}"
                )
            return state.with_value(args[0], EMPTY_ENV, operator.kont)
        raise NotAProcedureError(f"not a procedure: {operator!r}")

    def _apply_closure(
        self, state: State, closure: Closure, args: Tuple[Value, ...], kont: Kont
    ) -> Configuration:
        params = closure.lam.params
        if len(params) != len(args):
            raise ArityError(
                f"procedure expects {len(params)} arguments, got {len(args)}"
            )
        locations = state.store.alloc_many(args)
        body_env = closure.env.extend(params, locations)
        body_kont = self.call_frame(locations, state.env, kont)
        return state.with_expr(closure.lam.body, body_env, body_kont)

    def _apply_primop(
        self, state: State, primop: Primop, args: Tuple[Value, ...], kont: Kont
    ) -> Configuration:
        if primop.arity is not None:
            low, high = primop.arity
            if len(args) < low or (high is not None and len(args) > high):
                raise ArityError(
                    f"{primop.name} expects {_arity_text(low, high)} arguments, "
                    f"got {len(args)}"
                )
        if primop.controls:
            return primop.proc(self, state, args, kont)
        result = primop.proc(self, state.store, args)
        return state.with_value(result, state.env, kont)

    # -- the seed hooks (I_tail defaults) ----------------------------------

    def closure_env(self, lam: Lambda, env: Environment) -> Environment:
        return env

    def select_env(self, env: Environment, consequent: Expr, alternative: Expr):
        return env

    def assign_env(self, env: Environment, name: str) -> Environment:
        return env

    def call_env(self, env: Environment, pending: Tuple[Expr, ...]) -> Environment:
        return env

    def push_env(self, env: Environment, rest: Tuple[Expr, ...]) -> Environment:
        return env

    def call_frame(
        self,
        frame_locations: Tuple[Location, ...],
        caller_env: Environment,
        kont: Kont,
    ) -> Kont:
        return kont

    def compact(self, state: State) -> State:
        return state

    def _delete_frame(self, state: State, value: Value, kont: ReturnStack) -> None:
        store = state.store
        candidates = [loc for loc in kont.frame if loc in store]
        if not candidates:
            return
        live = reachable_locations(store, (value,), kont.env, kont.parent)
        deletable = [loc for loc in candidates if loc not in live]
        if deletable:
            store.delete_many(deletable)

    def __repr__(self) -> str:
        return f"<seed:{type(self).__name__} policy={self.policy!r}>"


class SeedGc(SeedStepper):
    name = "gc"

    def call_frame(self, frame_locations, caller_env, kont):
        return Return(caller_env, kont)


class SeedStack(SeedStepper):
    name = "stack"
    uses_gc_rule = False

    def call_frame(self, frame_locations, caller_env, kont):
        return ReturnStack(frame_locations, caller_env, kont)


class SeedEvlis(SeedStepper):
    name = "evlis"

    def call_env(self, env, pending):
        if not pending:
            return EMPTY_ENV
        return env

    def push_env(self, env, rest):
        if not rest:
            return EMPTY_ENV
        return env


class SeedFree(SeedStepper):
    name = "free"

    def closure_env(self, lam, env):
        return _seed_restrict(env, free_vars(lam))


class SeedSfs(SeedStepper):
    name = "sfs"

    def closure_env(self, lam, env):
        return _seed_restrict(env, free_vars(lam))

    def select_env(self, env, consequent, alternative):
        return _seed_restrict(env, free_vars(consequent) | free_vars(alternative))

    def assign_env(self, env, name):
        return _seed_restrict(env, (name,))

    def call_env(self, env, pending):
        return _seed_restrict(env, _seed_free_vars_of_all(pending))

    def push_env(self, env, rest):
        return _seed_restrict(env, _seed_free_vars_of_all(rest))


class SeedBigloo(SeedGc):
    name = "bigloo"

    def apply_procedure(self, state, operator, args, kont):
        if (
            isinstance(operator, Closure)
            and isinstance(kont, TaggedReturn)
            and kont.code is operator.lam
            and len(operator.lam.params) == len(args)
        ):
            locations = state.store.alloc_many(args)
            body_env = operator.env.extend(operator.lam.params, locations)
            return state.with_expr(operator.lam.body, body_env, kont)
        return super().apply_procedure(state, operator, args, kont)

    def _apply_closure(self, state, closure, args, kont):
        if len(closure.lam.params) != len(args):
            return super()._apply_closure(state, closure, args, kont)
        locations = state.store.alloc_many(args)
        body_env = closure.env.extend(closure.lam.params, locations)
        body_kont = TaggedReturn(closure.lam, state.env, kont)
        return state.with_expr(closure.lam.body, body_env, body_kont)


class SeedMta(SeedGc):
    name = "mta"

    def compact(self, state):
        from .variants import _rebuild_frame

        frames = []
        kont = state.kont
        changed = False
        while kont.parent is not None:
            if type(kont) is Return and type(kont.parent) is Return:
                changed = True
            else:
                frames.append(kont)
            kont = kont.parent
        if not changed:
            return state
        rebuilt = kont
        for frame in reversed(frames):
            rebuilt = _rebuild_frame(frame, rebuilt)
        return State(
            state.control, state.is_value, state.env, rebuilt, state.store
        )


#: Seed steppers by machine name — same keys as ``variants.ALL_MACHINES``.
SEED_STEPPERS = {
    "tail": SeedStepper,
    "gc": SeedGc,
    "stack": SeedStack,
    "evlis": SeedEvlis,
    "free": SeedFree,
    "sfs": SeedSfs,
    "bigloo": SeedBigloo,
    "mta": SeedMta,
}


def make_seed_stepper(name: str, **kwargs) -> SeedStepper:
    """Instantiate the preserved seed stepper for machine *name*."""
    try:
        cls = SEED_STEPPERS[name]
    except KeyError:
        known = ", ".join(sorted(SEED_STEPPERS))
        raise ValueError(f"unknown machine {name!r}; known: {known}") from None
    return cls(**kwargs)
