"""The family of reference implementations (sections 7-10, 14).

======================  =====================================================
class                   paper semantics
======================  =====================================================
:class:`TailMachine`    I_tail  — properly tail recursive (section 7)
:class:`GcMachine`      I_gc    — return continuation for every call (§8)
:class:`StackMachine`   I_stack — Algol-like stack allocation of frames (§8)
:class:`EvlisMachine`   I_evlis — evlis tail recursion (section 9)
:class:`FreeMachine`    I_free  — closures over free variables only (§10)
:class:`SfsMachine`     I_sfs   — safe for space complexity (section 10)
:class:`BiglooMachine`  the §14 dilemma: proper for *self* tail calls only
                        (a Bigloo-like C-target implementation)
======================  =====================================================
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..syntax.ast import Expr, Lambda
from ..syntax.free_vars import (
    branch_free_vars,
    free_vars,
    free_vars_of_all,
    name_set,
)
from .config import State
from .continuation import (
    Assign,
    CallK,
    Kont,
    Push,
    Return,
    ReturnStack,
    Select,
)
from .environment import EMPTY_ENV, Environment
from .machine import Machine
from .values import Closure, Location


class TailMachine(Machine):
    """I_tail: Figure 5 verbatim — an alias of the base machine."""

    __slots__ = ()

    name = "tail"


class GcMachine(Machine):
    """I_gc: every procedure call creates a return:(rho, kappa) frame.

    "By creating a continuation for every procedure call, these rules
    waste space for no reason."
    """

    __slots__ = ()

    name = "gc"
    call_frame_kind = "return"

    def call_frame(
        self,
        frame_locations: Tuple[Location, ...],
        caller_env: Environment,
        kont: Kont,
    ) -> Kont:
        return Return(caller_env, kont)


class StackMachine(Machine):
    """I_stack: every call creates return:(A, rho, kappa) with the
    deletion set A = the whole argument frame.

    The paper: "it is always possible to choose A = {b1, ..., bn} ...
    This choice of A always consumes the most space, so it determines
    the space consumption S_stack."  Frame locations are retained until
    the frame returns; at return the machine deletes every frame
    location whose deletion creates no dangling pointer (the maximal
    choice that keeps the computation from getting stuck, Definition
    21).

    I_stack realizes section 5's *deletion strategy*: "A deletion
    strategy reclaims storage at statically determined points in the
    program, whereas a retention strategy retains storage until it is
    no longer needed, as determined by dynamic means such as garbage
    collection."  Accordingly it does NOT use the garbage collection
    rule — frame deletion is its only reclamation, the discipline of
    Algol-like stack allocation.  This is what makes Theorem 25's
    first separation work: heap structure allocated by standard
    procedures (the vector cells of ``(make-vector ...)``) is reclaimed
    by I_gc's collector as soon as it is unreachable, but by I_stack
    never, because no deletion set ever contains it.
    """

    __slots__ = ()

    name = "stack"
    call_frame_kind = "return-stack"
    uses_gc_rule = False
    # Injected stores keep store-edge reference counts so frame
    # deletion (the dominant cost of I_stack) can usually skip the full
    # reachability walk (see Machine._delete_frame).
    track_refs = True

    def call_frame(
        self,
        frame_locations: Tuple[Location, ...],
        caller_env: Environment,
        kont: Kont,
    ) -> Kont:
        return ReturnStack(frame_locations, caller_env, kont)


class EvlisMachine(Machine):
    """I_evlis: the environment is not preserved across the evaluation
    of the last subexpression of a procedure call (section 9).

    The environment drop applies whenever the subexpression about to be
    evaluated is the last one of its call — including the case of a
    call with a single subexpression such as ``((g))``, where the
    operator is the last (and only) subexpression and the call
    reduction rule itself saves the empty environment.  (The paper
    displays only the two replaced push rules; Theorem 25's separation
    of O(S_tail) from O(S_evlis) uses the program ``((g))`` and needs
    this case, which is also the behaviour of the evlis interpreters
    of Wand [Wan80] and Queinnec [Que96].)
    """

    __slots__ = ()

    name = "evlis"
    call_env_kind = "drop-empty"
    push_env_kind = "drop-empty"

    def call_env(self, env: Environment, pending: Tuple[Expr, ...]) -> Environment:
        if not pending:
            return EMPTY_ENV
        return env

    def push_env(self, env: Environment, rest: Tuple[Expr, ...]) -> Environment:
        if not rest:
            return EMPTY_ENV
        return env


class FreeMachine(Machine):
    """I_free: closures capture only their free variables (section 10),
    everything else as I_tail."""

    __slots__ = ()

    name = "free"
    closure_env_kind = "restrict-free-vars"

    def closure_env(self, lam: Lambda, env: Environment) -> Environment:
        return env.restrict(free_vars(lam))


class SfsMachine(Machine):
    """I_sfs: safe for space complexity in the sense of Appel.

    Closures capture free variables only, and every environment saved
    in a continuation is restricted to the free variables of the
    expressions that will be evaluated in it (section 10).  The push
    restriction subsumes evlis tail recursion: when no expressions
    remain, FV() = {} and the saved environment is empty.
    """

    __slots__ = ()

    name = "sfs"
    call_env_kind = "restrict-fv"
    push_env_kind = "restrict-fv"
    closure_env_kind = "restrict-free-vars"
    select_env_kind = "restrict-branch-fv"

    def closure_env(self, lam: Lambda, env: Environment) -> Environment:
        return env.restrict(free_vars(lam))

    def select_env(self, env: Environment, consequent: Expr, alternative: Expr):
        return env.restrict(branch_free_vars(consequent, alternative))

    def assign_env(self, env: Environment, name: str) -> Environment:
        return env.restrict(name_set(name))

    def call_env(self, env: Environment, pending: Tuple[Expr, ...]) -> Environment:
        return env.restrict(free_vars_of_all(pending))

    def push_env(self, env: Environment, rest: Tuple[Expr, ...]) -> Environment:
        return env.restrict(free_vars_of_all(rest))


class TaggedReturn(Return):
    """A return frame remembering which lambda it was created for,
    so the Bigloo-style machine can recognize simple self tail calls."""

    __slots__ = ("code",)

    def __init__(self, code: Lambda, env: Environment, parent: Kont):
        super().__init__(env, parent)
        self.code = code


class BiglooMachine(GcMachine):
    """The section 14 dilemma, made concrete.

    Implementations that compile to C (Bigloo, per its manual) make
    "all simple tail recursions" consume no stack but push a frame for
    every other call.  This machine treats a call as a goto only when
    it is a *self* tail call — the continuation at the call is exactly
    the return frame created when the same lambda was entered; every
    other call pushes a fresh return frame.

    It fails on continuation-passing style and on the find-leftmost
    example of section 4, exactly as the paper describes.
    """

    __slots__ = ()

    name = "bigloo"
    apply_kind = "closure-only"
    gen3_apply = "tagged-self-reuse"
    gen3_tagged = TaggedReturn

    def apply_procedure(self, state, operator, args, kont):
        if (
            isinstance(operator, Closure)
            and isinstance(kont, TaggedReturn)
            and kont.code is operator.lam
            and len(operator.lam.params) == len(args)
        ):
            # Simple self tail call: jump, reusing the existing frame.
            locations = state.store.alloc_many(args)
            body_env = operator.env.extend(operator.lam.params, locations)
            return state.with_expr(operator.lam.body, body_env, kont)
        return super().apply_procedure(state, operator, args, kont)

    def _apply_closure(self, state, closure, args, kont):
        if len(closure.lam.params) != len(args):
            return super()._apply_closure(state, closure, args, kont)  # ArityError
        locations = state.store.alloc_many(args)
        body_env = closure.env.extend(closure.lam.params, locations)
        body_kont = TaggedReturn(closure.lam, state.env, kont)
        return state.with_expr(closure.lam.body, body_env, body_kont)


class MtaMachine(GcMachine):
    """Baker's "Cheney on the M.T.A." technique [Bak95], section 14.

    "One of the standard techniques for generating properly tail
    recursive C code is to allocate stack frames for all calls, but to
    perform periodic garbage collection of stack frames as well as
    heap nodes.  A definition of proper tail recursion that is based
    on asymptotic space complexity allows this technique.  To my
    knowledge, no other formal definitions do."

    Mechanically: every call pushes a return:(rho, kappa) frame,
    exactly like I_gc — and the collector additionally *compacts* the
    continuation, collapsing every run of consecutive return frames to
    its outermost frame.  Two adjacent return frames are equivalent
    because popping return:(rho1, return:(rho2, kappa)) restores rho1
    only to immediately overwrite it with rho2: runs of returns appear
    exactly where tail calls pushed frames.  Between collections up to
    gc_interval frames pile up (Baker's stack buffer), so the space
    consumption is within a constant of S_tail — properly tail
    recursive by Definition 5 even though every call "pushes stack".
    """

    __slots__ = ()

    name = "mta"

    def compact(self, state):
        """Collapse runs of consecutive Return frames in the register
        continuation (called by the meter alongside the GC rule).

        A chain with no two consecutive Return frames is *compact*, and
        so is every suffix of it.  Each frame caches that fact about its
        own chain the first time a walk proves it (``Kont._compact``;
        frames are immutable), so the walk stops at the first frame
        already known compact: a step that collapses nothing costs
        O(frames pushed since the last compaction).  A collapse rebuilds
        the whole chain onto halt, as the seed stepper does, so the new
        chain shares no frame with the old one (an escape may still hold
        the old chain, and linked accounting counts each frame object
        once)."""
        fresh = []
        kont = state.kont
        while not getattr(kont, "_compact", False):
            parent = kont.parent
            if parent is None:
                break  # halt
            if type(kont) is Return and type(parent) is Return:
                return self._collapse(state)
            fresh.append(kont)
            kont = parent
        for frame in fresh:
            frame._compact = True
        return state

    def _collapse(self, state):
        frames = []
        kont = state.kont
        while kont.parent is not None:
            # Skip a return whose parent return supersedes it.
            if type(kont) is not Return or type(kont.parent) is not Return:
                frames.append(kont)
            kont = kont.parent
        rebuilt = kont  # halt
        for frame in reversed(frames):
            rebuilt = _rebuild_frame(frame, rebuilt)
            rebuilt._compact = True
        return State(
            state.control, state.is_value, state.env, rebuilt, state.store
        )


def _rebuild_frame(frame: Kont, parent: Kont) -> Kont:
    """Copy *frame* onto a new parent (continuations are immutable)."""
    if type(frame) is Return:
        return Return(frame.env, parent)
    if type(frame) is Select:
        return Select(frame.consequent, frame.alternative, frame.env, parent)
    if type(frame) is Assign:
        return Assign(frame.name, frame.env, parent)
    if type(frame) is Push:
        return Push(
            frame.pending, frame.done, frame.order, frame.env, parent,
            frame.site, frame.plan,
        )
    if type(frame) is CallK:
        return CallK(frame.args, parent, frame.site)
    if type(frame) is ReturnStack:
        return ReturnStack(frame.frame, frame.env, parent)
    raise TypeError(f"cannot rebuild frame {frame!r}")


#: All six reference implementations of the paper, by name.
REFERENCE_MACHINES: Dict[str, Type[Machine]] = {
    "tail": TailMachine,
    "gc": GcMachine,
    "stack": StackMachine,
    "evlis": EvlisMachine,
    "free": FreeMachine,
    "sfs": SfsMachine,
}

#: Machines including the section 14 variants (the Bigloo-style
#: self-call-only machine and Baker's MTA technique).
ALL_MACHINES: Dict[str, Type[Machine]] = dict(
    REFERENCE_MACHINES, bigloo=BiglooMachine, mta=MtaMachine
)


def make_machine(name: str, **kwargs) -> Machine:
    """Instantiate a reference implementation by name."""
    try:
        cls = ALL_MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(ALL_MACHINES))
        raise ValueError(f"unknown machine {name!r}; known: {known}") from None
    return cls(**kwargs)


#: Stepper selections for :func:`make_stepper` (and the harness/CLI
#: ``--stepper`` knobs built on it).
STEPPERS = ("annotated", "gen3", "gen2", "seed")


def make_stepper(name: str, stepper: str = "annotated", policy=None):
    """Instantiate *name*'s engine under a stepper selection.

    ``"annotated"`` is the live stepper: code runs on the gen-2
    superinstruction loop until it is hot, then on its generated gen-3
    function, where the variant is eligible (DESIGN.md §7.2);
    ``"gen3"`` builds every code's generated function on its first
    entry, so differential runs exercise generated code whatever its
    heat; ``"gen2"`` never generates code; ``"seed"`` is the preserved
    seed stepper of :mod:`repro.machine.reference_step`.  All four
    compute identical answers, step counts, and space numbers — the
    lockstep and differential-fuzz suites hold them equal — so this
    knob exists for differential testing and before/after
    benchmarking, not for semantics."""
    if stepper not in STEPPERS:
        known = ", ".join(STEPPERS)
        raise ValueError(f"unknown stepper {stepper!r}; known: {known}")
    kwargs = {} if policy is None else {"policy": policy}
    if stepper == "seed":
        from .reference_step import make_seed_stepper

        return make_seed_stepper(name, **kwargs)
    if stepper == "gen2":
        kwargs["gen3"] = False
    elif stepper == "gen3":
        kwargs["gen3"] = True
    return make_machine(name, **kwargs)
