"""The CEKS reference machine (Figure 5) with variant hooks.

:class:`Machine` implements the properly tail recursive semantics
I_tail exactly; the other reference implementations of sections 8-10
are subclasses (:mod:`repro.machine.variants`) that override precisely
the hooks corresponding to the rules the paper changes:

========================  =====================================================
hook                      paper rule it parameterizes
========================  =====================================================
``closure_env``           the lambda reduction rule (I_free, I_sfs close over
                          free variables only)
``select_env``            the if reduction rule (I_sfs restricts)
``assign_env``            the set! reduction rule (I_sfs restricts)
``call_env``              the procedure-call reduction rule (I_sfs restricts
                          to the free variables of the pending expressions)
``push_env``              the push continuation rule (I_evlis drops the
                          environment before the last subexpression; I_sfs
                          restricts to the free variables of the rest)
``call_frame``            the closure-call continuation rule (I_gc creates
                          return:(rho, kappa); I_stack creates
                          return:(A, rho, kappa))
========================  =====================================================

The transition function is *compiled once*: :meth:`Machine.inject`
runs the static pre-pass (:mod:`repro.compiler.prepass`), and stepping
dispatches through class-keyed tables — one handler per expression
class and per continuation class — instead of isinstance ladders.
Handlers read interned :class:`~repro.compiler.prepass.CallPlan`
suffixes rather than slicing tuples, and machines that keep a hook at
its I_tail default (identity) skip the hook call entirely.  None of
this changes a single transition: the preserved seed stepper
(:mod:`repro.machine.reference_step`) is held equal to this one —
answers, step counts, Definition 21/23 space — by the lockstep
differential suite.

The fused run loop adds the telemetry-guided superinstructions of
DESIGN.md §7.1 (gen-2): quickened variable reads (a prepass lexical
address checked against the runtime frame chain, falling back to
named lookup whenever the chain was restricted or the name is
``set!``-mutable), inlined all-simple nested calls (the ``Push ->
eval-operand -> CallK`` cycle of a ``(prim v ...)`` operand collapsed
into one batched transition), and fused ``If`` tests (the transient
select frame never built).  All
of it is still pure batching: every skipped continuation is transient
— created and consumed strictly inside one ``run_steps`` batch — so
step counts, store effects, answers, and the Figure 7/8 space of every
configuration a driver can observe are unchanged.  Each applies
wherever the variant's declared hook kinds allow it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..compiler.prepass import annotate, body_fuse_plan, call_plan, quote_value
from ..syntax.ast import Call, Expr, If, Lambda, Quote, SetBang, Var
from ..syntax.free_vars import branch_free_vars, free_vars
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
from .policy import LeftToRight, Policy
from .primitives import make_initial_environment
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

def _hook_kind(cls, hook_name: str, kind_name: str) -> str:
    """The declared kind of a variant hook, trusted only when the class
    that defines the hook also declares the kind (see
    ``Machine.call_env_kind``)."""
    for klass in cls.__mro__:
        if hook_name in klass.__dict__:
            if klass is Machine:
                return "identity"
            return klass.__dict__.get(kind_name, "custom")
    return "identity"


def _saved_env(machine, base, plan, j):
    """The environment saved in the *j*-th push frame of *plan*, rebuilt
    directly from *base* (the environment the call reduced in, or the
    frame environment fusion started from).

    Content-identical to the seed's chained hooks: the suffix
    free-variable sets shrink monotonically, so
    ``restrict(restrict(e, A), B) == restrict(e, B)`` whenever
    ``B <= A`` — restricting *base* once equals restricting each
    intermediate saved environment in turn.  Only called for machines
    whose hook kinds are declared (``Machine._fusable``).
    """
    if j == 0:
        if machine._default_call_env:
            return base
        if machine._call_env_fv:
            fvs = plan.suffix_fvs[0]
            return base.restrict(fvs) if fvs else EMPTY_ENV
        return base if plan.pending else EMPTY_ENV  # drop-empty
    if machine._default_push_env:
        return base
    if machine._push_env_fv:
        fvs = plan.suffix_fvs[j]
        return base.restrict(fvs) if fvs else EMPTY_ENV
    return base if plan.suffixes[j] else EMPTY_ENV  # drop-empty


#: Sentinel returned by :func:`_nested_value` when the speculated
#: operator turns out not to be a non-control primop: everything
#: evaluated up to that point was pure (Var reads and Quote constants),
#: so the generic path replays the nested call exactly.
_NO_FUSE = object()

#: Sentinel for the machine-*dependent* decline: the operator is a
#: closure, which only beta-capable machines can fuse.  Recorded as
#: ``CallPlan.beta_only`` rather than clearing ``speculate`` — plans
#: are interned per site and shared across machines, so a decline that
#: another machine would have accepted must not poison the plan.
_BETA_ONLY = object()


def _quick_location(env, slot, path):
    """The location of a quickened variable, read off the runtime frame
    chain, or None when the chain does not match the static *path* (a
    restricted, hand-built, or global frame) — the caller then falls
    back to named lookup.

    *path* is the tuple of enclosing lambdas' parameter tuples from the
    innermost out to the binding lambda; a frame matches a level only
    when its recorded parameter tuple is the *same object* (lambda
    nodes own their params tuple), which makes a match a proof that the
    frame is that lambda's body frame — and then ``_frame_locs[slot]``
    is by construction the location its ``extend`` bound the name to.
    """
    frame = env
    last = len(path) - 1
    for level, params in enumerate(path):
        if frame is None or frame._frame_names is not params:
            return None
        if level == last:
            return frame._frame_locs[slot]
        frame = frame._parent
    return None


def _nested_value(machine, store, plan, env, bindings, cells_get, budget):
    """Evaluate an all-simple nested call (``CallPlan.simple_all``) to
    its value without materializing any of its frames.

    Returns ``(value, cost, held)`` on success, where *cost* is the
    number of seed transitions consumed and *held* is either None (the
    batch-boundary environment is the nested call's own last saved
    environment) or a ``(body_env, body_plan)`` pair (a fused closure
    body ran last — its last saved environment holds the value); or
    None when the transitions would overflow *budget* (the caller then
    takes the generic path without giving up on the site); or
    :data:`_NO_FUSE` when the operator is not fusable — the caller
    records that on the plan so the site is not re-speculated.

    Two operator shapes fuse.  A **non-control primop** costs
    ``plan.fuse_cost``.  A **closure whose body is itself an all-simple
    call of a primop** (the accessor/predicate shape — the beta
    superinstruction) costs both calls' fuse_cost plus the return-frame
    pop on machines whose ``call_frame`` is the declared I_gc Return.

    Exactness: every subexpression is a Var or Quote, so nothing before
    the application step touches the store — the speculation (operator
    reads, the closure-body operator resolved through the argument list
    or the closure environment, never the frame) has no effects to
    undo, and errors raise at the same logical transition as the
    seed's; a speculative read that would fail just declines, and the
    generic replay raises at the exact seed point.  Only invoked under
    the stateless left-to-right policy (the seed would consult the
    policy at the skipped call reductions).
    """
    kinds = plan.kinds
    addrs = plan.addrs
    consts = plan.consts
    exprs = plan.in_order
    op = None
    vals = []
    for i in range(len(exprs)):
        if kinds[i] == 1:  # Var
            expr = exprs[i]
            addr = addrs[i]
            location = None
            if addr is not None:
                if env._frame_names is addr[2]:
                    location = env._frame_locs[addr[0]]
                else:
                    location = _quick_location(env, addr[0], addr[1])
            if location is None:
                location = bindings.get(expr.name)
                if location is None:
                    raise UnboundVariableError(
                        f"unbound variable: {expr.name}"
                    )
            value = cells_get(location)
            if value is None:
                raise UnboundVariableError(
                    f"variable {expr.name} refers to an unmapped location"
                )
            if value is UNDEFINED:
                raise UnboundVariableError(
                    f"variable {expr.name} read before initialization"
                )
        else:  # Quote
            value = consts[i]
            if value is None:
                value = quote_value(exprs[i])
        if i == 0:
            op = value
        else:
            vals.append(value)
    args = tuple(vals)
    ocls = op.__class__
    if ocls is Primop:
        if op.controls:
            return _NO_FUSE
        cost = plan.fuse_cost
        if cost > budget:
            return None
        arity = op.arity
        if arity is not None:
            low, high = arity
            if len(args) < low or (high is not None and len(args) > high):
                raise ArityError(
                    f"{op.name} expects {_arity_text(low, high)} arguments, "
                    f"got {len(args)}"
                )
        return op.proc(machine, store, args), cost, None
    if ocls is Closure:
        return _nested_beta(machine, store, plan, op, args, cells_get, budget)
    return _NO_FUSE


def _beta_spec(plan, lam):
    """The static shape of a beta superinstruction at (*plan*, *lam*):
    ``(params, body_plan, bmode, bx, folds, pair_cost)``, or None when
    the pair does not fuse (wrong arity, non-call body, quoted or
    shadow-prone operator).  Everything here depends only on the site
    and the lambda, so the result is cached on the plan (monomorphic —
    sites keep their operator) and shared across machines.

    *bmode*/*bx* resolve the body operator per application: 0 reads
    argument ``bx``, 1 probes the closure environment for name ``bx``.
    *folds* resolve the body arguments: tag 0 reads an argument by
    index, tag 1 is an interned constant, tag 2 looks a name up in the
    body environment, tag 3 re-quotes a Str node (fresh per
    evaluation, like the seed).
    A parameter read folds to the argument itself because the fold runs
    *after* the commit point: the location was just allocated with that
    exact value, so the load can neither miss nor see UNDEFINED."""
    params = lam.params
    if (len(params) != len(plan.in_order) - 1
            or len(set(params)) != len(params)):
        return None  # the generic replay raises any ArityError
    body = body_fuse_plan(lam)
    if body is None or body.kinds[0] != 1:
        return None
    bname = body.first.name
    if bname in params:
        bmode, bx = 0, params.index(bname)
    else:
        bmode, bx = 1, bname
    folds = []
    bkinds = body.kinds
    bconsts = body.consts
    bexprs = body.in_order
    for j in range(1, len(bexprs)):
        if bkinds[j] == 1:
            name = bexprs[j].name
            if name in params:
                folds.append((0, params.index(name)))
            else:
                folds.append((2, name))
        elif bconsts[j] is not None:
            folds.append((1, bconsts[j]))
        else:
            folds.append((3, bexprs[j]))
    return (params, body, bmode, bx, tuple(folds),
            plan.fuse_cost + body.fuse_cost)


def _nested_beta(machine, store, plan, op, args, cells_get, budget):
    """The closure arm of :func:`_nested_value`, entered with the
    operands already evaluated.  The static shape comes from the plan's
    :func:`_beta_spec` cache, so per call only the body operator, the
    budget check, the store commit and the fold map's reads remain."""
    if not machine._fuse_beta:
        return _BETA_ONLY
    lam = op.lam
    cache = plan.beta_cache
    if cache is None or cache[0] is not lam:
        cache = plan.beta_cache = (lam, _beta_spec(plan, lam))
    spec = cache[1]
    if spec is None:
        return _NO_FUSE
    params, body, bmode, bx, folds, pair_cost = spec
    # Resolve the body operator without building the frame (pure): a
    # parameter reads the just-computed argument, a free name reads the
    # closure environment.
    if bmode == 0:
        bop = args[bx]
    else:
        location = op.env._bindings.get(bx)
        bop = cells_get(location) if location is not None else None
    if bop is None or bop.__class__ is not Primop or bop.controls:
        return _NO_FUSE
    cost = pair_cost + machine._beta_extra
    if cost > budget:
        return None
    # Commit: the seed's store effects, in the seed's order.
    if len(params) == 1:
        body_env = op.env.extend_alloc1(store, params, args[0])
    else:
        body_env = op.env.extend_alloc(store, params, args)
    bvals = []
    for tag, x in folds:
        if tag == 0:
            value = args[x]
        elif tag == 1:
            value = x
        elif tag == 2:
            location = body_env._bindings.get(x)
            if location is None:
                raise UnboundVariableError(f"unbound variable: {x}")
            value = cells_get(location)
            if value is None:
                raise UnboundVariableError(
                    f"variable {x} refers to an unmapped location"
                )
            if value is UNDEFINED:
                raise UnboundVariableError(
                    f"variable {x} read before initialization"
                )
        else:
            value = quote_value(x)
        bvals.append(value)
    arity = bop.arity
    if arity is not None:
        low, high = arity
        if len(bvals) < low or (high is not None and len(bvals) > high):
            raise ArityError(
                f"{bop.name} expects {_arity_text(low, high)} arguments, "
                f"got {len(bvals)}"
            )
    value = bop.proc(machine, store, tuple(bvals))
    if machine._default_call_frame:
        return value, cost, (body_env, body)
    return value, cost, None


def _fuse_call(machine, store, plan, vals, i, base, parent, steps, limit):
    """Inline-evaluate the run of *simple* subexpressions of a call
    starting at evaluation index *i*, without materializing the
    intermediate push frames the per-step rules would thread through.

    Simple expressions (Var, Quote, Lambda — see ``CallPlan.kinds``)
    complete in one transition that inspects neither the continuation
    nor (beyond a lookup) the environment, so the eval and advance
    steps can be counted without being individually materialized; the
    store effects (the lambda rule's tag allocation) happen in exactly
    the seed order.  A kind-4 operand — an all-simple nested call — is
    evaluated whole through :func:`_nested_value` (``fuse_cost``
    transitions, committed only when they fit the budget and the
    speculated operator is a non-control primop), and quickened Var
    operands read their lexical address off the frame chain.  Returns
    the registers ``(control, is_value, env, kont, steps)`` at the
    first point the generic loop must resume: a compound subexpression
    (its push frame is then built, content-identical to the seed's),
    the step budget running out, or the completed call (unpermuted,
    with its call continuation, ready for the application step).
    """
    kinds = plan.kinds
    addrs = plan.addrs
    consts = plan.consts
    nested = plan.nested
    pending = plan.pending
    last = len(pending)
    start = i
    fuse_lambda = machine._fuse_lambda
    fuse_nested = machine._fuse_nested
    fuse_beta = machine._fuse_beta
    d_env = machine._default_call_env and machine._default_push_env
    frame_return = machine._frame_return
    closure_fv = machine._closure_env_fv
    bindings = base._bindings
    cells_get = store._cells.get
    while True:
        expr = plan.first if i == 0 else pending[i - 1]
        kind = kinds[i]
        value = _NO_FUSE
        cost = 1
        if steps < limit:
            if kind == 1:  # Var
                name = expr.name
                location = None
                addr = addrs[i]
                if addr is not None:
                    if base._frame_names is addr[2]:
                        location = base._frame_locs[addr[0]]
                    else:
                        location = _quick_location(base, addr[0], addr[1])
                if location is None:
                    location = bindings.get(name)
                    if location is None:
                        raise UnboundVariableError(
                            f"unbound variable: {name}"
                        )
                value = cells_get(location)
                if value is None:
                    raise UnboundVariableError(
                        f"variable {name} refers to an unmapped location"
                    )
                if value is UNDEFINED:
                    raise UnboundVariableError(
                        f"variable {name} read before initialization"
                    )
            elif kind == 2:  # Quote
                value = consts[i]
                if value is None:  # a string constant: stay fresh
                    value = quote_value(expr)
            elif kind == 3:  # Lambda
                if fuse_lambda:
                    closed = (
                        base.restrict(free_vars(expr)) if closure_fv else base
                    )
                    value = Closure(store.alloc(UNSPECIFIED), expr, closed)
            elif kind == 4:  # all-simple nested call
                inner = nested[i]
                held_src = None
                if (
                    fuse_nested
                    and inner.speculate
                    and (fuse_beta or not inner.beta_only)
                ):
                    fused = _nested_value(
                        machine, store, inner, base, bindings, cells_get,
                        limit - steps,
                    )
                    if fused is _NO_FUSE:
                        inner.speculate = False
                    elif fused is _BETA_ONLY:
                        inner.beta_only = True
                    elif fused is not None:
                        value, cost, held_src = fused
        if value is _NO_FUSE:
            # Hand the expression to the generic loop (compound, an
            # unfusable lambda or nested call, or the batch boundary):
            # materialize the configuration the per-step rules would
            # be in.
            return (
                expr,
                False,
                base if d_env or i == start
                else _saved_env(machine, base, plan, i - 1),
                Push(
                    plan.suffixes[i], tuple(vals), plan.order,
                    base if d_env else _saved_env(machine, base, plan, i),
                    parent, plan.site, plan,
                ),
                steps,
            )
        steps += cost
        vals.append(value)
        if steps >= limit:
            # Batch boundary holding the value at frame i.  The seed's
            # environment register there is the one the value was
            # produced in: the frame's saved environment for a simple
            # operand, the *inner* call's last saved environment for a
            # fused nested call (its apply step ran last).
            if kind == 4:
                # A fused closure body (beta) that ran to its own apply
                # step holds that body call's last saved environment;
                # otherwise (primop inner, or the gc-family beta whose
                # final transition is the Return pop restoring the
                # caller environment) the inner call's.
                if held_src is not None:
                    held = (
                        held_src[0] if d_env else _saved_env(
                            machine, held_src[0], held_src[1],
                            len(held_src[1].pending),
                        )
                    )
                else:
                    held = (
                        base if d_env else
                        _saved_env(machine, base, inner, len(inner.pending))
                    )
            elif d_env or i == start:
                held = base
            else:
                held = _saved_env(machine, base, plan, i - 1)
            return (
                value,
                True,
                held,
                Push(
                    plan.suffixes[i], tuple(vals[:-1]), plan.order,
                    base if d_env else _saved_env(machine, base, plan, i),
                    parent, plan.site, plan,
                ),
                steps,
            )
        steps += 1  # the advance step (i < last) or the complete step
        if i < last:
            i += 1
            continue
        # Complete: unpermute and form the call.
        if plan.is_identity:
            operator = vals[0]
            args = tuple(vals[1:])
        else:
            original = [None] * len(vals)
            for position, evaluated in zip(plan.order, vals):
                original[position] = evaluated
            operator = original[0]
            args = tuple(original[1:])
        if steps < limit:
            # Fuse the application step too for the common operators,
            # mirroring the generic loop's call-continuation rule (a
            # closure-only apply override still admits the primop case).
            ocls = operator.__class__
            if ocls is Closure and machine._default_apply:
                lam = operator.lam
                params = lam.params
                if len(params) != len(args):
                    raise ArityError(
                        f"procedure expects {len(params)} arguments, "
                        f"got {len(args)}"
                    )
                steps += 1  # the application step
                if len(params) == 1:
                    body_env = operator.env.extend_alloc1(
                        store, params, args[0]
                    )
                else:
                    body_env = operator.env.extend_alloc(
                        store, params, args
                    )
                if not machine._default_call_frame:
                    caller = (
                        base if d_env
                        else _saved_env(machine, base, plan, last)
                    )
                    if frame_return:
                        parent = Return(caller, parent)
                    else:
                        parent = machine.call_frame(
                            body_env._frame_locs, caller, parent
                        )
                return (lam.body, False, body_env, parent, steps)
            if (
                ocls is Primop
                and machine._primop_apply
                and not operator.controls
            ):
                arity = operator.arity
                if arity is not None:
                    low, high = arity
                    if len(args) < low or (
                        high is not None and len(args) > high
                    ):
                        raise ArityError(
                            f"{operator.name} expects "
                            f"{_arity_text(low, high)} arguments, "
                            f"got {len(args)}"
                        )
                steps += 1  # the application step
                return (
                    operator.proc(machine, store, args),
                    True,
                    base if d_env else _saved_env(machine, base, plan, last),
                    parent,
                    steps,
                )
        # Escapes, control primops, overridden application (Bigloo),
        # errors, or the batch boundary: the call continuation is
        # materialized and the generic loop applies it.
        return (
            operator,
            True,
            base if d_env else _saved_env(machine, base, plan, last),
            CallK(args, parent, plan.site),
            steps,
        )


def _kont_ceiling(kont) -> int:
    """The largest store location held directly by *kont* or any
    ancestor frame (environment domains, parked values, retained frame
    locations), or -1 for a bare halt.  Cached per continuation
    (immutable, locations never reused) so a chain of pops pays O(1)
    amortized: the walk stops at the first cached ancestor and fills
    the cache on the way back down."""
    k = kont
    chain = []
    top = -1
    while k is not None:
        try:
            top = k._ceiling
            break
        except AttributeError:
            chain.append(k)
            k = k.parent
    for k in reversed(chain):
        m = top
        for loc in k.direct_locations():
            if loc > m:
                m = loc
        for value in k.direct_values():
            for loc in value.locations():
                if loc > m:
                    m = loc
        k._ceiling = m
        top = m
    return top


class Machine:
    """The properly tail recursive reference implementation I_tail."""

    __slots__ = (
        "policy",
        "_default_closure_env",
        "_default_select_env",
        "_default_assign_env",
        "_default_call_env",
        "_default_push_env",
        "_default_call_frame",
        "_default_apply",
        "_call_env_fv",
        "_call_env_drop",
        "_push_env_fv",
        "_push_env_drop",
        "_closure_env_fv",
        "_fusable",
        "_fuse_lambda",
        "_select_env_fv",
        "_fuse_nested",
        "_fuse_if",
        "_fuse_if_call",
        "_fuse_beta",
        "_beta_extra",
        "_frame_return",
        "_plan0",
        "_primop_apply",
        "_track_refs",
        "trace",
    )

    name = "tail"

    #: Declared shape of the ``call_env`` / ``push_env`` overrides, so
    #: the fused run loop can specialize them: ``"identity"`` (the
    #: I_tail default), ``"restrict-fv"`` (restrict to the free
    #: variables of the pending expressions — I_sfs; the loop then
    #: reads the interned set off the call plan instead of re-deriving
    #: it), ``"drop-empty"`` (the environment is dropped exactly when
    #: nothing is pending — I_evlis), or ``"custom"`` (always call the
    #: hook).  A declaration is honoured only when it appears in the
    #: same class body as the override it describes (checked against
    #: the MRO), so a subclass overriding a hook without re-declaring
    #: its kind safely degrades to ``"custom"``.
    call_env_kind = "identity"
    push_env_kind = "identity"

    #: Declared shape of the ``closure_env`` override, same trust model
    #: as above: ``"identity"`` (I_tail), ``"restrict-free-vars"``
    #: (close over the lambda's free variables — I_free, I_sfs), or
    #: ``"custom"``.
    closure_env_kind = "identity"

    #: Declared shape of the ``select_env`` override:
    #: ``"identity"`` (I_tail), ``"restrict-branch-fv"`` (restrict to
    #: the branches' free variables — I_sfs; the gen-2 if fusion then
    #: reproduces the hook from the interned branch set), or
    #: ``"custom"`` (if fusion disabled).
    select_env_kind = "identity"

    #: Declared shape of an ``apply_procedure`` override, same trust
    #: model as the environment kinds: ``"closure-only"`` promises the
    #: override special-cases closure operators only and defers every
    #: other operator (primops in particular) to the base rule — the
    #: Bigloo-style machine — so primop-operator superinstructions
    #: (fused nested calls and if tests) remain exact even though
    #: closure application is custom.  Anything else disables them.
    apply_kind = "default"

    #: Whether the semantics includes the garbage collection rule of
    #: Figure 5.  I_stack (a pure deletion strategy, section 5) sets
    #: this False: storage is reclaimed only by frame deletion.
    uses_gc_rule = True

    #: Whether injected stores maintain store-edge reference counts
    #: (the I_stack frame-pop fast path; see Store._rc).
    track_refs = False

    def __init__(self, policy: Optional[Policy] = None):
        self.policy = policy if policy is not None else LeftToRight()
        # A hook still at its I_tail default is the identity on the
        # environment (or the caller's kappa): the dispatch handlers
        # skip the call entirely then.  Computed once per instance so
        # subclass overrides — including overrides added by further
        # subclasses — are always honoured.
        cls = type(self)
        self._default_closure_env = cls.closure_env is Machine.closure_env
        self._default_select_env = cls.select_env is Machine.select_env
        self._default_assign_env = cls.assign_env is Machine.assign_env
        self._default_call_env = cls.call_env is Machine.call_env
        self._default_push_env = cls.push_env is Machine.push_env
        self._default_call_frame = cls.call_frame is Machine.call_frame
        self._default_apply = (
            cls.apply_procedure is Machine.apply_procedure
            and cls._apply_closure is Machine._apply_closure
        )
        call_kind = _hook_kind(cls, "call_env", "call_env_kind")
        push_kind = _hook_kind(cls, "push_env", "push_env_kind")
        closure_kind = _hook_kind(cls, "closure_env", "closure_env_kind")
        self._call_env_fv = call_kind == "restrict-fv"
        self._call_env_drop = call_kind == "drop-empty"
        self._push_env_fv = push_kind == "restrict-fv"
        self._push_env_drop = push_kind == "drop-empty"
        self._closure_env_fv = closure_kind == "restrict-free-vars"
        # Argument fusion (see _fuse_call) needs both saved-environment
        # hooks to have a declared kind; a lambda operand may be fused
        # only when its captured environment is reconstructible from
        # the unrestricted base environment.
        self._fusable = (
            self._default_call_env or self._call_env_fv or self._call_env_drop
        ) and (
            self._default_push_env or self._push_env_fv or self._push_env_drop
        )
        self._fuse_lambda = self._closure_env_fv or (
            self._default_closure_env
            and not (self._call_env_fv or self._push_env_fv)
        )
        # Gen-2 superinstructions (DESIGN.md §7.1).  Nested-call and
        # fused-if-test speculation skip the seed's policy consultation
        # at the inner call reduction, so they are sound only under the
        # stateless identity policy; the if fusion additionally needs
        # the select hook reconstructible (identity, or the declared
        # I_sfs branch restriction).
        select_kind = _hook_kind(cls, "select_env", "select_env_kind")
        self._select_env_fv = select_kind == "restrict-branch-fv"
        lefttoright = type(self.policy) is LeftToRight
        # Primop-operator superinstructions stay exact under a custom
        # closure application as long as non-closure operators take the
        # base rule (the declared "closure-only" apply kind): the fused
        # transitions never apply a closure then — _fuse_beta below
        # additionally requires the full default apply.
        primop_apply = self._default_apply or (
            _hook_kind(cls, "apply_procedure", "apply_kind")
            == "closure-only"
        )
        self._primop_apply = primop_apply
        self._fuse_nested = lefttoright and primop_apply and self._fusable
        self._fuse_if = self._default_select_env or self._select_env_fv
        self._fuse_if_call = (
            self._fuse_if and lefttoright and primop_apply
        )
        # The beta superinstruction additionally applies a closure
        # operator whose body is an all-simple primop call, so the
        # skipped call frame must be reconstructible: the identity
        # (I_tail family) or the declared I_gc Return, whose pop is one
        # extra transition restoring the caller environment.  The
        # I_stack ReturnStack pop deletes store cells — observable — so
        # its declared kind declines.
        frame_kind = _hook_kind(cls, "call_frame", "call_frame_kind")
        self._fuse_beta = (
            self._fuse_nested
            and self._default_apply
            and (self._default_call_frame or frame_kind == "return")
        )
        self._beta_extra = 0 if self._default_call_frame else 1
        # The declared I_gc frame lets the fused apply build the Return
        # directly instead of calling the hook.
        self._frame_return = (
            not self._default_call_frame and frame_kind == "return"
        )
        self._plan0 = lefttoright
        self._track_refs = bool(cls.track_refs)
        #: Telemetry sink (a ``repro.telemetry.bus.TraceBus``) or None.
        #: The only cost when unset is one ``is None`` check per batch.
        self.trace = None

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(
        self,
        program: Expr,
        argument: Optional[Expr] = None,
        store: Optional[Store] = None,
        global_env: Optional[Environment] = None,
        trim_globals: bool = True,
    ) -> State:
        """Build the initial configuration.

        With an *argument*, this is Definition 23's
        ``((P D), rho_0, halt, sigma_0)``; without one, the program
        expression itself is evaluated.  ``trim_globals`` restricts
        rho_0 to the free variables of the program and argument (a
        per-program constant change to S_X; pass False for the full
        fixed rho_0 of section 12).

        Injection runs the static pre-pass
        (:func:`~repro.compiler.prepass.annotate`) over the program and
        the argument, once per tree: a compiled program is not walked
        again, only a new argument and the ``(P D)`` call around it.
        """
        if store is None:
            store = Store(track_refs=self._track_refs)
        if global_env is None:
            names = None
            if trim_globals:
                names = set(free_vars(program))
                if argument is not None:
                    names |= free_vars(argument)
            global_env = make_initial_environment(store, names)
        expr = annotate(program)
        if argument is not None:
            expr = annotate(Call((expr, annotate(argument))))
        self.policy.reset()
        return State(expr, False, global_env, Halt(), store)

    # ------------------------------------------------------------------
    # The transition function
    # ------------------------------------------------------------------

    def step(self, state: State) -> Configuration:
        """One transition of Figure 5 (plus variant rules)."""
        control = state.control
        if state.is_value:
            kont = state.kont
            handler = _VALUE_DISPATCH.get(kont.__class__)
            if handler is None:
                handler = _resolve_value_handler(kont)
            return handler(self, state, control, kont)
        handler = _EXPR_DISPATCH.get(control.__class__)
        if handler is None:
            handler = _resolve_expr_handler(control)
        return handler(self, state, control)

    def _step_expr(self, state: State) -> Configuration:
        expr = state.control
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is None:
            handler = _resolve_expr_handler(expr)
        return handler(self, state, expr)

    def _step_value(self, state: State) -> Configuration:
        kont = state.kont
        handler = _VALUE_DISPATCH.get(kont.__class__)
        if handler is None:
            handler = _resolve_value_handler(kont)
        return handler(self, state, state.control, kont)

    # ------------------------------------------------------------------
    # The fused run loop
    # ------------------------------------------------------------------

    def run_steps(self, state: State, limit: int):
        """Execute up to *limit* transitions of :meth:`step` in one
        Python frame; return ``(configuration, steps_taken)``.

        The registers (control, value flag, environment, continuation)
        live in local variables, so intermediate :class:`State` objects
        are never constructed — one is materialized only when the batch
        is exhausted, the computation halts, or a rare rule (an escape,
        a control primop, a variant-overridden application, an error
        path) delegates to :meth:`step`.  Every transition taken, every
        store effect, and the step count are *identical* to ``limit``
        consecutive ``step`` calls — this is batching, not a different
        semantics — which the differential suite checks by holding the
        fused driver equal to the preserved seed stepper run-for-run.

        Drivers that must observe every configuration (the space meter,
        the lockstep tests) call :meth:`step` directly instead.
        """
        if self.trace is not None:
            return self._traced_run_steps(state, limit)
        control = state.control
        is_value = state.is_value
        env = state.env
        kont = state.kont
        store = state.store
        if limit <= 0:
            return state, 0
        # Hot globals and flags as locals (CPython: LOAD_FAST).
        permutation = self.policy.permutation
        cells_get = store._cells.get
        d_closure = self._default_closure_env
        d_select = self._default_select_env
        d_assign = self._default_assign_env
        d_call = self._default_call_env
        d_push = self._default_push_env
        d_frame = self._default_call_frame
        d_apply = self._default_apply
        call_fv = self._call_env_fv
        call_drop = self._call_env_drop
        push_fv = self._push_env_fv
        push_drop = self._push_env_drop
        fuse = self._fusable
        fuse_if = self._fuse_if
        fuse_if_call = self._fuse_if_call
        fuse_beta = self._fuse_beta
        plan0 = self._plan0
        steps = 0
        while steps < limit:
            steps += 1
            if is_value:
                kcls = kont.__class__
                if kcls is Push:
                    pending = kont.pending
                    if pending:
                        plan = kont.plan
                        done = kont.done
                        if (
                            fuse
                            and plan is not None
                            and plan.suffixes[len(done)] is pending
                        ):
                            # Fuse the advance with the run of simple
                            # subexpressions that follows it.
                            vals = list(done)
                            vals.append(control)
                            control, is_value, env, kont, steps = _fuse_call(
                                self, store, plan, vals, len(vals),
                                kont.env, kont.parent, steps, limit,
                            )
                            continue
                        done = done + (control,)
                        planned = (
                            plan is not None
                            and plan.suffixes[len(done) - 1] is pending
                        )
                        rest = (
                            plan.suffixes[len(done)] if planned
                            else pending[1:]
                        )
                        if d_push:
                            saved = kont.env
                        elif push_fv and planned:
                            saved = kont.env.restrict(
                                plan.suffix_fvs[len(done)]
                            )
                        elif push_drop:
                            saved = kont.env if rest else EMPTY_ENV
                        else:
                            saved = self.push_env(kont.env, rest)
                        control = pending[0]
                        is_value = False
                        env = kont.env
                        kont = Push(
                            rest, done, kont.order, saved, kont.parent,
                            kont.site, plan,
                        )
                        continue
                    values_in_order = kont.done + (control,)
                    plan = kont.plan
                    if plan is not None and plan.is_identity:
                        control = values_in_order[0]
                        args = values_in_order[1:]
                    else:
                        original: list = [None] * len(values_in_order)
                        for position, evaluated in zip(
                            kont.order, values_in_order
                        ):
                            original[position] = evaluated
                        control = original[0]
                        args = tuple(original[1:])
                    env = kont.env
                    kont = CallK(args, kont.parent, kont.site)
                    continue
                if kcls is CallK:
                    args = kont.args
                    parent = kont.parent
                    if d_apply:
                        ocls = control.__class__
                        if ocls is Closure:
                            lam = control.lam
                            params = lam.params
                            if len(params) != len(args):
                                raise ArityError(
                                    f"procedure expects {len(params)} "
                                    f"arguments, got {len(args)}"
                                )
                            locations = store.alloc_many(args)
                            body_env = control.env.extend(params, locations)
                            if not d_frame:
                                parent = self.call_frame(
                                    locations, env, parent
                                )
                            control = lam.body
                            is_value = False
                            env = body_env
                            kont = parent
                            continue
                        if ocls is Primop and not control.controls:
                            arity = control.arity
                            if arity is not None:
                                low, high = arity
                                if len(args) < low or (
                                    high is not None and len(args) > high
                                ):
                                    raise ArityError(
                                        f"{control.name} expects "
                                        f"{_arity_text(low, high)} arguments, "
                                        f"got {len(args)}"
                                    )
                            control = control.proc(self, store, args)
                            kont = parent
                            continue
                    # Escapes, control primops, overridden application
                    # (Bigloo), and the not-a-procedure error: take the
                    # exact step-path.
                    configuration = self.apply_procedure(
                        State(control, True, env, kont, store),
                        control,
                        args,
                        parent,
                    )
                    control = configuration.control
                    is_value = configuration.is_value
                    env = configuration.env
                    kont = configuration.kont
                    continue
                if kcls is Select:
                    control = (
                        kont.consequent if is_true(control)
                        else kont.alternative
                    )
                    is_value = False
                    env = kont.env
                    kont = kont.parent
                    continue
                if kcls is Return:
                    env = kont.env
                    kont = kont.parent
                    continue
                if kcls is Halt:
                    return Final(control, store), steps
                if kcls is Assign:
                    location = kont.env.lookup(kont.name)
                    if location is None or location not in store:
                        raise UnboundVariableError(
                            f"assignment to unbound variable: {kont.name}"
                        )
                    store.write(location, control)
                    control = UNSPECIFIED
                    env = kont.env
                    kont = kont.parent
                    continue
                # ReturnStack, TaggedReturn, unknown: the exact step-path.
                configuration = self._step_value(
                    State(control, True, env, kont, store)
                )
                if configuration.is_final:
                    return configuration, steps
                control = configuration.control
                is_value = configuration.is_value
                env = configuration.env
                kont = configuration.kont
                continue
            cls = control.__class__
            if cls is Var:
                name = control.name
                location = None
                addr = control.addr
                if addr is not None:
                    if env._frame_names is addr[2]:
                        location = env._frame_locs[addr[0]]
                    else:
                        location = _quick_location(env, addr[0], addr[1])
                if location is None:
                    location = env._bindings.get(name)
                    if location is None:
                        raise UnboundVariableError(
                            f"unbound variable: {name}"
                        )
                value = cells_get(location)
                if value is None:
                    raise UnboundVariableError(
                        f"variable {name} refers to an unmapped location"
                    )
                if value is UNDEFINED:
                    raise UnboundVariableError(
                        f"variable {name} read before initialization"
                    )
                control = value
                is_value = True
                continue
            if cls is Call:
                # Under the stateless identity policy a site's plan is
                # permutation-independent: one attribute read replaces
                # the policy consult + memo call after the first visit.
                plan = control.identity_plan if plan0 else None
                if plan is None:
                    order = permutation(len(control.exprs))
                    plan = call_plan(control, order)
                if fuse:
                    control, is_value, env, kont, steps = _fuse_call(
                        self, store, plan, [], 0, env, kont, steps, limit,
                    )
                    continue
                pending = plan.pending
                if d_call:
                    saved = env
                elif call_fv:
                    saved = env.restrict(plan.suffix_fvs[0])
                elif call_drop:
                    saved = env if pending else EMPTY_ENV
                else:
                    saved = self.call_env(env, pending)
                kont = Push(
                    pending, (), plan.order, saved, kont,
                    site=control, plan=plan,
                )
                control = plan.first
                continue
            if cls is Quote:
                control = quote_value(control)
                is_value = True
                continue
            if cls is If:
                test = control.test
                if fuse_if:
                    # Fuse the test evaluation and the select step for
                    # the measured shapes, never materializing the
                    # transient select frame: a simple test is +2
                    # transitions, an all-simple nested-call test is
                    # its fuse_cost +1 (committed only when the budget
                    # fits and the speculated operator is a primop).
                    tcls = test.__class__
                    value = _NO_FUSE
                    cost = 2
                    if tcls is Var:
                        if steps + 2 <= limit:
                            name = test.name
                            location = None
                            addr = test.addr
                            if addr is not None:
                                if env._frame_names is addr[2]:
                                    location = env._frame_locs[addr[0]]
                                else:
                                    location = _quick_location(
                                        env, addr[0], addr[1]
                                    )
                            if location is None:
                                location = env._bindings.get(name)
                                if location is None:
                                    raise UnboundVariableError(
                                        f"unbound variable: {name}"
                                    )
                            value = cells_get(location)
                            if value is None:
                                raise UnboundVariableError(
                                    f"variable {name} refers to an "
                                    f"unmapped location"
                                )
                            if value is UNDEFINED:
                                raise UnboundVariableError(
                                    f"variable {name} read before "
                                    f"initialization"
                                )
                    elif tcls is Quote:
                        if steps + 2 <= limit:
                            value = quote_value(test)
                    elif fuse_if_call and tcls is Call:
                        plan = control.test_plan
                        if (
                            plan is not None
                            and plan.speculate
                            and (fuse_beta or not plan.beta_only)
                        ):
                            fused = _nested_value(
                                self, store, plan, env, env._bindings,
                                cells_get, limit - steps - 1,
                            )
                            if fused is _NO_FUSE:
                                plan.speculate = False
                            elif fused is _BETA_ONLY:
                                plan.beta_only = True
                            elif fused is not None:
                                # The select pop restores the saved
                                # environment, so the fused call's held
                                # environment never becomes observable.
                                value, cost, _held = fused
                                cost += 1
                    if value is not _NO_FUSE:
                        steps += cost
                        if not d_select:
                            env = env.restrict(
                                branch_free_vars(
                                    control.consequent, control.alternative
                                )
                            )
                        control = (
                            control.consequent if is_true(value)
                            else control.alternative
                        )
                        continue
                saved = (
                    env if d_select
                    else self.select_env(
                        env, control.consequent, control.alternative
                    )
                )
                kont = Select(
                    control.consequent, control.alternative, saved, kont
                )
                control = test
                continue
            if cls is Lambda:
                closed = env if d_closure else self.closure_env(control, env)
                tag = store.alloc(UNSPECIFIED)
                control = Closure(tag, control, closed)
                is_value = True
                continue
            if cls is SetBang:
                saved = env if d_assign else self.assign_env(env, control.name)
                kont = Assign(control.name, saved, kont)
                control = control.expr
                continue
            # Unknown expression class: the exact step-path (MRO
            # fallback or the seed's StuckError).
            configuration = self._step_expr(
                State(control, False, env, kont, store)
            )
            control = configuration.control
            is_value = configuration.is_value
            env = configuration.env
            kont = configuration.kont
        return State(control, is_value, env, kont, store), steps

    def _traced_run_steps(self, state: State, limit: int):
        """The run driver used while a trace bus is attached: every
        transition goes through :meth:`step` (the exact per-step path)
        and is published before it is taken.  Fusion is pure batching,
        so bypassing it here changes no transition — it only makes each
        one observable."""
        bus = self.trace
        step = self.step
        steps = 0
        while steps < limit:
            bus.emit_step_state(state)
            configuration = step(state)
            steps += 1
            if configuration.is_final:
                return configuration, steps
            state = configuration
        return state, steps

    # ------------------------------------------------------------------
    # Procedure application
    # ------------------------------------------------------------------

    def apply_procedure(
        self, state: State, operator: Value, args: Tuple[Value, ...], kont: Kont
    ) -> Configuration:
        """The call continuation rule, dispatched on the operator."""
        if isinstance(operator, Closure):
            return self._apply_closure(state, operator, args, kont)
        if isinstance(operator, Primop):
            return self._apply_primop(state, operator, args, kont)
        if isinstance(operator, Escape):
            if len(args) != 1:
                raise ArityError(
                    f"escape procedure expects 1 argument, got {len(args)}"
                )
            return State(args[0], True, EMPTY_ENV, operator.kont, state.store)
        raise NotAProcedureError(f"not a procedure: {operator!r}")

    def _apply_closure(
        self, state: State, closure: Closure, args: Tuple[Value, ...], kont: Kont
    ) -> Configuration:
        lam = closure.lam
        params = lam.params
        if len(params) != len(args):
            raise ArityError(
                f"procedure expects {len(params)} arguments, got {len(args)}"
            )
        locations = state.store.alloc_many(args)
        body_env = closure.env.extend(params, locations)
        if self._default_call_frame:
            body_kont = kont
        else:
            body_kont = self.call_frame(locations, state.env, kont)
        return State(lam.body, False, body_env, body_kont, state.store)

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
        return State(result, True, state.env, kont, state.store)

    # ------------------------------------------------------------------
    # Variant hooks (I_tail defaults)
    # ------------------------------------------------------------------

    def closure_env(self, lam: Lambda, env: Environment) -> Environment:
        """Environment captured by a closure (I_tail: all of scope)."""
        return env

    def select_env(self, env: Environment, consequent: Expr, alternative: Expr):
        """Environment saved in a select continuation."""
        return env

    def assign_env(self, env: Environment, name: str) -> Environment:
        """Environment saved in an assign continuation."""
        return env

    def call_env(self, env: Environment, pending: Tuple[Expr, ...]) -> Environment:
        """Environment saved in the push continuation at call reduction."""
        return env

    def push_env(self, env: Environment, rest: Tuple[Expr, ...]) -> Environment:
        """Environment saved when the push continuation advances."""
        return env

    def call_frame(
        self,
        frame_locations: Tuple[Location, ...],
        caller_env: Environment,
        kont: Kont,
    ) -> Kont:
        """Continuation for a closure body (I_tail: the caller's kappa
        unchanged — every call is a goto)."""
        return kont

    def compact(self, state: State) -> State:
        """Optional continuation compaction, run by the meter alongside
        the GC rule.  The base machines do nothing; Baker's MTA variant
        collapses runs of return frames here."""
        return state

    # ------------------------------------------------------------------
    # I_stack frame deletion (used only by variants with ReturnStack)
    # ------------------------------------------------------------------

    def _delete_frame(self, store: Store, value: Value, kont: ReturnStack) -> None:
        """Delete the largest subset of the frame that creates no
        dangling pointer: frame locations unreachable from the
        post-return configuration.

        When the store keeps reference counts (``track_refs``), the
        full reachability walk — O(live store) per pop, the dominant
        cost of I_stack — is usually avoided.  A frame location is
        unreachable iff no edge of the reachability graph reaches it:
        store edges are counted exactly by ``Store._rc``; direct root
        edges from the returned value are ``value.locations()``; and
        direct root edges from the continuation chain are ruled out
        wholesale when the chain's largest rooted location
        (``_kont_ceiling``) lies below every candidate.  Escapes hide
        their captured chain from the counts, so the sticky
        ``_escaped`` flag forces the walk.  Intra-frame chains (an
        argument cell referencing another) are resolved by a small
        fixpoint with overlay decrements.  The fast path commits only
        outcomes the walk would produce: either every candidate proved
        deletable, or every survivor is pinned by the returned value
        itself (an rc-pinned survivor might be pinned by garbage the
        walk would see through — fall back)."""
        cells = store._cells
        candidates = [loc for loc in kont.frame if loc in cells]
        if not candidates:
            return
        rc = store._rc
        if rc is not None and not store._escaped:
            # Roots of the post-return configuration: the returned
            # value, the restored environment, and the *parent* chain —
            # not the frame being popped (its locations are the
            # candidates).
            ceiling = _kont_ceiling(kont.parent)
            env = kont.env
            if env is not None:
                for loc in env.location_tuple():
                    if loc > ceiling:
                        ceiling = loc
            if ceiling < min(candidates):
                held = set(value.locations())
                chosen = set()
                delta = {}
                changed = True
                while changed:
                    changed = False
                    for loc in candidates:
                        if loc in chosen or loc in held:
                            continue
                        if rc.get(loc, 0) - delta.get(loc, 0) == 0:
                            chosen.add(loc)
                            changed = True
                            for ref in cells[loc].locations():
                                delta[ref] = delta.get(ref, 0) + 1
                if len(chosen) == len(candidates):
                    store.delete_many(candidates)
                    return
                if all(
                    loc in held
                    for loc in candidates
                    if loc not in chosen
                ):
                    if chosen:
                        store.delete_many(
                            [loc for loc in candidates if loc in chosen]
                        )
                    return
        live = reachable_locations(store, (value,), kont.env, kont.parent)
        deletable = [loc for loc in candidates if loc not in live]
        if deletable:
            store.delete_many(deletable)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} policy={self.policy!r}>"


# ---------------------------------------------------------------------------
# Expression handlers (the left column of Figure 5), one per class.
# ---------------------------------------------------------------------------


def _expr_quote(machine: Machine, state: State, expr: Quote) -> State:
    return State(quote_value(expr), True, state.env, state.kont, state.store)


def _expr_var(machine: Machine, state: State, expr: Var) -> State:
    env = state.env
    location = env.lookup(expr.name)
    if location is None:
        raise UnboundVariableError(f"unbound variable: {expr.name}")
    value = state.store.get(location)
    if value is None:
        raise UnboundVariableError(
            f"variable {expr.name} refers to an unmapped location"
        )
    if value is UNDEFINED:
        raise UnboundVariableError(
            f"variable {expr.name} read before initialization"
        )
    return State(value, True, env, state.kont, state.store)


def _expr_lambda(machine: Machine, state: State, expr: Lambda) -> State:
    env = state.env
    if machine._default_closure_env:
        closed = env
    else:
        closed = machine.closure_env(expr, env)
    tag = state.store.alloc(UNSPECIFIED)
    return State(Closure(tag, expr, closed), True, env, state.kont, state.store)


def _expr_if(machine: Machine, state: State, expr: If) -> State:
    env = state.env
    if machine._default_select_env:
        saved = env
    else:
        saved = machine.select_env(env, expr.consequent, expr.alternative)
    kont = Select(expr.consequent, expr.alternative, saved, state.kont)
    return State(expr.test, False, env, kont, state.store)


def _expr_set(machine: Machine, state: State, expr: SetBang) -> State:
    env = state.env
    if machine._default_assign_env:
        saved = env
    else:
        saved = machine.assign_env(env, expr.name)
    kont = Assign(expr.name, saved, state.kont)
    return State(expr.expr, False, env, kont, state.store)


def _expr_call(machine: Machine, state: State, expr: Call) -> State:
    order = machine.policy.permutation(len(expr.exprs))
    plan = call_plan(expr, order)  # validates the permutation once
    env = state.env
    pending = plan.pending
    if machine._default_call_env:
        saved = env
    elif machine._call_env_fv:
        saved = env.restrict(plan.suffix_fvs[0])
    else:
        saved = machine.call_env(env, pending)
    kont = Push(pending, (), plan.order, saved, state.kont, expr, plan)
    return State(plan.first, False, env, kont, state.store)


_EXPR_DISPATCH = {
    Quote: _expr_quote,
    Var: _expr_var,
    Lambda: _expr_lambda,
    If: _expr_if,
    SetBang: _expr_set,
    Call: _expr_call,
}


def _resolve_expr_handler(expr):
    """MRO fallback for Expr subclasses, cached; stuck otherwise."""
    for base in expr.__class__.__mro__[1:]:
        handler = _EXPR_DISPATCH.get(base)
        if handler is not None:
            _EXPR_DISPATCH[expr.__class__] = handler
            return handler
    raise StuckError(f"not a Core Scheme expression: {expr!r}")


# ---------------------------------------------------------------------------
# Value handlers (the right column of Figure 5), one per continuation.
# ---------------------------------------------------------------------------


def _value_halt(machine: Machine, state: State, value, kont: Halt):
    return Final(value, state.store)


def _value_select(machine: Machine, state: State, value, kont: Select) -> State:
    branch = kont.consequent if is_true(value) else kont.alternative
    return State(branch, False, kont.env, kont.parent, state.store)


def _value_assign(machine: Machine, state: State, value, kont: Assign) -> State:
    location = kont.env.lookup(kont.name)
    if location is None or location not in state.store:
        raise UnboundVariableError(
            f"assignment to unbound variable: {kont.name}"
        )
    state.store.write(location, value)
    return State(UNSPECIFIED, True, kont.env, kont.parent, state.store)


def _value_push(machine: Machine, state: State, value, kont: Push):
    pending = kont.pending
    if pending:
        plan = kont.plan
        done = kont.done
        planned = plan is not None and plan.suffixes[len(done)] is pending
        if planned:
            rest = plan.suffixes[len(done) + 1]
        else:  # hand-built frame: fall back to slicing
            rest = pending[1:]
        if machine._default_push_env:
            saved = kont.env
        elif machine._push_env_fv and planned:
            saved = kont.env.restrict(plan.suffix_fvs[len(done) + 1])
        else:
            saved = machine.push_env(kont.env, rest)
        new_kont = Push(
            rest, done + (value,), kont.order, saved, kont.parent,
            kont.site, plan,
        )
        return State(pending[0], False, kont.env, new_kont, state.store)
    # All subexpressions evaluated: unpermute and form the call.
    values_in_order = kont.done + (value,)
    plan = kont.plan
    if plan is not None and plan.is_identity:
        operator = values_in_order[0]
        args = values_in_order[1:]
    else:
        original: list = [None] * len(values_in_order)
        for position, evaluated in zip(kont.order, values_in_order):
            original[position] = evaluated
        operator = original[0]
        args = tuple(original[1:])
    return State(
        operator, True, kont.env,
        CallK(args, kont.parent, kont.site), state.store,
    )


def _value_call(machine: Machine, state: State, value, kont: CallK):
    return machine.apply_procedure(state, value, kont.args, kont.parent)


def _value_return(machine: Machine, state: State, value, kont: Return) -> State:
    return State(value, True, kont.env, kont.parent, state.store)


def _value_return_stack(
    machine: Machine, state: State, value, kont: ReturnStack
) -> State:
    machine._delete_frame(state.store, value, kont)
    return State(value, True, kont.env, kont.parent, state.store)


_VALUE_DISPATCH = {
    Halt: _value_halt,
    Select: _value_select,
    Assign: _value_assign,
    Push: _value_push,
    CallK: _value_call,
    Return: _value_return,
    ReturnStack: _value_return_stack,
}


def _resolve_value_handler(kont):
    """MRO fallback for Kont subclasses (e.g. the Bigloo TaggedReturn),
    cached under the concrete class; stuck otherwise."""
    for base in kont.__class__.__mro__[1:]:
        handler = _VALUE_DISPATCH.get(base)
        if handler is not None:
            _VALUE_DISPATCH[kont.__class__] = handler
            return handler
    raise StuckError(f"unknown continuation: {kont!r}")


def _arity_text(low: int, high: Optional[int]) -> str:
    if high is None:
        return f"at least {low}"
    if low == high:
        return str(low)
    return f"{low} to {high}"
