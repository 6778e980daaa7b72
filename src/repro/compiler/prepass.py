"""The compile-once static pre-pass for the CEKS stepper.

Everything the transition function of Figure 5 needs that depends only
on the *program text* is computed here, once per program, instead of
once per step:

- the free-variable frozenset of every ``Lambda``, every ``If`` branch
  pair, and every ``set!`` target (interned in
  :mod:`repro.syntax.free_vars`, so the I_free/I_sfs restriction hooks
  become attribute reads);
- a :class:`CallPlan` per (call site, evaluation order): the validated
  permutation, the first expression to evaluate, the interned
  pending-suffix tuples, and the free variables of every pending
  suffix — so the push rules neither re-slice tuples nor re-walk
  subtrees, and the ``sorted(order) != range(n)`` permutation check of
  the call rule runs once per (site, order) instead of once per step;
- the runtime value of every ``quote`` whose constant is immutable
  (numbers, booleans, symbols, characters, the empty list), interned
  per node.  String constants are *not* interned: ``eqv?`` on strings
  is identity, so a fresh ``Str`` per evaluation — the seed behaviour
  — is observable;
- a gen-2 *lexical address* per ``Var`` (telemetry-guided: the corpus
  step mix is dominated by ``expr:Var``/``kont:Push`` transitions): the
  slot of the binding parameter plus the chain of enclosing lambdas'
  parameter tuples, so the fused run loop can read the binding off the
  runtime frame chain without a hash lookup.  No address is assigned to
  ``set!``-mutable names or to free (global) variables — those always
  take the named-lookup path — and the runtime read *verifies* the
  frame chain (parameter-tuple identity per level) before trusting a
  slot, so dynamically-restricted frames fall back to named lookup too;
- gen-2 *superinstruction* codes per call site: operands that are
  themselves all-simple calls (every subexpression a ``Var`` or
  ``Quote``) are marked as nested-primop candidates (kind 4), with the
  inner identity-order plan interned alongside, and ``If`` tests of the
  same shape get an interned test plan — the fused loop uses these to
  collapse the whole ``push -> eval -> call`` cycle of the inner call
  into one batched transition.

The invariant that keeps this safe: annotations are **derived, never
authoritative**.  They cache pure functions of the immutable AST (and
of the machine's value constructors), so a stepper consulting them is
extensionally identical to one recomputing them — the lockstep
differential suite (``tests/test_prepass_lockstep.py``) holds the
annotated stepper equal to the preserved seed stepper
(:mod:`repro.machine.reference_step`) on answers, step counts, and
Definition 21/23 space numbers for all eight machines.

Every annotation lives on the node it describes
(:func:`repro.syntax.ast.derive`): a ``Call`` carries its plans, a
``Var`` its lexical address, a ``Quote`` its value, an ``If`` its test
plan, a ``Lambda`` its body plan.  Annotations therefore live exactly
as long as the tree, a fresh parse starts from a clean slate, and an
artifact is just the annotated tree pickled
(:mod:`repro.serving.artifacts`).

:func:`annotate` is invoked by :meth:`Machine.inject` and by the front
end (:mod:`repro.compiler.frontend`); every annotation also fills
lazily, so states built by hand (tests, the denotational semantics)
step correctly without a pre-pass.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from ..machine.errors import StuckError
from ..machine.policy import identity_permutation
from ..machine.values import constant_value
from ..syntax.ast import (
    Call,
    Expr,
    If,
    Lambda,
    Quote,
    SetBang,
    Var,
    derive,
)
from ..syntax.free_vars import (
    branch_free_vars,
    free_vars,
    name_set,
)


class CallPlan:
    """Everything static about one (call site, evaluation order) pair.

    ``suffixes[j]`` is the tuple of expressions still pending after the
    first ``j`` of them have been evaluated (``suffixes[0]`` is the
    whole pending sequence, the last entry is ``()``), and
    ``suffix_fvs[j]`` is the interned union of their free variables —
    exactly the sets the I_sfs push restriction consumes.  All suffix
    tuples are interned here, so the push rule threads identical tuple
    objects through the continuation instead of slicing fresh ones.
    """

    __slots__ = (
        "site",
        "order",
        "first",
        "pending",
        "suffixes",
        "suffix_fvs",
        "is_identity",
        "in_order",
        "kinds",
        "simple_all",
        "fuse_cost",
        "addrs",
        "consts",
        "nested",
        "speculate",
        "beta_only",
        "beta_cache",
    )

    #: Plans built in this process (:func:`plan_count`).
    built = 0

    def __init__(self, site: Call, order: Tuple[int, ...]):
        CallPlan.built += 1
        exprs = site.exprs
        count = len(exprs)
        self.site = site
        self.order = order
        self.is_identity = order == identity_permutation(count)
        if self.is_identity:
            in_order = exprs
        elif len(order) != count or sorted(order) != list(range(count)):
            raise StuckError(f"policy returned a non-permutation: {order}")
        else:
            in_order = tuple(exprs[i] for i in order)
        self.in_order = in_order
        self.first: Expr = in_order[0]
        pending: Tuple[Expr, ...] = in_order[1:]
        self.pending = pending
        self.suffixes: Tuple[Tuple[Expr, ...], ...] = tuple(
            [pending[j:] for j in range(len(pending) + 1)]
        )
        # Each suffix's free variables are its head's joined to the next
        # suffix's: one union per pending expression, built from the
        # right.
        fvs = [frozenset()]
        for expr in reversed(pending):
            fvs.append(free_vars(expr) | fvs[-1])
        self.suffix_fvs: Tuple[FrozenSet[str], ...] = tuple(reversed(fvs))
        # Expression-class codes in evaluation order (first, then the
        # pending sequence): 1 = Var, 2 = Quote, 3 = Lambda,
        # 4 = all-simple nested call (a gen-2 superinstruction
        # candidate), 0 = other.  Kinds 1-3 are the "simple"
        # expressions — a single transition with no continuation
        # inspection — which the fused run loop may evaluate inline
        # without materializing intermediate frames; kind 4 marks a
        # call whose every subexpression is a Var or Quote, which the
        # gen-2 loop may evaluate as one batched transition when the
        # operator turns out to be a non-control primop.  Exact-class
        # codes only: AST subclasses take the generic path.
        #
        # Aligned with the codes, one pass fills the per-position gen-2
        # annotations: the lexical address of a Var operand (or None),
        # the interned constant of a Quote operand (None for strings —
        # those must stay fresh per evaluation), and the inner identity
        # plan of a kind-4 operand.
        rows = []
        for expr in in_order:
            cls = type(expr)
            kind = _EXPR_KIND.get(cls, 0)
            addr = const = inner = None
            if kind == 1:
                addr = expr.addr
            elif kind == 2:
                if type(expr.value) is not str:
                    const = quote_value(expr)
            elif cls is Call and _all_simple(expr.exprs):
                kind = 4
                inner = call_plan(expr, identity_permutation(len(expr.exprs)))
            rows.append((kind, addr, const, inner))
        self.kinds, self.addrs, self.consts, self.nested = zip(*rows)
        #: True when every subexpression is a Var or Quote — the shape
        #: whose whole evaluation is pure (no store effects before the
        #: application step), so it may be speculated.
        self.simple_all = set(self.kinds) <= {1, 2}
        #: Transitions a full inline evaluation of this call consumes:
        #: the call reduction, one eval and one advance/complete step
        #: per subexpression, and the application step.
        self.fuse_cost = 2 * count + 2
        #: Whole-call speculation hints.  ``speculate`` is cleared the
        #: first time the operator turns out unfusable for *every*
        #: machine (neither a non-control primop nor a beta-shaped
        #: closure — a site tends to keep its operator kind, and
        #: re-speculating every visit would pay the failed operator
        #: read per step).  ``beta_only`` is set when the operator is a
        #: closure, so machines whose call frame rules out the beta
        #: superinstruction stop probing the site while beta-capable
        #: machines keep fusing it — plans are interned per site, and a
        #: machine-dependent decline must not poison the plan globally.
        #: Both are purely performance hints: fusion is optional, so a
        #: stale value only means the generic — exact — path.
        self.speculate = True
        self.beta_only = False
        #: Monomorphic beta-superinstruction cache: ``(lam, spec,
        #: fns)`` with *spec* from ``machine.machine._beta_spec`` (None
        #: when the pair does not fuse) and *fns* the per-machine-class
        #: generated appliers.  The spec is machine-independent, so one
        #: cache per interned plan is sound across the whole pack.
        self.beta_cache = None

    def __repr__(self) -> str:
        return f"CallPlan(|exprs|={len(self.site.exprs)}, order={self.order})"

    def __getstate__(self):
        # beta_cache holds per-machine-class *generated functions*
        # (unpicklable, and bound to the building process); everything
        # else is plain data.  Dropped on pickle, rebuilt lazily at the
        # first fused application in the receiving process.
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["beta_cache"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


#: Simple-expression codes for :attr:`CallPlan.kinds`.
_EXPR_KIND = {Var: 1, Quote: 2, Lambda: 3}


def _all_simple(exprs: Tuple[Expr, ...]) -> bool:
    """True when every expression is a Var or Quote (exact classes)."""
    for expr in exprs:
        if type(expr) is not Var and type(expr) is not Quote:
            return False
    return True


_ABSENT = object()


def if_test_plan(node: If) -> Optional[CallPlan]:
    """The interned identity plan of *node*'s test when the test is an
    all-simple call — the shape the gen-2 loop can evaluate without
    materializing the select frame — else None."""
    plan = node.test_plan
    if plan is None:
        test = node.test
        if type(test) is Call and test.exprs:
            plan = call_plan(test, identity_permutation(len(test.exprs)))
            if plan.simple_all:
                derive(node, "test_plan", plan)
            else:
                plan = None
    return plan


def body_fuse_plan(lam: Lambda) -> Optional[CallPlan]:
    """The interned identity plan of *lam*'s body when the body is an
    all-simple call — the accessor/predicate shape (``(car x)``,
    ``(number? tree)``) the gen-2 loop can apply without materializing
    any frame — else None."""
    plan = getattr(lam, "body_plan", _ABSENT)
    if plan is _ABSENT:
        plan = None
        body = lam.body
        if type(body) is Call and body.exprs:
            plan = call_plan(body, identity_permutation(len(body.exprs)))
            if not plan.simple_all:
                plan = None
        derive(lam, "body_plan", plan)
    return plan


#: Node classes whose binding structure :func:`_unlowered` knows.
_KNOWN = (Call, If, SetBang, Quote, Var)


def _unlowered(expr: Expr):
    """*expr*'s nodes with their lexical scopes, preorder, leaving out
    every subtree an earlier :func:`annotate` lowered as a root and
    that sits outside all of *expr*'s lambdas.  No binding of *expr*
    reaches into such a subtree, so its annotations stand; the
    ``(P D)`` wrapper of :meth:`Machine.inject` thus lowers only itself
    and a new argument.  The scope is the tuple of enclosing lambdas'
    parameter tuples, or None below an unknown Expr subclass (whose
    binding structure the prepass does not know)."""
    nodes = []
    stack = [(expr, ())]
    while stack:
        node, scope = stack.pop()
        if scope == () and node.annotated:
            continue
        nodes.append((node, scope))
        cls = node.__class__
        if cls is Lambda:
            stack.append((node.body, scope + (node.params,)))
            continue
        if scope is not None and cls not in _KNOWN:
            scope = None
        for sub in reversed(node.subexpressions()):
            stack.append((sub, scope))
    return nodes


def _resolve_address(node: Var, scope, mutated) -> None:
    """Assign *node* its gen-2 lexical address when it is quickenable:
    bound by an enclosing Lambda and its name never a ``set!`` target
    anywhere in the walk (name-based over-approximation is sound — it
    only disables the fast path).  Other Vars keep ``addr = None``, the
    named lookup.

    An address is ``(slot, path, fast)``: *path* is the tuple of
    enclosing lambdas' parameter tuples from the innermost out to (and
    including) the binding lambda, and *slot* indexes the name in the
    last of them.  Runtime frames record the parameter tuple they were
    extended with, so a lookup walks the frame chain checking tuple
    *identity* per level and trusts the slot only when every level
    matches — restricted or hand-built frames never match and fall back
    to named lookup."""
    name = node.name
    if name in mutated or node.addr is not None:
        return
    path = []
    for params in reversed(scope):
        path.append(params)
        if name in params:
            # The third field pre-answers the overwhelmingly common
            # depth-1 case: the binding lambda's own params tuple when
            # the path is one level (so the lookup site is a single
            # identity check + index), else False (an ``is`` check
            # against a frame's params tuple or None can never match
            # False, so deep vars take the chain walk).
            derive(node, "addr", (
                params.index(name),
                tuple(path),
                params if len(path) == 1 else False,
            ))
            return


def call_plan(site: Call, order: Tuple[int, ...]) -> CallPlan:
    """The interned :class:`CallPlan` for *site* under *order*,
    validating the permutation on first sight only."""
    plan = site.identity_plan
    if plan is not None and plan.order == order:
        return plan
    plans = getattr(site, "plans", None)
    if plans is None:
        plans = derive(site, "plans", {})
    plan = plans.get(order)
    if plan is None:
        plan = plans[order] = CallPlan(site, order)
        if plan.is_identity:
            derive(site, "identity_plan", plan)
    return plan


def quote_value(node: Quote):
    """The runtime value of ``(quote c)``, interned when immutable.

    ``eqv?`` compares numbers, booleans, symbols, and characters by
    content, so interning their values is unobservable; ``str``
    constants are not interned (``eqv?`` on strings is identity, so the
    seed's fresh Str per evaluation is observable)."""
    value = node.const
    if value is None:
        value = constant_value(node.value)
        if type(node.value) is not str:
            derive(node, "const", value)
    return value


def annotate(expr: Expr) -> Expr:
    """Run the static pre-pass over *expr* and mark it lowered.

    Interns, per node: Lambda/If/set! free-variable sets, the
    identity-order :class:`CallPlan` of every call site (the default
    left-to-right policy's order; other orders fill lazily at first
    execution), immutable quote values, gen-2 lexical addresses, and
    if-test fusion plans — all on the nodes themselves.  Returns
    *expr*.  A root already lowered is returned at once, and lowered
    subtrees outside every lambda of *expr* are not walked again.
    """
    if expr.annotated:
        return expr
    nodes = _unlowered(expr)
    mutated = {node.name for node, _ in nodes if node.__class__ is SetBang}
    # Addresses first, so every CallPlan built below sees its operands'.
    for node, scope in nodes:
        if scope and node.__class__ is Var:
            _resolve_address(node, scope, mutated)
    for node, _ in nodes:
        cls = node.__class__
        if cls is Call:
            call_plan(node, identity_permutation(len(node.exprs)))
        elif cls is Lambda:
            free_vars(node)
        elif cls is If:
            branch_free_vars(node.consequent, node.alternative)
            if_test_plan(node)
        elif cls is SetBang:
            name_set(node.name)
            free_vars(node)
        elif cls is Quote:
            quote_value(node)
    derive(expr, "annotated", True)
    return expr


def plan_count() -> int:
    """Number of :class:`CallPlan` objects built in this process
    (introspection: perfbench reads its growth per job)."""
    return CallPlan.built
