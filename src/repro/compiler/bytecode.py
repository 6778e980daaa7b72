"""Gen-3 lowering: linear register bytecode for lambda bodies.

The gen-2 tier (``prepass.py`` + the fused run loop) still re-enters
the CESK transition dispatcher for every body expression: each call
site re-derives its environment bookkeeping, and a self-tail call
rebuilds the whole ``reduce -> eval* -> apply`` cycle through the
generic loop.  This module lowers a ``Lambda`` body **once** into a
flat tuple of register instructions, the input of the per-variant
code generator (:mod:`repro.compiler.pycodegen`), which turns a hot
code into one Python function:

- operand runs become *slot* lists read straight from registers,
  interned constants, or environment bindings;
- a tail call whose operator turns out, at run time, to be the
  lambda being executed becomes a direct back-edge: the generated
  function commits the seed's apply effects (argument allocation,
  environment extension, the variant's frame continuation) and jumps
  back to instruction 0 of the same code object — a Python ``while``
  loop in place of Push/CallK continuation traffic;
- non-tail calls of compiled closures descend into the callee's code
  (bounded Python recursion), and direct lambda applications in tail
  position (``let``) are inlined into the caller's code
  (``EA_DIRECT``).

**Tiering** (DESIGN.md §7.2): a lambda runs on the gen-2 loop until
it is hot.  Its :class:`Code` record starts unlowered, and
``Code.heat`` counts its entries up to the tier-up threshold (gen-2's
apply sites and ``machine.machine._enter_code`` count them); the entry
past the threshold lowers the body (:meth:`Code.lower`) and builds the
function, and every colder one runs on gen-2 from the callee's entry
configuration.  Code that is never hot is never lowered.

**Exactness contract** (DESIGN.md §7.2): compiled execution is *pure
batching* of seed transitions.  Every instruction carries enough
static context to reconstruct the exact seed configuration at every
instruction boundary — the continuation register is always the real
continuation (frame continuations are built eagerly, per the
variant's declared kind), and the environment register is derivable
from the frame environment plus a static context descriptor (the
``_saved_env`` monotone-restriction argument).  Anything the bytecode
cannot express compiles to a *deopt* instruction that hands the
pending expression to the gen-2 loop in exactly the configuration the
seed would be in.  Speculative operator classifications are guarded
at run time; a failed guard materializes the call continuation and
exits — the generic, exact rules then apply whatever the operator
really is.

Like the prepass, everything here is **derived, never authoritative**:
a lambda's code is a pure function of the immutable AST, lowered once
it is hot and kept on the ``Lambda`` node itself
(:func:`repro.syntax.ast.derive`), so it lives and dies with the
program and pickles with it — minus its process-bound half, the
generated functions and the entry count.
"""

from __future__ import annotations

from typing import Optional

from ..machine.policy import identity_permutation
from ..syntax.ast import Call, Expr, If, Lambda, Quote, Var, derive
from ..syntax.free_vars import branch_free_vars
from .prepass import call_plan, if_test_plan, quote_value

# -- opcodes ---------------------------------------------------------------

OP_CALL = 0  # (OP_CALL, plan, resume, i0, slots, vreg, ea, a, b, ctx)
OP_IF = 1    # (OP_IF, node, tspec, else_pc, sel_fvs, ctx)
OP_RET = 2   # (OP_RET, spec, expr, ctx)
OP_DEOPT = 3  # (OP_DEOPT, expr, ctx)

# -- operand slot tags (one evaluated call position each) ------------------

S_REG = 0     # (S_REG, reg, None)        a never-mutated bound variable
S_CONST = 1   # (S_CONST, value, None)    an interned quote constant
S_STR = 2     # (S_STR, node, None)       a string quote (fresh per eval)
S_NAME = 3    # (S_NAME, name, None)      named environment lookup
S_NESTED = 4  # (S_NESTED, plan, subs)    all-simple nested call (kind 4)
S_LAMBDA = 5  # (S_LAMBDA, node, None)    closure creation (tag alloc)
S_DONE = 6    # (S_DONE, reg, None)       value of a compound operand

# -- end actions (what happens once every position is evaluated) -----------
#
# Operators are resolved at *run time*: the corpus idiom threads a
# procedure's self-reference through a parameter (``(go go n)``), which
# the static call graph must classify "unknown" — so the back-edge and
# descent checks test the operator value itself, with the static
# classification only informing compile-worthiness heuristics.

EA_PUSH = 0    # a: next compound position — park vals, build the Push
EA_VALUE = 1   # a: dst — non-tail: primop apply or in-code descent
EA_TAIL = 2    # a: dst — tail: self back-edge, primop apply, or exit
EA_DIRECT = 3  # a: regstart, b: target Lambda — inline let application

#: Bound on EA_DIRECT inlining (a chain of lets compiles into one code
#: object up to this depth; deeper lets fall back to guarded exits).
_INLINE_DEPTH = 8

#: The entry count of a record whose body deopts at once: below any
#: tier-up threshold for far longer than a run lasts, and still an int
#: CPython compares on its fast path at the apply sites.
_NEVER_HOT = -(1 << 29)


class Code:
    """One lambda's gen-3 record: its entry count, its lowered body
    once hot, and its generated functions."""

    __slots__ = ("lam", "nregs", "instrs", "fns", "heat")

    #: Bodies lowered in this process (:func:`code_count`).
    built = 0

    def __init__(self, lam: Lambda):
        self.lam = lam
        # The lowered body (:meth:`lower`); None until the code is hot.
        self.nregs = 0
        self.instrs = None
        # Machine class -> generated Python function (see
        # compiler/pycodegen.py), or None when generation declined.
        self.fns = {}
        # Entries counted up to the tier-up threshold: the clock that
        # decides when the body is lowered and the function built.
        self.heat = 0

    def lower(self) -> bool:
        """Lower the body into register instructions, once; False when
        the body deopts at once (entering it would do nothing but
        bounce back out to the gen-2 loop), and then the record stops
        getting hot, so its entries stay on gen-2 as cold ones."""
        if self.instrs is None:
            Code.built += 1
            self.nregs, self.instrs = _lower_body(self.lam)
        if self.instrs[0][0] == OP_DEOPT:
            self.heat = _NEVER_HOT
            return False
        return True

    def __repr__(self) -> str:
        size = "unlowered" if self.instrs is None else len(self.instrs)
        return (
            f"Code(params={self.lam.params}, nregs={self.nregs}, "
            f"|instrs|={size})"
        )

    def __getstate__(self):
        # fns holds generated Python functions (unpicklable) and heat
        # counts this process's entries: the receiving process starts
        # the code cold and tiers it up on its own entries.
        return (self.lam, self.nregs, self.instrs)

    def __setstate__(self, state):
        self.lam, self.nregs, self.instrs = state
        self.fns = {}
        self.heat = 0


def gen3_code(lam: Lambda) -> Code:
    """The gen-3 record of *lam*, created unlowered on first probe and
    kept on the node (``lam.code``, None until then)."""
    code = lam.code
    if code is None:
        code = derive(lam, "code", Code(lam))
    return code


def code_count() -> int:
    """Number of lambda bodies lowered in this process (introspection:
    perfbench reads its growth per job)."""
    return Code.built


# -- the compiler ----------------------------------------------------------


class _Emitter:
    """Mutable state of one lambda-body compilation."""

    __slots__ = ("lam", "instrs", "nregs")

    def __init__(self, lam: Lambda):
        self.lam = lam
        self.instrs = []
        self.nregs = len(lam.params)

    def reg(self) -> int:
        r = self.nregs
        self.nregs = r + 1
        return r


def _lower_body(lam: Lambda) -> tuple:
    """``(nregs, instrs)`` of *lam*'s body.  Every body lowers, even a
    bare value: an unlowered callee would force an exit to the gen-2
    loop at every call that reaches it (the trampoline shape — a
    one-call body re-dispatching a tail loop — is exactly the case that
    must stay in-code for the cross-code tail transfer to reconstruct
    mutual loops).  A body the emitter deopts on immediately lowers
    too; :meth:`Code.lower` reports it as not worth entering."""
    em = _Emitter(lam)
    scope = {name: i for i, name in enumerate(lam.params)}
    _emit_tail(em, lam.body, scope, (None, None), 0)
    return em.nregs, tuple(em.instrs)


def _slot(em: _Emitter, plan, i: int, scope) -> Optional[tuple]:
    """The slot descriptor of simple position *i* of *plan*, or None
    when the position is compound."""
    kind = plan.kinds[i]
    expr = plan.in_order[i]
    if kind == 1:  # Var
        # A register read is sound only for a name bound by this code
        # object's frame *and* proven never set! anywhere (the prepass
        # lexical address exists exactly then).
        reg = scope.get(expr.name)
        if reg is not None and plan.addrs[i] is not None:
            return (S_REG, reg, None)
        return (S_NAME, expr.name, None)
    if kind == 2:  # Quote
        const = plan.consts[i]
        if const is None:  # a string constant: stays fresh per eval
            return (S_STR, expr, None)
        return (S_CONST, const, None)
    if kind == 3:  # Lambda
        return (S_LAMBDA, expr, None)
    if kind == 4:  # all-simple nested call
        inner = plan.nested[i]
        return (S_NESTED, inner, _nested_subs(inner, scope))
    return None


def _nested_subs(inner, scope) -> tuple:
    """Sub-slot descriptors for every position of an all-simple nested
    plan (positions are Vars or Quotes only), resolved against the
    enclosing code object's register scope — the code generator inlines
    the nested-primop fast path from these."""
    subs = []
    for j in range(len(inner.in_order)):
        expr = inner.in_order[j]
        if inner.kinds[j] == 1:  # Var
            reg = scope.get(expr.name)
            if reg is not None and inner.addrs[j] is not None:
                subs.append((S_REG, reg))
            else:
                subs.append((S_NAME, expr.name))
        else:  # Quote
            const = inner.consts[j]
            if const is None:
                subs.append((S_STR, expr))
            else:
                subs.append((S_CONST, const))
    return tuple(subs)


def _emit_tail(em: _Emitter, expr: Expr, scope, ctx, depth) -> None:
    """Compile *expr* in tail position (the value returns through the
    frame's accumulated continuations)."""
    cls = expr.__class__
    if cls is Call and expr.exprs:
        out = _emit_call(em, expr, True, scope, ctx, depth)
        if out is not None:  # a value register: return it
            em.instrs.append((OP_RET, (S_DONE, out, None), expr, ctx))
        return
    if cls is If:
        _emit_if(em, expr, scope, ctx, depth)
        return
    if cls is Var:
        reg = scope.get(expr.name)
        if reg is not None and expr.addr is not None:
            spec = (S_REG, reg, None)
        else:
            spec = (S_NAME, expr.name, None)
        em.instrs.append((OP_RET, spec, expr, ctx))
        return
    if cls is Quote:
        if type(expr.value) is str:
            spec = (S_STR, expr, None)
        else:
            spec = (S_CONST, quote_value(expr), None)
        em.instrs.append((OP_RET, spec, expr, ctx))
        return
    if cls is Lambda:
        em.instrs.append((OP_RET, (S_LAMBDA, expr, None), expr, ctx))
        return
    # set! and unknown expression classes: the generic loop, exactly.
    em.instrs.append((OP_DEOPT, expr, ctx))


def _emit_if(em: _Emitter, node: If, scope, ctx, depth) -> None:
    test = node.test
    tcls = test.__class__
    tspec = None
    if tcls is Var:
        reg = scope.get(test.name)
        if reg is not None and test.addr is not None:
            tspec = (S_REG, reg, None)
        else:
            tspec = (S_NAME, test.name, None)
    elif tcls is Quote:
        if type(test.value) is str:
            tspec = (S_STR, test, None)
        else:
            tspec = (S_CONST, quote_value(test), None)
    elif tcls is Call:
        plan = if_test_plan(node)
        if plan is not None:
            tspec = (S_NESTED, plan, _nested_subs(plan, scope))
    if tspec is None:
        # Compound non-fusable test: the whole conditional runs under
        # the generic rules (select frame and all).
        em.instrs.append((OP_DEOPT, node, ctx))
        return
    sel_fvs = branch_free_vars(node.consequent, node.alternative)
    at = len(em.instrs)
    em.instrs.append(None)  # patched below (needs else_pc)
    # Downstream context: after the select pop the seed environment is
    # the (possibly branch-restricted) saved environment — for every
    # gen-3 variant that is the frame environment, restricted to the
    # branch free variables on declared restrict-branch-fv machines
    # (monotone: the branch sets shrink under composition).
    bctx = (None, sel_fvs)
    _emit_tail(em, node.consequent, scope, bctx, depth)
    else_pc = len(em.instrs)
    em.instrs[at] = (OP_IF, node, tspec, else_pc, sel_fvs, ctx)
    _emit_tail(em, node.alternative, dict(scope), bctx, depth)


def _emit_call(em: _Emitter, site: Call, tail: bool, scope, ctx, depth,
               ) -> Optional[int]:
    """Compile one call.  Returns the register its value lands in when
    in-code execution continues past it, or None when control flow is
    closed (a reconstructed loop, an inlined let body, or a deopt /
    guarded exit whose continuation lives outside this code)."""
    plan = call_plan(site, identity_permutation(len(site.exprs)))
    kinds = plan.kinds
    exprs = plan.in_order
    count = len(exprs)
    vreg = em.reg()

    slots = []
    i0 = 0
    resume = -1
    for i in range(count):
        slot = _slot(em, plan, i, scope)
        if slot is not None:
            slots.append(slot)
            continue
        # Compound position: park the evaluated prefix under the real
        # push continuation and compute the operand.
        em.instrs.append((
            OP_CALL, plan, resume, i0, tuple(slots), vreg,
            EA_PUSH, i, None, ctx,
        ))
        opd_ctx = (((plan, i - 1), None) if i > 0 else ctx)
        sub = exprs[i]
        if sub.__class__ is Call and sub.exprs:
            out = _emit_call(em, sub, False, scope, opd_ctx, depth)
            if out is None:
                return None  # operand exits to the generic loop
            i0 = i
            resume = out
            slots = []
        else:
            # if / set! / unknown operand: generic from here on.
            em.instrs.append((OP_DEOPT, sub, opd_ctx))
            return None

    # End action for the completed call.
    last_seg = (OP_CALL, plan, resume, i0, tuple(slots), vreg)
    nargs = count - 1
    if tail:
        if (
            kinds[0] == 3
            and len(exprs[0].params) == nargs
            and depth < _INLINE_DEPTH
        ):
            # ((lambda (x ...) body) a ...) in tail position: a let —
            # apply in place and keep compiling the body here.
            let_lam = exprs[0]
            regstart = em.nregs
            em.nregs += nargs
            em.instrs.append(
                last_seg + (EA_DIRECT, regstart, let_lam, ctx)
            )
            inner = dict(scope)
            for k, name in enumerate(let_lam.params):
                inner[name] = regstart + k
            _emit_tail(em, let_lam.body, inner, (None, None), depth + 1)
            return None
        dst = em.reg()
        em.instrs.append(last_seg + (EA_TAIL, dst, None, ctx))
        return dst
    dst = em.reg()
    em.instrs.append(last_seg + (EA_VALUE, dst, None, ctx))
    return dst
