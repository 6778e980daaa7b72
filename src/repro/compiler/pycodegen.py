"""Gen-3: per-variant Python code generation for hot code.

This module translates a compiled :class:`~repro.compiler.bytecode.Code`
object into **one generated Python function per machine variant** —
the reconstructed self-tail loop literally becomes a Python ``while``
loop whose registers are Python locals and whose back-edge is
``continue``.  Building one costs a ``compile`` call, so
``machine.machine._enter_code`` builds it only once the code is hot;
until then the code runs on the gen-2 loop (DESIGN.md §7.2).

Exactness: the generated source is the code's instructions partially
evaluated over the variant's flags, replaying the seed's transitions.
Every machine-flag branch (``d_env``, select restriction, closure
restriction, frame mode) folds at generation time, and every
instruction is emitted in two forms behind a one-shot budget guard:

- a **fast body**, taken when the remaining step budget provably
  covers the instruction's whole static transition cost — boundary
  checks vanish and consecutive step increments fuse into one
  ``steps += n`` (sound because ``steps`` is observable only at
  boundary returns and final answers, never at a raise: errors
  propagate out of the meter without recording a count);
- a **careful body** with a boundary check before every transition,
  taken near a batch boundary, so any budget, down to one step, is
  taken exactly.

Dynamically-costed work (the nested beta superinstruction) runs under
a *reduced* budget inside the fast body so the static tail of the
instruction stays affordable; a decline under the reduced budget exits
to the gen-2 loop at an exact seed configuration — batching
boundaries are a performance choice, never a semantic one (DESIGN.md
§7.2).  Anything the generator does not recognize declines
(``build_fn`` returns None) and the code keeps running on gen-2.

Cross-code tail calls return a ``_TRANSFER`` marker to
``_enter_code``, which re-dispatches to the target code's generated
function — a trampoline, so mutual tail loops consume no Python
stack.  Non-tail
calls of compiled closures descend into the callee's function, up to
``_MAX_DESCENT`` Python frames deep; a deeper call exits to the gen-2
loop, which re-enters the callee at depth 0, so the Python stack stays
bounded while in-language recursion is not.
"""

from __future__ import annotations

from ..syntax.free_vars import free_vars
from .bytecode import (
    EA_DIRECT,
    EA_PUSH,
    EA_TAIL,
    OP_CALL,
    OP_DEOPT,
    OP_IF,
    OP_RET,
    S_CONST,
    S_DONE,
    S_LAMBDA,
    S_NAME,
    S_NESTED,
    S_REG,
    S_STR,
)

#: Bound on nested descents into compiled callees (one Python frame
#: each); the generated guard exits to the gen-2 loop past it.
_MAX_DESCENT = 60

#: First element of a generated function's return tuple when the
#: activation tail-called into another compiled code object: the driver
#: unpacks ``(_TRANSFER, code, args, base, kont, steps)`` and re-enters.
_TRANSFER = object()


class _Unsupported(Exception):
    """An instruction shape the generator does not handle."""


_G = None


def _globals():
    """The shared namespace generated functions execute in (late import:
    machine.machine imports this module)."""
    global _G
    if _G is None:
        from ..machine import machine as M
        from ..machine.continuation import (
            CallK, Push, Return, ReturnStack, Select,
        )
        from ..machine.environment import EMPTY_ENV
        from ..machine.errors import ArityError, UnboundVariableError
        from ..machine.values import (
            FALSE, Closure, Primop, UNDEFINED, UNSPECIFIED,
        )
        from .bytecode import gen3_code
        from .prepass import quote_value
        _G = {
            "Push": Push, "CallK": CallK, "Return": Return,
            "ReturnStack": ReturnStack, "Select": Select,
            "Closure": Closure, "Primop": Primop, "FALSE": FALSE,
            "UNDEFINED": UNDEFINED, "UNSPECIFIED": UNSPECIFIED,
            "ArityError": ArityError,
            "UnboundVariableError": UnboundVariableError,
            "EMPTY_ENV": EMPTY_ENV, "quote_value": quote_value,
            "gen3_code": gen3_code,
            "_nested_value": M._nested_value,
            "_nested_beta": M._nested_beta,
            "_NO_FUSE": M._NO_FUSE, "_BETA_ONLY": M._BETA_ONLY,
            "_saved_env": M._saved_env, "_arity_text": M._arity_text,
            "_enter_code": M._enter_code,
            "_finish_transfer": M._finish_transfer,
            "_TRANSFER": _TRANSFER,
        }
    return _G


def build_fn(code, machine):
    """Generate the specialized function of *code* for *machine*'s
    variant, lowering the body first if it is not yet; None when
    generation declines (a body that deopts at once included)."""
    if not code.lower():
        return None
    try:
        gen = _Gen(code, machine)
        src = gen.generate()
    except _Unsupported:
        return None
    ns = dict(_globals())
    ns["_K"] = gen.consts
    exec(compile(src, f"<gen3:{machine.name}>", "exec"), ns)
    return ns["_gen3_fn"]


def build_beta_fn(plan, lam, spec, machine):
    """Generate the specialized beta applier for (*plan*, *lam*,
    *machine*'s class): the body of ``machine.machine._nested_beta``
    after its spec probe, with the fold map unrolled into direct
    expressions, the cost baked (``pair_cost + _beta_extra`` is a class
    constant), and the held environment decided at generation time.
    Same return protocol: ``(value, cost, held)`` / None / _NO_FUSE."""
    params, body, bmode, bx, folds, pair_cost = spec
    cost = pair_cost + machine._beta_extra
    consts = []
    cnames = {}

    def cn(obj):
        key = id(obj)
        name = cnames.get(key)
        if name is None:
            name = f"_c{len(consts)}"
            cnames[key] = name
            consts.append(obj)
        return name

    lines = []
    w = lines.append
    if bmode == 0:
        w(f"    bop = args[{bx}]")
        w("    if bop.__class__ is not Primop or bop.controls:")
        w("        return _NO_FUSE")
    else:
        w(f"    loc = op.env._bindings.get({cn(bx)})")
        w("    bop = cells_get(loc) if loc is not None else None")
        w("    if bop is None or bop.__class__ is not Primop "
          "or bop.controls:")
        w("        return _NO_FUSE")
    w(f"    if {cost} > budget:")
    w("        return None")
    n = len(params)
    if n == 0:
        w(f"    body_env = op.env.extend({cn(params)}, ())")
    elif n == 1:
        w(f"    body_env = op.env.extend_alloc1("
          f"store, {cn(params)}, args[0])")
    else:
        w(f"    body_env = op.env.extend_alloc("
          f"store, {cn(params)}, args)")
    bargxs = []
    for j, (tag, x) in enumerate(folds):
        t = f"b{j}"
        bargxs.append(t)
        if tag == 0:
            w(f"    {t} = args[{x}]")
        elif tag == 1:
            w(f"    {t} = {cn(x)}")
        elif tag == 2:
            # Fused miss check; the slow arm re-derives the seed's
            # error priority (see _Gen.emit_load).
            name, unbound, unmapped, undef = x
            w(f"    {t} = cells_get(body_env._bindings.get({cn(name)}))")
            w(f"    if {t} is None or {t} is UNDEFINED:")
            w(f"        if body_env._bindings.get({cn(name)}) is None:")
            w(f"            raise UnboundVariableError({cn(unbound)})")
            w(f"        if {t} is None:")
            w(f"            raise UnboundVariableError({cn(unmapped)})")
            w(f"        raise UnboundVariableError({cn(undef)})")
        else:
            w(f"    {t} = quote_value({cn(x)})")
    nb = len(bargxs)
    bargs = "(" + ", ".join(bargxs) + ("," if nb == 1 else "") + ")"
    def arity_check(pad):
        w(pad + "ar = bop.arity")
        w(pad + "if ar is not None:")
        w(pad + "    lo, hi = ar")
        w(pad + f"    if {nb} < lo or (hi is not None and {nb} > hi):")
        w(pad + "        raise ArityError(f\"{bop.name} expects "
          "{_arity_text(lo, hi)} arguments, got " + str(nb) + "\")")
    if nb == 1 or nb == 2:
        # A registered procN asserts arity N is accepted; the check
        # runs only on the generic fallback (see values.Primop).
        w(f"    _p = bop.proc{nb}")
        w("    if _p is not None:")
        w(f"        value = _p(machine, store, {', '.join(bargxs)})")
        w("    else:")
        arity_check("        ")
        w(f"        value = bop.proc(machine, store, {bargs})")
    else:
        arity_check("    ")
        w(f"    value = bop.proc(machine, store, {bargs})")
    if machine._default_call_frame:
        w(f"    return value, {cost}, (body_env, {cn(body)})")
    else:
        w(f"    return value, {cost}, None")
    defaults = ", ".join(f"_c{i}=_K[{i}]" for i in range(len(consts)))
    star = f", *, {defaults}" if defaults else ""
    src = ("def _beta_fn(machine, store, op, args, cells_get, budget"
           + star + "):\n" + "\n".join(lines) + "\n")
    ns = dict(_globals())
    ns["_K"] = consts
    exec(compile(src, f"<gen3beta:{machine.name}>", "exec"), ns)
    return ns["_beta_fn"]


def _slot_cost(slot) -> int:
    """Static transition cost of evaluating one operand slot: the eval
    and the advance for a plain slot, the fused nested cost plus the
    advance for a nested-primop slot (a nested call that resolves to
    the beta shape re-budgets dynamically inside the fast body)."""
    if slot[0] == S_NESTED:
        return slot[1].fuse_cost + 1
    return 2


class _Gen:
    """One (code object, machine variant) generation."""

    def __init__(self, code, machine):
        self.code = code
        self.machine = machine
        self.lines = []
        self.consts = []
        self._cnames = {}
        # Variant flags, folded into the source.
        self.d_env = machine._default_call_env and machine._default_push_env
        self.d_select = machine._default_select_env
        self.closure_fv = machine._closure_env_fv
        self.fuse_beta = machine._fuse_beta
        self.primop_apply = machine._primop_apply
        self.mode = machine._gen3_mode
        self.sel_fv = machine._select_env_fv

    # -- source plumbing ---------------------------------------------------

    def w(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def cn(self, obj) -> str:
        """The local name bound (via keyword default) to *obj*."""
        key = id(obj)
        name = self._cnames.get(key)
        if name is None:
            name = f"_c{len(self.consts)}"
            self._cnames[key] = name
            self.consts.append(obj)
        return name

    # -- folded environment expressions ------------------------------------

    def saved_expr(self, plan, j: int, base: str = "base") -> str:
        """``_saved_env(machine, base, plan, j)`` folded over the
        variant's hook flags and the plan's static suffix sets."""
        m = self.machine
        if j == 0:
            if m._default_call_env:
                return base
            if m._call_env_fv:
                fvs = plan.suffix_fvs[0]
                return f"{base}.restrict({self.cn(fvs)})" if fvs \
                    else "EMPTY_ENV"
            return base if plan.pending else "EMPTY_ENV"
        if m._default_push_env:
            return base
        if m._push_env_fv:
            fvs = plan.suffix_fvs[j]
            return f"{base}.restrict({self.cn(fvs)})" if fvs \
                else "EMPTY_ENV"
        return base if plan.suffixes[j] else "EMPTY_ENV"

    def ctx_expr(self, ctx) -> str:
        """The seed environment register at a code point with static
        context *ctx* = ``(opd, bfv)``: the saved environment of operand
        position *opd* (or the frame environment), restricted to the
        branch free-variable set *bfv* on machines declaring the I_sfs
        branch restriction — exact by the monotone-restriction argument
        of ``_saved_env``."""
        opd, bfv = ctx
        e = "base" if opd is None else self.saved_expr(opd[0], opd[1])
        if bfv is not None and self.sel_fv:
            e = f"({e}).restrict({self.cn(bfv)})"
        return e

    def push_expr(self, plan, i: int, vals: str) -> str:
        p = self.cn(plan)
        sfx = self.cn(plan.suffixes[i])
        order = self.cn(plan.order)
        site = self.cn(plan.site)
        return (
            f"Push({sfx}, {vals}, {order}, "
            f"{self.saved_expr(plan, i)}, kont, {site}, {p})"
        )

    def pos_env_expr(self, plan, i: int, ctx) -> str:
        """The environment register at evaluation position *i*: the
        seed's register at a boundary before (or holding the value of)
        that position."""
        if i == 0:
            return self.ctx_expr(ctx)
        return self.saved_expr(plan, i - 1)

    # -- loads -------------------------------------------------------------

    def emit_load(self, ind: int, target: str, stag: int, a) -> None:
        w = self.w
        if stag == S_REG:
            w(ind, f"{target} = r{a}")
        elif stag == S_CONST:
            w(ind, f"{target} = {self.cn(a)}")
        elif stag == S_STR:
            w(ind, f"{target} = quote_value({self.cn(a)})")
        elif stag == S_NAME:
            # One fused miss check on the good path (``cells_get(None)``
            # is None, so an unbound name funnels into the same arm);
            # the slow arm re-derives the seed's exact error and
            # priority order (unbound, then unmapped, then undefined).
            name = a
            cname = self.cn(name)
            w(ind, f"{target} = cells_get(bindings.get({cname}))")
            w(ind, f"if {target} is None or {target} is UNDEFINED:")
            w(ind + 1, f"if bindings.get({cname}) is None:")
            w(ind + 2, "raise UnboundVariableError("
                       f"{self.cn(f'unbound variable: {name}')})")
            w(ind + 1, f"if {target} is None:")
            msg = f"variable {name} refers to an unmapped location"
            w(ind + 2, f"raise UnboundVariableError({self.cn(msg)})")
            msg = f"variable {name} read before initialization"
            w(ind + 1, f"raise UnboundVariableError({self.cn(msg)})")
        elif stag == S_LAMBDA:
            lam = a
            closed = (
                f"base.restrict({self.cn(free_vars(lam))})"
                if self.closure_fv else "base"
            )
            w(ind, f"{target} = Closure(store.alloc_tag(), "
                   f"{self.cn(lam)}, {closed})")
        else:
            raise _Unsupported(f"load tag {stag}")

    def emit_arity(self, ind: int, opv: str, n: int) -> None:
        """The primop arity check with the seed's error text."""
        w = self.w
        w(ind, f"ar = {opv}.arity")
        w(ind, "if ar is not None:")
        w(ind + 1, "lo, hi = ar")
        w(ind + 1, f"if {n} < lo or (hi is not None and {n} > hi):")
        w(ind + 2, "raise ArityError(f\"{" + opv + ".name} expects "
                   "{_arity_text(lo, hi)} arguments, got " + str(n)
                   + "\")")

    def frame_lines(self, ind: int, lam_src: str, env_src: str,
                    loc_src: str) -> None:
        """The variant's frame continuation at an in-code application."""
        w = self.w
        mode = self.mode
        if mode == 1:
            w(ind, f"kont = Return({env_src}, kont)")
        elif mode == 3:
            w(ind, f"kont = ReturnStack({loc_src}, {env_src}, kont)")
        elif mode == 2:
            trc = self.cn(self.machine.gen3_tagged)
            w(ind, f"if not (isinstance(kont, {trc}) "
                   f"and kont.code is {lam_src}):")
            w(ind + 1, f"kont = {trc}({lam_src}, {env_src}, kont)")

    # -- top level ---------------------------------------------------------

    def generate(self) -> str:
        code = self.code
        nparams = len(code.lam.params)
        self.emit(0, 2)
        body = self.lines
        head = []
        w = head.append
        defaults = ", ".join(
            f"_c{i}=_K[{i}]" for i in range(len(self.consts))
        )
        star = f", *, {defaults}" if defaults else ""
        w("def _gen3_fn(machine, store, args, base, kont, entry_kont, "
          f"steps, limit, depth{star}):")
        w("    bindings = base._bindings")
        w("    cells_get = store._cells.get")
        w("    val_env = base")
        if nparams == 1:
            w("    r0, = args")
        elif nparams:
            w("    " + ", ".join(f"r{k}" for k in range(nparams))
              + " = args")
        w("    while True:")
        return "\n".join(head + body) + "\n"

    def emit(self, pc: int, ind: int) -> None:
        """Emit instruction *pc* and, recursively, its successors."""
        while True:
            ins = self.code.instrs[pc]
            op = ins[0]
            if op == OP_CALL:
                self.emit_call(ins, ind)
                pc += 1  # fast and careful bodies both fall through
            elif op == OP_IF:
                self.emit_if(ins, pc, ind)
                return
            elif op == OP_RET:
                self.emit_ret(ins, ind)
                return
            elif op == OP_DEOPT:
                _, expr, ctx = ins
                self.w(ind, f"return ({self.cn(expr)}, False, "
                            f"{self.ctx_expr(ctx)}, kont, steps, False)")
                return
            else:
                raise _Unsupported(f"opcode {op}")

    # -- OP_CALL -----------------------------------------------------------

    def emit_call(self, ins, ind: int) -> None:
        (_, plan, resume, i0, slots, vreg, ea, ea_a, ea_b, ctx) = ins
        guard = 1 + sum(_slot_cost(s) for s in slots)
        if ea != EA_PUSH:
            # The application step plus one step of headroom so the
            # post-application boundary checks fold away too.
            guard += 2
        self.w(ind, f"if limit - steps >= {guard}:")
        self._call_body(ins, ind + 1, True)
        self.w(ind, "else:")
        self._call_body(ins, ind + 1, False)

    def _vals_expr(self, reg_mode: bool, i: int) -> str:
        """The evaluated prefix (positions < i) as a tuple expression."""
        if not reg_mode:
            return "tuple(v)"
        if i == 0:
            return "()"
        inner = ", ".join(f"s{k}" for k in range(i))
        return f"({inner},)" if i == 1 else f"({inner})"

    def _call_body(self, ins, ind: int, fast: bool) -> None:
        (_, plan, resume, i0, slots, vreg, ea, ea_a, ea_b, ctx) = ins
        w = self.w
        p = self.cn(plan)
        # Registers replace the value list when the fast body starts
        # the call from scratch (no parked prefix list to resume from);
        # a trailing Push materializes the done tuple and the resume
        # list directly from the registers.
        reg_mode = fast and resume < 0
        if resume >= 0:
            if not fast:
                w(ind, "if steps >= limit:")
                w(ind + 1, f"return (r{resume}, True, val_env, kont, "
                           "steps, False)")
                w(ind, "steps += 1")
            w(ind, f"v = r{vreg}")
            w(ind, f"v.append(r{resume})")
            w(ind, "kont = kont.parent")
            i = i0 + 1
        else:
            if not fast:
                w(ind, "if steps >= limit:")
                w(ind + 1, f"return ({p}.site, False, "
                           f"{self.ctx_expr(ctx)}, kont, steps, False)")
                w(ind, "steps += 1")
            if not reg_mode:
                w(ind, "v = []")
            i = 0
        acc = 1  # the entry transition, deferred in fast mode
        rest = sum(_slot_cost(s) for s in slots)
        if ea != EA_PUSH:
            rest += 2
        for slot in slots:
            rest -= _slot_cost(slot)
            if fast:
                acc = self._slot_fast(
                    ind, plan, slot, i, ctx, reg_mode, acc, rest)
            else:
                self._slot_careful(ind, plan, slot, i, ctx)
            i += 1
        nargs = len(plan.in_order) - 1
        if reg_mode:
            opv = "s0"
            argxs = [f"s{k}" for k in range(1, nargs + 1)]
        else:
            opv = "op"
            argxs = [f"v[{k}]" for k in range(1, nargs + 1)]
        cargs = ("(" + ", ".join(argxs)
                 + ("," if nargs == 1 else "") + ")")
        el = self.saved_expr(plan, len(plan.pending))
        if ea == EA_PUSH:
            if fast and acc:
                w(ind, f"steps += {acc}")
            if reg_mode:
                done = self._vals_expr(True, i)
                w(ind, f"kont = {self.push_expr(plan, ea_a, done)}")
                inner = ", ".join(f"s{k}" for k in range(i))
                w(ind, f"r{vreg} = [{inner}]")
            else:
                w(ind, f"kont = "
                       f"{self.push_expr(plan, ea_a, 'tuple(v)')}")
                w(ind, f"r{vreg} = v")
            return
        if not reg_mode:
            w(ind, "op = v[0]")
        callk = (f"return ({opv}, True, {el}, CallK("
                 f"{cargs if reg_mode else 'tuple(v[1:])'}, kont, "
                 f"{p}.site), steps, False)")
        if ea == EA_DIRECT:
            if fast and acc:
                w(ind, f"steps += {acc}")
            if not fast:
                w(ind, "if steps >= limit:")
                w(ind + 1, callk)
            self._apply_direct(ind, opv, argxs, ea_a, ea_b, el)
            return
        # EA_TAIL / EA_VALUE: branches that proceed past the call set
        # _ok; everything else exits via the materialized call
        # continuation for the generic rules to apply.
        if fast and acc:
            w(ind, f"steps += {acc}")
        w(ind, "_ok = False")
        if fast:
            i2 = ind
        else:
            w(ind, "if steps < limit:")
            i2 = ind + 1
        if ea == EA_TAIL:
            self._apply_tail(i2, opv, argxs, el)
            if self.primop_apply:
                self._apply_primop(i2, "elif", opv, argxs, cargs,
                                   el, ea_a, nargs, fast)
        else:
            lead = "if"
            if self.primop_apply:
                self._apply_primop(i2, "if", opv, argxs, cargs,
                                   el, ea_a, nargs, fast)
                lead = "elif"
            self._apply_descent(i2, lead, opv, argxs, cargs, el, ea_a)
        w(ind, "if not _ok:")
        w(ind + 1, callk)

    def extend_alloc_lines(self, ind, target, opv, params_src,
                           argxs) -> None:
        """``{target} = {opv}.env.extend(params, <fresh locations>)``
        through the fused allocate-and-extend environment constructors
        (one call, same store mutations); rebinds ``locations`` — off
        the new frame's ``_frame_locs`` — only for the I_stack frame
        rule, the sole consumer."""
        w = self.w
        n = len(argxs)
        if n == 0:
            w(ind, f"{target} = {opv}.env.extend({params_src}, ())")
            if self.mode == 3:
                w(ind, "locations = ()")
            return
        if n == 1:
            w(ind, f"{target} = {opv}.env.extend_alloc1("
                   f"store, {params_src}, {argxs[0]})")
        else:
            w(ind, f"_t = ({', '.join(argxs)})")
            w(ind, f"{target} = {opv}.env.extend_alloc("
                   f"store, {params_src}, _t)")
        if self.mode == 3:
            w(ind, f"locations = {target}._frame_locs")

    def _apply_direct(self, ind, opv, argxs, ea_a, ea_b, el):
        w = self.w
        lam2 = self.cn(ea_b)
        w(ind, "steps += 1")
        if self.mode:
            # The frame saves the *caller's* environment; capture it
            # before base is rebound to the callee's.
            w(ind, f"_el = {el}")
        self.extend_alloc_lines(ind, "base", opv, f"{lam2}.params",
                                argxs)
        w(ind, "bindings = base._bindings")
        self.frame_lines(ind, lam2, "_el", "locations")
        for k, src in enumerate(argxs):
            w(ind, f"r{ea_a + k} = {src}")

    def _apply_tail(self, ind, opv, argxs, el):
        w = self.w
        nargs = len(argxs)
        w(ind, f"if {opv}.__class__ is Closure:")
        i3 = ind + 1
        w(i3, f"lam2 = {opv}.lam")
        codelam = self.cn(self.code.lam)
        if len(self.code.lam.params) == nargs:
            w(i3, f"if lam2 is {codelam}:")
            i4 = i3 + 1
            w(i4, "steps += 1")
            if self.mode:
                w(i4, f"_el = {el}")
            self.extend_alloc_lines(i4, "base", opv,
                                    f"{codelam}.params", argxs)
            w(i4, "bindings = base._bindings")
            self.frame_lines(i4, "lam2", "_el", "locations")
            for k, src in enumerate(argxs):
                w(i4, f"r{k} = {src}")
            w(i4, "continue")
        w(i3, f"if len(lam2.params) == {nargs}:")
        i4 = i3 + 1
        w(i4, "steps += 1")
        if nargs == 1:
            w(i4, f"_t = ({argxs[0]},)")
        elif nargs == 0:
            w(i4, "_t = ()")
        self.extend_alloc_lines(i4, "_nb", opv, "lam2.params", argxs)
        self.frame_lines(i4, "lam2", el, "locations")
        w(i4, "return (_TRANSFER, gen3_code(lam2), _t, _nb, kont, steps)")

    def prim_call(self, ind: int, target: str, opv: str,
                  argxs, cargs: str) -> None:
        """``target = opv.proc(machine, store, cargs)`` behind the
        arity check, routed through the primop's arity-specialized
        entry when it registers one.  The argument count is static
        here, so the specialized arm skips both the args tuple and the
        arity check — registering ``procN`` asserts the primop accepts
        arity N (see :class:`~repro.machine.values.Primop`)."""
        w = self.w
        n = len(argxs)
        if n == 1 or n == 2:
            w(ind, f"_p = {opv}.proc{n}")
            w(ind, "if _p is not None:")
            w(ind + 1, f"{target} = _p(machine, store, "
                       f"{', '.join(argxs)})")
            w(ind, "else:")
            self.emit_arity(ind + 1, opv, n)
            w(ind + 1, f"{target} = {opv}.proc(machine, store, {cargs})")
        else:
            self.emit_arity(ind, opv, n)
            w(ind, f"{target} = {opv}.proc(machine, store, {cargs})")

    def _apply_primop(self, ind, lead, opv, argxs, cargs, el, dst,
                      nargs, fast):
        w = self.w
        w(ind, f"{lead} {opv}.__class__ is Primop "
               f"and not {opv}.controls:")
        i3 = ind + 1
        w(i3, "steps += 1")
        self.prim_call(i3, "result", opv, argxs, cargs)
        if not fast:
            w(i3, "if steps >= limit:")
            w(i3 + 1, f"return (result, True, {el}, kont, steps, False)")
        w(i3, f"r{dst} = result")
        w(i3, f"val_env = {el}")
        w(i3, "_ok = True")

    def _apply_descent(self, ind, lead, opv, argxs, cargs, el, dst):
        w = self.w
        nargs = len(argxs)
        cls = self.cn(self.machine.__class__)
        # Monomorphic site cache ``[lam, code]``: sites keep their
        # callee, so the steady state replaces the gen3_code probe with
        # one identity check.  A stale entry is impossible — the cell
        # is keyed by lambda identity and Code records are interned per
        # lambda for the process lifetime.
        sc = self.cn([None, None])
        w(ind, f"{lead} {opv}.__class__ is Closure "
               f"and depth < {_MAX_DESCENT}:")
        i3 = ind + 1
        w(i3, f"lam2 = {opv}.lam")
        w(i3, f"if len(lam2.params) == {nargs}:")
        i4 = i3 + 1
        w(i4, f"if lam2 is {sc}[0]:")
        w(i4 + 1, f"code2 = {sc}[1]")
        w(i4, "else:")
        w(i4 + 1, "code2 = gen3_code(lam2)")
        w(i4 + 1, f"{sc}[0] = lam2")
        w(i4 + 1, f"{sc}[1] = code2")
        w(i4, "steps += 1")
        if nargs == 1:
            w(i4, f"_t = {cargs}")
        elif nargs == 0:
            w(i4, "_t = ()")
        self.extend_alloc_lines(i4, "_nb", opv, "lam2.params", argxs)
        mode = self.mode
        if mode == 0:
            child = "kont"
        elif mode == 1:
            w(i4, f"child = Return({el}, kont)")
            child = "child"
        elif mode == 3:
            w(i4, f"child = ReturnStack(locations, {el}, kont)")
            child = "child"
        else:
            trc = self.cn(self.machine.gen3_tagged)
            w(i4, f"if isinstance(kont, {trc}) and kont.code is lam2:")
            w(i4 + 1, "child = kont")
            w(i4, "else:")
            w(i4 + 1, f"child = {trc}(lam2, {el}, kont)")
            child = "child"
        # Call the callee's generated function directly when it exists
        # (the overwhelmingly common steady state); _enter_code counts
        # a cold callee's entry, builds it once hot, and hands a cold
        # or declined callee back to gen-2 at its entry configuration.
        w(i4, f"fn2 = code2.fns.get({cls})")
        w(i4, "if fn2 is not None:")
        w(i4 + 1, "out = fn2(machine, store, _t, _nb, "
                  f"{child}, kont, steps, limit, depth + 1)")
        w(i4 + 1, "if out[0] is _TRANSFER:")
        w(i4 + 2, "out = _finish_transfer(machine, store, out, kont, "
                  "limit, depth + 1)")
        w(i4, "else:")
        w(i4 + 1, "out = _enter_code(machine, store, code2, _t, _nb, "
                  f"{child}, kont, steps, limit, depth + 1)")
        w(i4, "if not out[5]:")
        w(i4 + 1, "return out")
        w(i4, f"r{dst} = out[0]")
        w(i4, "val_env = out[2]")
        w(i4, "steps = out[4]")
        w(i4, "_ok = True")

    # -- operand slots -----------------------------------------------------

    def _slot_careful(self, ind: int, plan, slot, i: int, ctx) -> None:
        """One operand slot with a boundary check before each
        transition."""
        w = self.w
        stag = slot[0]
        w(ind, "if steps >= limit:")
        self._abort0(ind + 1, plan, i, ctx, "tuple(v)")
        if stag == S_NESTED:
            self._nested_careful(ind, plan, slot, i, ctx)
            return
        self.emit_load(ind, "value", stag, slot[1])
        w(ind, "steps += 1")
        w(ind, "v.append(value)")
        w(ind, "if steps >= limit:")
        w(ind + 1, f"return (value, True, "
                   f"{self.pos_env_expr(plan, i, ctx)}, "
                   f"{self.push_expr(plan, i, 'tuple(v[:-1])')}, "
                   "steps, False)")
        w(ind, "steps += 1")

    def _slot_fast(self, ind: int, plan, slot, i: int, ctx,
                   reg_mode: bool, acc: int, rest: int) -> int:
        """One operand slot with no boundary checks.  Returns the new
        deferred static step count."""
        w = self.w
        stag = slot[0]
        target = f"s{i}" if reg_mode else "value"
        if stag != S_NESTED:
            self.emit_load(ind, target, stag, slot[1])
            if not reg_mode:
                w(ind, "v.append(value)")
            return acc + 2
        # Nested call: flush the deferred count (the decline exits and
        # the reduced beta budget below need the true value), then
        # dispatch exactly as _nested_value would.
        if acc:
            w(ind, f"steps += {acc}")
        inner, subs = slot[1], slot[2]
        pn = self.cn(inner)
        done = self._vals_expr(reg_mode, i)
        gate = f"not {pn}.speculate"
        if not self.fuse_beta:
            gate += f" or {pn}.beta_only"
        w(ind, f"if {gate}:")
        self._abort0(ind + 1, plan, i, ctx, done)
        nn = len(subs) - 1
        self.emit_load(ind, "op_n", subs[0][0], subs[0][1])
        for k in range(1, nn + 1):
            self.emit_load(ind, f"na{k}", subs[k][0], subs[k][1])
        ntuple = ("(" + ", ".join(f"na{k}" for k in range(1, nn + 1))
                  + ("," if nn == 1 else "") + ")")
        fc = inner.fuse_cost
        w(ind, "if op_n.__class__ is Primop and not op_n.controls:")
        i2 = ind + 1
        self.prim_call(i2, target, "op_n",
                       [f"na{k}" for k in range(1, nn + 1)], ntuple)
        if not reg_mode:
            w(i2, "v.append(value)")
        w(i2, f"steps += {fc + 1}")
        w(ind, "elif op_n.__class__ is Closure:")
        # The operands are already evaluated above (same loads, same
        # order as the generic path), so dispatch straight into the
        # beta superinstruction.  The reduced budget keeps the
        # instruction's remaining static cost affordable after a
        # dynamic beta; a decline under it is an exact exit, and the
        # generic loop re-fuses with its own budget — batching
        # granularity, not semantics.  At least 1 is always reserved so
        # the fused cost leaves the careful body's post-slot
        # value-boundary check unreachable.
        self.beta_call(i2, pn, ntuple, f"limit - steps - {max(rest, 1)}")
        w(i2, "if fused is _NO_FUSE:")
        w(i2 + 1, f"{pn}.speculate = False")
        self._abort0(i2 + 1, plan, i, ctx, done)
        w(i2, "if fused is _BETA_ONLY:")
        w(i2 + 1, f"{pn}.beta_only = True")
        self._abort0(i2 + 1, plan, i, ctx, done)
        w(i2, "if fused is None:")
        self._abort0(i2 + 1, plan, i, ctx, done)
        w(i2, f"{target} = fused[0]")
        if not reg_mode:
            w(i2, "v.append(value)")
        w(i2, "steps += fused[1] + 1")
        w(ind, "else:")
        # Neither primop nor closure: the generic path's _NO_FUSE.
        w(i2, f"{pn}.speculate = False")
        self._abort0(i2, plan, i, ctx, done)
        return 0

    def beta_call(self, ind: int, pn: str, ntuple: str,
                  budget: str) -> None:
        """Emit the beta-superinstruction dispatch into ``fused``: an
        inline monomorphic probe of the plan's ``(lam, spec, fns)``
        cache with a direct call to the generated applier on a hit,
        falling back to the ``_nested_beta`` dispatcher (which builds
        and installs the applier) on a miss."""
        w = self.w
        if not self.fuse_beta:
            # _nested_beta's first check is machine._fuse_beta, so the
            # outcome is statically _BETA_ONLY for this machine class.
            w(ind, "fused = _BETA_ONLY")
            return
        cls = self.cn(self.machine.__class__)
        w(ind, f"bc = {pn}.beta_cache")
        w(ind, f"if (bc is not None and bc[0] is op_n.lam"
               f" and bc[1] is not None"
               f" and (bf := bc[2].get({cls})) is not None):")
        w(ind + 1, f"fused = bf(machine, store, op_n, {ntuple}, "
                   f"cells_get, {budget})")
        w(ind, "else:")
        w(ind + 1, f"fused = _nested_beta(machine, store, {pn}, op_n, "
                   f"{ntuple}, cells_get, {budget})")

    def _abort0(self, ind: int, plan, i: int, ctx, done: str) -> None:
        """The boundary/decline exit before evaluating position *i*."""
        p = self.cn(plan)
        expr = f"{p}.first" if i == 0 else f"{p}.pending[{i - 1}]"
        self.w(ind, f"return ({expr}, False, "
                    f"{self.pos_env_expr(plan, i, ctx)}, "
                    f"{self.push_expr(plan, i, done)}, "
                    "steps, False)")

    def _nested_careful(self, ind: int, plan, slot, i: int, ctx) -> None:
        """An all-simple nested call near a batch boundary: the gen-2
        loop's generic dispatch, checks and all."""
        w = self.w
        inner = slot[1]
        pn = self.cn(inner)
        gate = f"not {pn}.speculate"
        if not self.fuse_beta:
            gate += f" or {pn}.beta_only"
        w(ind, f"if {gate}:")
        self._abort0(ind + 1, plan, i, ctx, "tuple(v)")
        w(ind, f"fused = _nested_value(machine, store, {pn}, base, "
              "bindings, cells_get, limit - steps)")
        w(ind, "if fused is _NO_FUSE:")
        w(ind + 1, f"{pn}.speculate = False")
        self._abort0(ind + 1, plan, i, ctx, "tuple(v)")
        w(ind, "if fused is _BETA_ONLY:")
        w(ind + 1, f"{pn}.beta_only = True")
        self._abort0(ind + 1, plan, i, ctx, "tuple(v)")
        w(ind, "if fused is None:")
        self._abort0(ind + 1, plan, i, ctx, "tuple(v)")
        w(ind, "value, cost, held_src = fused")
        w(ind, "steps += cost")
        w(ind, "v.append(value)")
        w(ind, "if steps >= limit:")
        if self.d_env:
            w(ind + 1, "held = held_src[0] if held_src is not None "
                       "else base")
        else:
            w(ind + 1, "if held_src is not None:")
            w(ind + 2, "held = _saved_env(machine, held_src[0], "
                       "held_src[1], len(held_src[1].pending))")
            w(ind + 1, "else:")
            w(ind + 2, "held = "
              + self.saved_expr(inner, len(inner.pending)))
        w(ind + 1, f"return (value, True, held, "
                   f"{self.push_expr(plan, i, 'tuple(v[:-1])')}, "
                   "steps, False)")
        w(ind, "steps += 1")

    # -- OP_IF -------------------------------------------------------------

    def emit_if(self, ins, pc: int, ind: int) -> None:
        (_, node, tspec, else_pc, sel_fvs, ctx) = ins
        w = self.w
        stag = tspec[0]
        guard = (tspec[1].fuse_cost + 2 if stag == S_NESTED else 3)
        w(ind, f"if limit - steps >= {guard}:")
        self._if_body(ins, ind + 1, True)
        w(ind, "else:")
        self._if_body(ins, ind + 1, False)
        # Both bodies converge with the test's value; the branches are
        # emitted exactly once.
        w(ind, "if value is not FALSE:")
        self.emit(pc + 1, ind + 1)
        w(ind, "else:")
        self.emit(else_pc, ind + 1)

    def _if_body(self, ins, ind: int, fast: bool) -> None:
        (_, node, tspec, else_pc, sel_fvs, ctx) = ins
        w = self.w
        nd = self.cn(node)
        if not fast:
            w(ind, "if steps >= limit:")
            w(ind + 1, f"return ({nd}, False, {self.ctx_expr(ctx)}, "
                       "kont, steps, False)")

        def decline(dind: int) -> None:
            w(dind, f"cenv = {self.ctx_expr(ctx)}")
            saved = ("cenv" if self.d_select
                     else f"cenv.restrict({self.cn(sel_fvs)})")
            w(dind, f"return ({nd}.test, False, cenv, "
                    f"Select({nd}.consequent, {nd}.alternative, "
                    f"{saved}, kont), steps, False)")

        stag = tspec[0]
        if stag != S_NESTED:
            if fast:
                self.emit_load(ind, "value", stag, tspec[1])
                w(ind, "steps += 3")
            else:
                w(ind, "steps += 1")
                w(ind, "if steps + 2 > limit:")
                decline(ind + 1)
                self.emit_load(ind, "value", stag, tspec[1])
                w(ind, "steps += 2")
            return
        inner, subs = tspec[1], tspec[2]
        pn = self.cn(inner)
        w(ind, "steps += 1")
        gate = f"not {pn}.speculate"
        if not self.fuse_beta:
            gate += f" or {pn}.beta_only"
        w(ind, f"if {gate}:")
        decline(ind + 1)
        fc = inner.fuse_cost
        i2 = ind + 1

        def fused_tail(call) -> None:
            if call is not None:
                w(i2, f"fused = {call}")
            w(i2, "if fused is _NO_FUSE:")
            w(i2 + 1, f"{pn}.speculate = False")
            decline(i2 + 1)
            w(i2, "if fused is _BETA_ONLY:")
            w(i2 + 1, f"{pn}.beta_only = True")
            decline(i2 + 1)
            w(i2, "if fused is None:")
            decline(i2 + 1)
            w(i2, "value = fused[0]")
            w(i2, "steps += fused[1] + 1")

        if fast:
            nn = len(subs) - 1
            self.emit_load(ind, "op_n", subs[0][0], subs[0][1])
            for k in range(1, nn + 1):
                self.emit_load(ind, f"na{k}", subs[k][0], subs[k][1])
            ntuple = ("(" + ", ".join(
                f"na{k}" for k in range(1, nn + 1))
                + ("," if nn == 1 else "") + ")")
            w(ind, "if op_n.__class__ is Primop and not op_n.controls:")
            self.prim_call(i2, "value", "op_n",
                           [f"na{k}" for k in range(1, nn + 1)], ntuple)
            w(i2, f"steps += {fc + 1}")
            w(ind, "elif op_n.__class__ is Closure:")
            self.beta_call(i2, pn, ntuple, "limit - steps - 1")
            fused_tail(None)
            w(ind, "else:")
            w(i2, f"{pn}.speculate = False")
            decline(i2)
        else:
            w(ind, "if True:")
            fused_tail(f"_nested_value(machine, store, {pn}, base, "
                       "bindings, cells_get, limit - steps - 1)")

    # -- OP_RET ------------------------------------------------------------

    def emit_ret(self, ins, ind: int) -> None:
        (_, spec, expr, ctx) = ins
        w = self.w
        stag = spec[0]
        if stag == S_DONE:
            w(ind, f"value = r{spec[1]}")
            w(ind, "env_cur = val_env")
        else:
            w(ind, "if steps >= limit:")
            w(ind + 1, f"return ({self.cn(expr)}, False, "
                       f"{self.ctx_expr(ctx)}, kont, steps, False)")
            self.emit_load(ind, "value", stag, spec[1])
            w(ind, "steps += 1")
            w(ind, f"env_cur = {self.ctx_expr(ctx)}")
        w(ind, "while kont is not entry_kont:")
        i2 = ind + 1
        w(i2, "if steps >= limit:")
        w(i2 + 1, "return (value, True, env_cur, kont, steps, False)")
        w(i2, "steps += 1")
        if self.mode == 3:
            w(i2, "if kont.__class__ is ReturnStack:")
            w(i2 + 1, "machine._delete_frame(store, value, kont)")
        w(i2, "env_cur = kont.env")
        w(i2, "kont = kont.parent")
        w(ind, "if depth and steps < limit:")
        w(ind + 1, "return (value, True, env_cur, kont, steps, True)")
        w(ind, "return (value, True, env_cur, kont, steps, False)")
