"""The compiled-once stepper against the preserved seed stepper.

The live stepper (:mod:`repro.machine.machine`) annotates the program
at inject time and dispatches through class-keyed tables; the seed
transition function is preserved verbatim in
:mod:`repro.machine.reference_step`.  The pre-pass invariant is that
annotations are derived, never authoritative — so the two steppers
must agree *exactly*: state by state on the configuration sequence,
and number by number on answers, step counts, and the Definition 21/23
space measurements (S_X and U_X, both precisions), on every machine.

These tests hold that equality over the corpus, the separator
families, escape/cycle/assignment-heavy programs, random terminating
programs, and non-default evaluation orders, and unit-test the
pre-pass caches themselves (plan interning, suffix identity, quote
interning, memoized restriction).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.prepass import (
    annotate,
    call_plan,
    plan_count,
    quote_value,
)
from repro.machine.config import State
from repro.machine.continuation import Assign, Push, ReturnStack, Select
from repro.machine.errors import StuckError
from repro.machine.policy import (
    LeftToRight,
    OperatorLast,
    RightToLeft,
    Shuffled,
    identity_permutation,
)
from repro.machine.reference_step import SEED_STEPPERS, make_seed_stepper
from repro.machine.variants import ALL_MACHINES, make_machine, make_stepper
from repro.programs.corpus import load_corpus
from repro.programs.separators import SEPARATORS
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import run_metered
from repro.syntax.ast import Call, Quote, Var
from repro.syntax.expander import expand_program
from repro.syntax.free_vars import free_vars

ALL_MACHINE_NAMES = tuple(sorted(ALL_MACHINES))


def test_seed_steppers_cover_all_machines():
    assert set(SEED_STEPPERS) == set(ALL_MACHINES)


# ---------------------------------------------------------------------------
# Pre-pass unit tests
# ---------------------------------------------------------------------------


def _parse(source):
    # Expanded, not compiled: these snippets call free names like f.
    return expand_program(source)


def test_call_plan_is_interned_per_site_and_order():
    call = _parse("(f 1 2)")
    assert isinstance(call, Call)
    identity = identity_permutation(3)
    plan = call_plan(call, identity)
    assert call_plan(call, identity) is plan
    reverse = (2, 1, 0)
    other = call_plan(call, reverse)
    assert other is not plan
    assert call_plan(call, reverse) is other


def test_call_plan_suffixes_chain_by_identity():
    call = _parse("(f 1 2 3)")
    plan = call_plan(call, identity_permutation(4))
    assert plan.first is call.exprs[0]
    assert plan.pending == call.exprs[1:]
    assert len(plan.suffixes) == len(plan.pending) + 1
    assert plan.suffixes[0] is plan.pending
    assert plan.suffixes[-1] == ()
    for j, suffix in enumerate(plan.suffixes):
        assert suffix == plan.pending[j:]
        expected = frozenset().union(*(free_vars(e) for e in suffix)) \
            if suffix else frozenset()
        assert plan.suffix_fvs[j] == expected
    assert plan.is_identity


def test_call_plan_rejects_non_permutations():
    call = _parse("(f 1)")
    for bad in ((0,), (0, 0), (0, 2), (1, 0, 2)):
        if sorted(bad) == list(range(len(call.exprs))):
            continue
        with pytest.raises(StuckError, match="non-permutation"):
            call_plan(call, bad)


def test_annotate_warms_identity_plans():
    expr = _parse("((lambda (x) (if x (f x '1) (g x))) '2)")
    before = plan_count()
    annotate(expr)
    assert plan_count() == before + 3  # one identity plan per call site
    annotate(expr)
    assert plan_count() == before + 3  # lowered once per tree
    for node in _walk_calls(expr):
        assert call_plan(node, identity_permutation(len(node.exprs))) is \
            call_plan(node, identity_permutation(len(node.exprs)))


def _walk_calls(expr):
    from repro.syntax.ast import walk

    return [node for node in walk(expr) if isinstance(node, Call)]


def test_quote_values_interned_except_strings():
    program = _parse("(f '7 'sym \"abc\" \"abc\")")
    num_node = program.exprs[1]
    sym_node = program.exprs[2]
    str_node = program.exprs[3]
    assert isinstance(num_node, Quote)
    assert quote_value(num_node) is quote_value(num_node)
    assert quote_value(sym_node) is quote_value(sym_node)
    # eqv? on strings is identity: each evaluation must yield a fresh Str.
    first = quote_value(str_node)
    second = quote_value(str_node)
    assert first is not second
    assert first.value == second.value


def test_restrict_is_memoized_and_superset_returns_self():
    from repro.machine.environment import Environment

    env = Environment({"a": 1, "b": 2, "c": 3})
    small = frozenset(("a", "c"))
    once = env.restrict(small)
    assert env.restrict(small) is once
    assert sorted(once.names()) == ["a", "c"]
    assert once.lookup("a") == 1 and once.lookup("c") == 3
    assert env.restrict(frozenset(("a", "b", "c", "zzz"))) is env
    assert env.restrict(frozenset()).location_tuple() == ()
    # Non-frozenset iterables still work (direct hook calls in tests).
    assert sorted(env.restrict(("b",)).names()) == ["b"]


def test_policies_return_interned_permutations():
    assert LeftToRight().permutation(3) is identity_permutation(3)
    assert LeftToRight().permutation(3) is LeftToRight().permutation(3)
    assert RightToLeft().permutation(4) is RightToLeft().permutation(4)
    assert OperatorLast().permutation(4) == (1, 2, 3, 0)
    assert sorted(Shuffled(seed=7).permutation(5)) == [0, 1, 2, 3, 4]


def test_hand_built_push_frame_without_plan_still_steps():
    """States built by hand (no pre-pass, no plan) must step through
    the fallback slicing path to the same answer."""
    machine = make_machine("tail")
    program = _parse("(+ '1 (+ '2 '3))")
    state = machine.inject(program)
    first = machine.step(state)
    planned = first.kont
    assert isinstance(planned, Push) and planned.plan is not None
    bare = Push(
        planned.pending, planned.done, planned.order, planned.env,
        planned.parent, site=planned.site,
    )
    alt = State(first.control, first.is_value, first.env, bare, first.store)
    answers = []
    for current in (first, alt):
        for _ in range(100):
            current = machine.step(current)
            if current.is_final:
                break
        assert current.is_final
        answers.append(repr(current.value))
    assert answers[0] == answers[1] == "NUM:6"


# ---------------------------------------------------------------------------
# State-by-state lockstep
# ---------------------------------------------------------------------------


def _kont_signature(kont):
    signature = []
    while kont is not None:
        entry = [type(kont).__name__]
        if kont.env is not None:
            entry.append(tuple(sorted(kont.env.graph())))
        values = kont.direct_values()
        if values:
            entry.append(tuple(repr(value) for value in values))
        if isinstance(kont, Push):
            entry.append(tuple(id(expr) for expr in kont.pending))
            entry.append(kont.order)
        elif isinstance(kont, Select):
            entry.append((id(kont.consequent), id(kont.alternative)))
        elif isinstance(kont, Assign):
            entry.append(kont.name)
        elif isinstance(kont, ReturnStack):
            entry.append(kont.frame)
        signature.append(tuple(entry))
        kont = kont.parent
    return tuple(signature)


def _fingerprint(configuration):
    """Everything observable about a configuration, identity-free for
    values (repr) and identity-based for code (the two steppers share
    the same AST objects)."""
    store = configuration.store
    store_sig = (
        len(store),
        store.space_bignum,
        store.space_fixed,
        store.linked_structural(),
        store.linked_structural(fixed_precision=True),
    )
    if configuration.is_final:
        return ("final", repr(configuration.value), store_sig)
    control = (
        repr(configuration.control)
        if configuration.is_value
        else id(configuration.control)
    )
    return (
        control,
        tuple(sorted(configuration.env.graph())),
        _kont_signature(configuration.kont),
        store_sig,
    )


LOCKSTEP_PROGRAMS = {
    "tail-loop": "(define (f n) (if (zero? n) 'done (f (- n 1)))) (f 25)",
    "nontail-sum": "(define (f n) (if (zero? n) 0 (+ n (f (- n 1))))) (f 12)",
    "closures": """
        (define (adder k) (lambda (x) (+ x k)))
        (define (go n acc)
          (if (zero? n) acc (go (- n 1) ((adder n) acc))))
        (go 8 0)
        """,
    "assignment": """
        (define acc '())
        (define (f n)
          (if (zero? n) (length acc)
              (begin (set! acc (cons n acc)) (f (- n 1)))))
        (f 9)
        """,
    "escape": """
        (define (f n k) (if (zero? n) (k 99) (f (- n 1) k)))
        (call-with-current-continuation (lambda (k) (f 6 k)))
        """,
    "higher-order": """
        (define (map1 f xs)
          (if (null? xs) '() (cons (f (car xs)) (map1 f (cdr xs)))))
        (map1 (lambda (x) (* x x)) (cons 1 (cons 2 (cons 3 '()))))
        """,
}

LOCKSTEP_LIMIT = 50_000


def _lockstep(machine_name, source, argument=None, policy_factory=None):
    program = prepare_program(source)
    argument = prepare_input(argument)
    if argument is not None:
        # inject() builds a fresh (P D) Call wrapper per stepper; wrap
        # once here so both steppers share every AST node (the
        # identity-based parts of the fingerprint rely on that).
        program = Call((program, argument))
        argument = None
    annotated = (
        make_machine(machine_name, policy=policy_factory())
        if policy_factory is not None
        else make_machine(machine_name)
    )
    seed = (
        make_seed_stepper(machine_name, policy=policy_factory())
        if policy_factory is not None
        else make_seed_stepper(machine_name)
    )
    a_state = annotated.inject(program, argument)
    s_state = seed.inject(program, argument)
    assert _fingerprint(a_state) == _fingerprint(s_state)
    for step_index in range(LOCKSTEP_LIMIT):
        a_state = annotated.step(a_state)
        s_state = seed.step(s_state)
        assert _fingerprint(a_state) == _fingerprint(s_state), (
            machine_name,
            step_index,
        )
        if a_state.is_final:
            assert s_state.is_final
            return step_index + 1
    raise AssertionError(f"no final configuration in {LOCKSTEP_LIMIT} steps")


@pytest.mark.parametrize("name", sorted(LOCKSTEP_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_lockstep_state_by_state(machine_name, name):
    _lockstep(machine_name, LOCKSTEP_PROGRAMS[name])


@pytest.mark.parametrize("machine_name", ("tail", "sfs", "bigloo"))
@pytest.mark.parametrize(
    "policy_factory", (RightToLeft, OperatorLast, lambda: Shuffled(seed=13)),
    ids=("right-to-left", "operator-last", "shuffled"),
)
def test_lockstep_under_nondefault_orders(machine_name, policy_factory):
    _lockstep(
        machine_name,
        LOCKSTEP_PROGRAMS["nontail-sum"],
        policy_factory=policy_factory,
    )
    _lockstep(
        machine_name,
        LOCKSTEP_PROGRAMS["closures"],
        policy_factory=policy_factory,
    )


# ---------------------------------------------------------------------------
# Run-level equality: answers, steps, and every space number
# ---------------------------------------------------------------------------


def _meter_numbers(result):
    return (
        result.steps,
        result.sup_space,
        result.consumption,
        result.collected,
        result.peak_step,
        repr(result.final.value),
    )


def assert_steppers_agree(machine_name, program, argument, **options):
    program = prepare_program(program)
    argument = prepare_input(argument)
    annotated = run_metered(
        make_machine(machine_name), program, argument, **options
    )
    seed = run_metered(
        make_seed_stepper(machine_name), program, argument, **options
    )
    assert _meter_numbers(annotated) == _meter_numbers(seed), (
        machine_name,
        options,
    )


@pytest.mark.parametrize("program", load_corpus(), ids=lambda p: p.name)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_steppers_agree_on_corpus(machine_name, program):
    for linked in (False, True):
        assert_steppers_agree(
            machine_name, program.source, program.default_input, linked=linked
        )


@pytest.mark.parametrize("separator", SEPARATORS, ids=lambda s: s.name)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_steppers_agree_on_separators(machine_name, separator):
    for linked in (False, True):
        assert_steppers_agree(
            machine_name,
            separator.source,
            "12",
            linked=linked,
            fixed_precision=True,
        )


@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_steppers_agree_on_lockstep_programs_metered(machine_name):
    for name in sorted(LOCKSTEP_PROGRAMS):
        assert_steppers_agree(
            machine_name, LOCKSTEP_PROGRAMS[name], None, linked=True
        )


def test_runner_stepper_knob():
    from repro.harness.runner import run

    source = LOCKSTEP_PROGRAMS["nontail-sum"]
    annotated = run(source, meter=True, machine="sfs")
    seed = run(source, meter=True, machine="sfs", stepper="seed")
    assert annotated.answer == seed.answer
    assert annotated.steps == seed.steps
    assert annotated.sup_space == seed.sup_space
    assert annotated.consumption == seed.consumption
    for retired in ("compiled", "gen3", "gen2"):
        with pytest.raises(ValueError, match="unknown stepper"):
            run(source, stepper=retired)


# ---------------------------------------------------------------------------
# Random terminating programs (hypothesis)
# ---------------------------------------------------------------------------

# The same structurally-decreasing strategy the metering-engine oracle
# tests use: assignments, cycle-building pairs, and escapes are all
# reachable, and every program terminates.
from test_delta_meter import random_bodies  # noqa: E402


@given(random_bodies, st.sampled_from(("tail", "gc", "sfs", "bigloo")))
@settings(max_examples=50, deadline=None)
def test_steppers_agree_on_random_programs(body, machine_name):
    program = f"(define (f n) (let ((a n) (b 1)) {body}))"
    for linked in (False, True):
        assert_steppers_agree(machine_name, program, "3", linked=linked)


@given(random_bodies)
@settings(max_examples=25, deadline=None)
def test_lockstep_on_random_programs(body):
    program = f"(define (f n) (let ((a n) (b 1)) {body}))"
    for machine_name in ("sfs", "mta"):
        _lockstep(machine_name, program, "3")


# ---------------------------------------------------------------------------
# Gen-2 superinstructions: batched lockstep against the seed stepper
# ---------------------------------------------------------------------------

# The gen-2 fused loop runs inside run_steps and never fires on the
# per-step (metered/lockstep) path, so the per-step lockstep above
# cannot see it.  These tests drive run_steps in batches of every
# small size: each batch must take *exactly* the requested number of
# transitions (fusions batch steps, they never remove them) and land
# on the exact configuration the seed stepper reaches at the same
# cumulative count — including boundaries that fall immediately after
# a fused transition, where the held environment register must match
# the seed's.

#: One program per superinstruction / fallback edge of the gen-2 pass.
GEN2_PROGRAMS = {
    # Runs of quickened Var / interned Quote operands (kind 1/2).
    "quickened-operands": """
        (define (f n) (if (zero? n) 'done (f (- n 1))))
        (f 7)
        """,
    # Depth >= 2 lexical addresses: the inline depth-1 discriminant
    # misses and the chain walk (or named fallback) must take over.
    "deep-quickening": """
        (define (f n)
          ((lambda (x) ((lambda (y) (+ x (* y n))) (+ x 1))) (+ n 2)))
        (f 5)
        """,
    # All-simple nested primop calls as operands (kind 4).
    "nested-primop": """
        (define (f n)
          (if (zero? n) 0 (+ (* n (- n 1)) (f (- n 1)))))
        (f 6)
        """,
    # An if whose test is an all-simple call (the if-select fusion).
    "if-call-test": """
        (define (f n)
          (if (zero? (* n (- n n))) (if (zero? n) 'done (f (- n 1))) 'no))
        (f 6)
        """,
    # The beta shape: closure operator with an all-simple primop body.
    # gc/mta must account the Return pop; stack must decline (its
    # ReturnStack pop deletes store cells observably).
    "beta-accessor": """
        (define (leaf? t) (number? t))
        (define (f n acc)
          (if (zero? n) acc (f (- n 1) (+ acc (if (leaf? n) 1 0)))))
        (f 6 0)
        """,
    # set!-mutated names are excluded from quickening: every read of
    # ``acc`` must go through the named lookup.
    "set-mutated-binding": """
        (define acc '0)
        (define (f n)
          (if (zero? n) acc (begin (set! acc (+ acc n)) (f (- n 1)))))
        (f 6)
        """,
    # Restricted frames (sfs select/push restriction) drop the frame
    # chain, so the quickened read must fall back to the named lookup.
    "restricted-frame-fallback": """
        (define (f n m)
          (if (zero? n) (+ m 1) (f (- n 1) (+ m n))))
        (f 6 0)
        """,
    # Quoted strings inside fused operand runs stay fresh per
    # evaluation (eqv? on strings is identity).
    "string-quote": """
        (define (f n) (if (zero? n) (eq? '"s" '"s") (f (- n 1))))
        (f 4)
        """,
}

#: Batch sizes 1..13 (and the whole run): boundaries fall at many
#: different offsets inside each fused transition.
BATCH_LIMITS = tuple(range(1, 14))


def _seed_trace(machine_name, program):
    """The seed stepper's fingerprint at every step of *program*."""
    seed = make_seed_stepper(machine_name)
    state = seed.inject(program)
    trace = [_fingerprint(state)]
    for _ in range(LOCKSTEP_LIMIT):
        state = seed.step(state)
        trace.append(_fingerprint(state))
        if state.is_final:
            return trace
    raise AssertionError(f"no final configuration in {LOCKSTEP_LIMIT}")


def _run_batched(machine, program, trace, limit):
    """Drive *machine* through *program* in batches of *limit*, holding
    every batch boundary to the seed's fingerprint at the same count."""
    total = len(trace) - 1
    state = machine.inject(program)
    done = 0
    while done < total:
        state, taken = machine.run_steps(state, limit)
        done += taken
        if done < total:
            # A non-final batch must use its full budget: a fused
            # transition may never over- or under-count steps.
            assert taken == limit, (machine, limit, done)
        assert _fingerprint(state) == trace[done], (machine, limit, done)
    assert done == total
    assert state.is_final


def _batched_lockstep(machine_name, source):
    """Hold the default stepper to the seed at every batch size of
    :data:`BATCH_LIMITS` (and the whole run)."""
    program = prepare_program(source)
    trace = _seed_trace(machine_name, program)
    for limit in (*BATCH_LIMITS, len(trace) - 1):
        _run_batched(make_stepper(machine_name), program, trace, limit)


@pytest.mark.parametrize("name", sorted(GEN2_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_gen2_batched_lockstep(machine_name, name):
    _batched_lockstep(machine_name, GEN2_PROGRAMS[name])


# ---------------------------------------------------------------------------
# Gen-2 pre-pass unit tests: lexical addresses
# ---------------------------------------------------------------------------


def _vars_by_name(expr):
    from repro.syntax.ast import walk

    by_name = {}
    for node in walk(expr):
        if isinstance(node, Var):
            by_name.setdefault(node.name, []).append(node)
    return by_name


def test_var_addr_slots_paths_and_depth1_discriminant():
    expr = _parse("(lambda (x) (lambda (y z) (+ x z)))")
    annotate(expr)
    inner = expr.body
    by_name = _vars_by_name(expr)
    # z: bound one level up -- slot 1, a one-frame path, and the
    # binding lambda's own params tuple as the inline discriminant.
    slot, path, fast = by_name["z"][0].addr
    assert slot == 1
    assert path == (inner.params,)
    assert fast is inner.params
    # x: bound two levels up -- the discriminant is False (an ``is``
    # check against a frame's params tuple can never match False).
    slot, path, fast = by_name["x"][0].addr
    assert slot == 0
    assert path == (inner.params, expr.params)
    assert fast is False
    # +: free (global) -- no lexical address, named lookup.
    assert by_name["+"][0].addr is None


def test_var_addr_excludes_set_mutated_names():
    expr = _parse("(lambda (x y) (begin (set! x y) (+ x y)))")
    annotate(expr)
    by_name = _vars_by_name(expr)
    # The whole-program over-approximation: every occurrence of a
    # set!-target name keeps the named (store-visible) lookup.
    assert all(node.addr is None for node in by_name["x"])
    assert all(node.addr is not None for node in by_name["y"])


# ---------------------------------------------------------------------------
# Gen-2 property: the quickened read equals the named lookup
# ---------------------------------------------------------------------------


@given(random_bodies, st.sampled_from(("tail", "sfs")))
@settings(max_examples=30, deadline=None)
def test_quickened_lookup_matches_named_lookup(body, machine_name):
    """On every reachable configuration whose control is an addressed
    Var, the lexical (slot, frame path) read either declines (None —
    e.g. under an sfs-restricted frame with no chain) or produces
    exactly the location the named lookup finds."""
    from repro.machine.machine import _quick_location

    program = prepare_program(
        f"(define (f n) (let ((a n) (b 1)) {body}))"
    )
    argument = prepare_input("3")
    stepper = make_seed_stepper(machine_name)
    state = stepper.inject(program, argument)
    checked = 0
    for _ in range(LOCKSTEP_LIMIT):
        if state.is_final:
            break
        control = state.control
        if not state.is_value and isinstance(control, Var):
            addr = control.addr
            if addr is not None:
                slot, path, fast = addr
                env = state.env
                if fast is not False and env._frame_names is fast:
                    assert env._frame_locs[slot] == \
                        env.lookup(control.name)
                    checked += 1
                else:
                    location = _quick_location(env, slot, path)
                    if location is not None:
                        assert location == env.lookup(control.name)
                        checked += 1
        state = stepper.step(state)
    else:
        raise AssertionError("no final configuration")


# ---------------------------------------------------------------------------
# Loop-shaped programs: batched lockstep against the seed stepper
# ---------------------------------------------------------------------------

# Self-tail loops around every shape a loop body can take, held to the
# seed by the same batched lockstep as the gen-2 programs.

#: One program per loop shape.
LOOP_PROGRAMS = {
    # The canonical loop: one self-tail back edge.
    "counting-loop": """
        (define (loop n) (if (zero? n) 'done (loop (- n 1))))
        (loop 20)
        """,
    # Three loop variables, all rebound every iteration.
    "accumulator-loop": """
        (define (loop i acc s)
          (if (zero? i) (+ acc s) (loop (- i 1) (+ acc i) (* s 1))))
        (loop 12 0 1)
        """,
    # A non-tail call inside the loop body: its return frame sits
    # inside the loop.
    "nontail-in-loop": """
        (define (double x) (+ x x))
        (define (loop n acc)
          (if (zero? n) acc (loop (- n 1) (+ acc (double n)))))
        (loop 9 0)
        """,
    # A closure allocated per iteration (the sfs/free restriction and
    # the closure-tag allocation both happen inside the loop header).
    "closure-in-loop": """
        (define (loop n f)
          (if (zero? n) (f 0) (loop (- n 1) (lambda (x) (+ x n)))))
        (loop 8 (lambda (x) x))
        """,
    # Mutation in the loop body: set! keeps the store visible at every
    # boundary (and excludes the name from quickening).
    "mutation-in-loop": """
        (define total '0)
        (define (loop n)
          (if (zero? n) total
              (begin (set! total (+ total n)) (loop (- n 1)))))
        (loop 10)
        """,
    # An escape captured outside and invoked inside the loop, which
    # abandons the loop's continuation.
    "escape-from-loop": """
        (define (loop n k) (if (zero? n) (k 42) (loop (- n 1) k)))
        (call-with-current-continuation (lambda (k) (loop 7 k)))
        """,
    # Two nested loops: the outer one re-enters the inner one each
    # iteration.
    "nested-loops": """
        (define (inner i acc)
          (if (zero? i) acc (inner (- i 1) (+ acc 1))))
        (define (outer n acc)
          (if (zero? n) acc (outer (- n 1) (inner n acc))))
        (outer 6 0)
        """,
    # Argument-evaluation order inside the back edge: operands with
    # effects must commit in seed order at the loop header.
    "effects-in-back-edge": """
        (define (loop n a b)
          (if (zero? n) (cons a b)
              (loop (- n 1) (cons n a) (cons (car (cons n a)) b))))
        (car (car (loop 8 (cons 0 '()) '())))
        """,
}


@pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_gen3_batched_lockstep(machine_name, name):
    """The loop-shaped programs at every batch size, on the default
    stepper.  The test keeps the name it had while these programs ran
    on gen-3, so its results stay comparable across that change."""
    _batched_lockstep(machine_name, LOOP_PROGRAMS[name])


# ---------------------------------------------------------------------------
# Property: loop bodies step alike on the default and seed steppers
# ---------------------------------------------------------------------------


def _space_profile(machine, program, argument):
    """Drive one run in batches of 1 through run_steps (the only path
    the fused loop fires on) and record everything observable:
    answer, step count, and the running sup / peak step of the store's
    exact space — per-step resolution, so a loop body that allocated
    differently (or at a different step) would change the profile."""
    state = machine.inject(program, argument)
    steps = 0
    sup = state.store.space_bignum
    peak = 0
    while not state.is_final:
        if steps >= LOCKSTEP_LIMIT:
            raise AssertionError("no final configuration")
        state, taken = machine.run_steps(state, 1)
        assert taken == 1, (machine, steps)
        steps += taken
        space = state.store.space_bignum
        if space > sup:
            sup, peak = space, steps
    return (repr(state.value), steps, sup, peak)


@given(random_bodies, st.sampled_from(ALL_MACHINE_NAMES))
@settings(max_examples=40, deadline=None)
def test_loop_bodies_default_vs_seed_on_random_programs(body, machine_name):
    """A random body inside a self-tail loop: the default stepper and
    the seed stepper agree on answer, step count, sup space, and peak
    step."""
    program = prepare_program(
        "(define (loop i acc)"
        "  (if (zero? i) (length acc)"
        f"     (loop (- i 1) (cons (let ((a i) (b 1)) {body}) acc))))"
        "(define (f n) (loop n '()))"
    )
    argument = prepare_input("4")
    default = _space_profile(make_stepper(machine_name), program, argument)
    seed = _space_profile(
        make_stepper(machine_name, "seed"), program, argument
    )
    assert default == seed, machine_name
