"""Cross-machine differential fuzzing of the full execution matrix.

Section 11 proves that every reference implementation computes the
same answer: the machines differ only in the space they retain, never
in the value they produce.  That theorem makes the whole matrix of
execution strategies mutually checking oracles — so these tests
generate bounded random Core Scheme programs (closed terms, structural
recursion only, a terminating fuel) and assert observational
equivalence of the final answer across

* all 8 machines (tail, gc, stack, evlis, free, sfs, bigloo, mta),
* both steppers (the live stepper and the preserved seed stepper,
  which steps one verbatim Figure 5 transition at a time),
* both metering engines (delta and reference) under
* both accountings (Figure 7 total and Figure 8 linked),

plus the unmetered fused driver.  A second,
reduced-machine matrix crosses the full engine axis — reference/delta x exact/sampled
metering — and holds the *numbers* (sup, steps, collected), not just
the answers, equal across it.  Any divergence
anywhere in either matrix — a fusion that changed an answer, a meter
that drove the machine differently, a variant hook that broke §11 —
shows up as a two-element answer set, and hypothesis shrinks the
program that exposed it.

Shrunken counterexamples worth keeping are checked into
``tests/fuzz_corpus/`` as ``.scm`` files; every corpus file is
replayed through the full matrix on every run (the regression side of
the fuzzer).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.answer import answer_string
from repro.machine.errors import StuckError
from repro.machine.variants import ALL_MACHINES, STEPPERS, make_stepper
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import ENGINES, METERS, run_metered, run_to_final

ALL_MACHINE_NAMES = tuple(sorted(ALL_MACHINES))

#: Terminating fuel: every generated program is structurally
#: decreasing and finishes in well under this many transitions, so a
#: generator bug surfaces as a step-limit error instead of a hang.
FUEL = 200_000

#: The fuzzer's standard argument — programs are ``(define (f n) ...)``
#: with a structurally decreasing recursion on ``n``.
ARGUMENT = "3"


# ---------------------------------------------------------------------------
# The generator: closed, terminating Core Scheme
# ---------------------------------------------------------------------------

# Only structurally-decreasing recursion is generated (the wrapper's
# (f (- n 1)) guarded by (zero? n)), so every program terminates.  The
# leaves and combining forms are chosen to reach every gen-2 fusion
# path and its fallbacks: runs of simple operands, nested primop
# calls, if tests, beta-shaped closure applications, set!-mutated
# bindings (which disable quickening for that name), string constants
# (whose quote rule allocates), and escapes (which force the meter's
# canonical fallback).


def _exprs(depth):
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(str),
        st.sampled_from(("a", "b", "n")),
        st.just("'\"s\""),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    num = st.one_of(
        st.integers(min_value=-9, max_value=9).map(str),
        st.sampled_from(("a", "n")),
    )
    return st.one_of(
        leaf,
        # Nested primop operands: (+ e (* e e)) fuses as kind-4.
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: f"({t[0]} (car (cons {t[1]} '0)) {t[2]})"
        ),
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        # If with a call test (the if-select fusion) and simple tests.
        st.tuples(num, sub, sub).map(
            lambda t: f"(if (zero? {t[0]}) {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub).map(lambda t: f"(if a {t[0]} {t[1]})"),
        # Let and beta shapes: closures applied to simple operands,
        # including the accessor-body shape the beta fusion targets.
        st.tuples(sub, sub).map(lambda t: f"(let ((a {t[0]})) {t[1]})"),
        st.tuples(sub, sub).map(
            lambda t: f"((lambda (b) {t[1]}) {t[0]})"
        ),
        st.tuples(sub, sub).map(
            lambda t: f"((lambda (p q) (+ p q)) (car (cons {t[0]} '1)) {t[1]})"
        ),
        sub.map(lambda e: f"((lambda (p) (car p)) (cons {e} '0))"),
        # set!: the mutated name falls back to named lookup.
        st.tuples(sub, sub).map(
            lambda t: f"(begin (set! a {t[0]}) {t[1]})"
        ),
        # A store cycle, left behind for the collectors.
        sub.map(
            lambda e:
            f"(let ((a (cons {e} '0))) (begin (set-cdr! a a) (car a)))"
        ),
        # An escape used as a plain exit (meter fallback path).
        sub.map(
            lambda e:
            "(call-with-current-continuation (lambda (k) (k {})))".format(e)
        ),
    )


random_bodies = _exprs(3)


def wrap(body: str) -> str:
    """Close the body over (a b n) and tail-recurse on n."""
    return (
        "(define (f n)"
        "  (let ((a n) (b 1))"
        f"    (if (zero? n) {body} (f (- n 1)))))"
    )


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


def observe(thunk) -> str:
    """The observable outcome of a run: the final answer, or the
    machine error it got stuck on.  A generated program may divide by
    zero or add a string — section 11 equivalence then demands every
    cell of the matrix gets stuck on the *same* error."""
    try:
        return thunk()
    except StuckError as error:
        return f"{type(error).__name__}: {error}"


def matrix_answers(source: str, argument: str = ARGUMENT) -> dict:
    """Observable outcomes for every cell of machine x stepper x
    engine x accounting (metered) plus the unmetered batched driver."""
    program_expr = prepare_program(source)
    argument_expr = prepare_input(argument)
    answers = {}
    for name in ALL_MACHINE_NAMES:
        for stepper in STEPPERS:
            answers[(name, stepper, "unmetered", "-")] = observe(
                lambda: answer_string(run_to_final(
                    make_stepper(name, stepper), program_expr,
                    argument_expr, step_limit=FUEL,
                )[0])
            )
            for engine in ("delta", "reference"):
                for accounting in ("S", "U"):
                    answers[(name, stepper, engine, accounting)] = observe(
                        lambda: answer_string(run_metered(
                            make_stepper(name, stepper),
                            program_expr,
                            argument_expr,
                            engine=engine,
                            linked=(accounting == "U"),
                            step_limit=FUEL,
                        ).final)
                    )
    return answers


#: The engine-axis matrix runs on a reduced machine subset: one plain
#: GC machine, the compacting MTA machine (trajectory-changing
#: ``compact``), and the GC-free tail machine (the sampled meter's
#: no-reconstruction fast path).
ENGINE_MATRIX_MACHINES = ("gc", "mta", "tail")


def engine_matrix_outcomes(source: str, argument: str = ARGUMENT) -> dict:
    """(answer, steps, sup, collected) for every cell of machine x
    engine x meter-mode x accounting on the reduced subset."""
    program_expr = prepare_program(source)
    argument_expr = prepare_input(argument)
    outcomes = {}
    for name in ENGINE_MATRIX_MACHINES:
        for accounting in ("S", "U"):
            linked = accounting == "U"
            for engine in ENGINES:
                for mode in METERS:
                    def cell(mode=mode, engine=engine, linked=linked):
                        result = run_metered(
                            make_stepper(name),
                            program_expr,
                            argument_expr,
                            engine=engine,
                            meter=mode,
                            linked=linked,
                            step_limit=FUEL,
                        )
                        return (
                            answer_string(result.final),
                            result.steps,
                            result.sup_space,
                            result.collected,
                        )
                    outcomes[(name, engine, mode, accounting)] = observe(cell)
    return outcomes


def assert_engine_matrix_equivalent(source: str, argument: str = ARGUMENT):
    outcomes = engine_matrix_outcomes(source, argument)
    for name in ENGINE_MATRIX_MACHINES:
        for accounting in ("S", "U"):
            group = {
                cell: outcome
                for cell, outcome in outcomes.items()
                if cell[0] == name and cell[3] == accounting
            }
            distinct = set(group.values())
            assert len(distinct) == 1, (
                f"engine-axis divergence on {name}/{accounting}:\n"
                + "\n".join(
                    f"  {cell}: {outcome}"
                    for cell, outcome in sorted(group.items())
                )
                + f"\nprogram:\n{source}"
            )


def assert_observationally_equivalent(source: str, argument: str = ARGUMENT):
    answers = matrix_answers(source, argument)
    distinct = {}
    for cell, answer in answers.items():
        distinct.setdefault(answer, []).append(cell)
    assert len(distinct) == 1, (
        "answer divergence across the execution matrix:\n"
        + "\n".join(
            f"  {answer!r} <- {cells[:4]}{'...' if len(cells) > 4 else ''}"
            for answer, cells in sorted(distinct.items())
        )
        + f"\nprogram:\n{source}"
    )


# ---------------------------------------------------------------------------
# The fuzzing property
# ---------------------------------------------------------------------------


@given(random_bodies)
@settings(max_examples=20, deadline=None)
def test_random_programs_observationally_equivalent(body):
    # Each example is a fresh parse, so its plans start clean: one fuzz
    # program cannot poison another's speculation state.
    assert_observationally_equivalent(wrap(body))


@given(random_bodies)
@settings(max_examples=20, deadline=None)
def test_random_programs_engine_matrix_equivalent(body):
    """The engine axis: reference/delta x exact/sampled agree on
    answer, steps, sup, and collected — numbers, not just answers."""
    assert_engine_matrix_equivalent(wrap(body))


@given(random_bodies, st.sampled_from(ALL_MACHINE_NAMES))
@settings(max_examples=40, deadline=None)
def test_random_programs_compiled_tiers_match_seed_step_count(
    body, machine_name
):
    """Beyond the answer: the fused loop takes *exactly* as many
    transitions as the seed stepper — fusion batches steps, it never
    removes them."""
    program_expr = prepare_program(wrap(body))
    argument_expr = prepare_input(ARGUMENT)

    def outcome(machine):
        try:
            final, steps = run_to_final(
                machine, program_expr, argument_expr, step_limit=FUEL,
            )
        except StuckError as error:
            return f"{type(error).__name__}: {error}", None
        return answer_string(final), steps

    seed = outcome(make_stepper(machine_name, "seed"))
    assert outcome(make_stepper(machine_name)) == seed


# ---------------------------------------------------------------------------
# The regression corpus
# ---------------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


def corpus_files():
    return sorted(
        name for name in os.listdir(CORPUS_DIR) if name.endswith(".scm")
    )


def test_corpus_is_nonempty():
    assert len(corpus_files()) >= 5


@pytest.mark.parametrize("filename", corpus_files())
def test_corpus_observationally_equivalent(filename):
    with open(os.path.join(CORPUS_DIR, filename)) as handle:
        source = handle.read()
    assert_observationally_equivalent(source)


@pytest.mark.parametrize("filename", corpus_files())
def test_corpus_engine_matrix_equivalent(filename):
    with open(os.path.join(CORPUS_DIR, filename)) as handle:
        source = handle.read()
    assert_engine_matrix_equivalent(source)


@given(random_bodies)
@settings(max_examples=20, deadline=None)
def test_random_programs_sampled_heartbeats_equal_exact(body):
    """At cadence 1 the checkpoint hook reports the running sup after
    every step.  Both meters call it at the same steps, and a sampled run
    certified without suspects reports the eager schedule's running sup
    at each: the lazy schedule skips only configurations whose bound is
    at or below the sup it holds."""
    program_expr = prepare_program(wrap(body))
    argument_expr = prepare_input(ARGUMENT)
    for name in ALL_MACHINE_NAMES:
        for linked in (False, True):
            heartbeats = {}
            for mode in METERS:
                hooks = heartbeats[mode] = []
                try:
                    result = run_metered(
                        make_stepper(name), program_expr, argument_expr,
                        meter=mode, linked=linked, step_limit=FUEL,
                        checkpoint_every=1,
                        checkpoint_hook=lambda *beat: hooks.append(beat),
                    )
                except StuckError:
                    break
            else:
                stats = result.meter_stats
                if stats["exact_rerun"] or stats["suspect_steps"]:
                    continue
                assert heartbeats["sampled"] == heartbeats["exact"], (
                    name, linked, wrap(body),
                )
