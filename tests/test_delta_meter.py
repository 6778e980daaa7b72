"""The incremental metering engine against the reference oracle.

The delta engine (refcount delta-GC + memoized U_X accounting) must
report numbers *identical* to the seed reference engine — sup_space,
consumption, collected, peak_step — on every program, machine, and
accounting.  These tests hold that equality over the corpus, the
separator families, cycle- and escape-heavy programs, and random
terminating programs, and audit the engine's internal bookkeeping
(reference counts, root counts, anchors, binding ledger) against
from-scratch recomputation.

The sampled meter (``run_metered(..., meter="sampled")``) gets the same
treatment: its sup/steps/answer/collected must equal the exact
per-step meter's on every program — including write-heavy suspect
paths, escape fallbacks, MTA compaction, relaxed GC schedules, and the
checked-in fuzz corpus — at every checkpoint cadence.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.continuation import chain
from repro.machine.environment import Environment
from repro.machine.variants import ALL_MACHINES, make_machine
from repro.programs.corpus import load_corpus, load_program
from repro.programs.separators import (
    SEPARATORS,
    SEPARATORS_BY_NAME,
    theorem26_program,
)
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import ENGINES, make_meter, run_metered

ALL_MACHINE_NAMES = tuple(sorted(ALL_MACHINES))

#: Programs exercising the paths the incremental bookkeeping handles
#: specially: letrec/define self-reference (anchors), set!-created
#: cycles, accumulators rebound by assignment, inner defines whose
#: recursive cluster dies every iteration, and escape procedures
#: (permanent canonical fallback).
TRICKY_PROGRAMS = {
    "inner-define": """
        (define (f n)
          (define (g k) (if (zero? k) 0 (g (- k 1))))
          (if (zero? n) (g 3) (f (- n 1))))
        """,
    "set-accumulator": """
        (define (count n acc)
          (if (zero? n) acc (count (- n 1) (cons n acc))))
        (define acc '())
        (define (go n) (set! acc (count n acc)) (length acc))
        (go 7)
        """,
    "set-cdr-cycle": """
        (define (f n)
          (let ((p (cons 1 2)))
            (set-cdr! p p)
            (if (zero? n) 0 (f (- n 1)))))
        (f 6)
        """,
    "mutual-recursion": """
        (define (even? n) (if (zero? n) 1 (odd? (- n 1))))
        (define (odd? n) (if (zero? n) 0 (even? (- n 1))))
        (even? 9)
        """,
    "escape": """
        (define (f n k)
          (if (zero? n) (k 99) (f (- n 1) k)))
        (call-with-current-continuation (lambda (k) (f 6 k)))
        """,
}


def meter_engines(machine_name, program, argument, **options):
    """Run every engine on the same prepared (P, D); return results."""
    program = prepare_program(program)
    argument = prepare_input(argument)
    results = {}
    for engine in ENGINES:
        machine = make_machine(machine_name)
        results[engine] = run_metered(
            machine, program, argument, engine=engine, **options
        )
    return results


def assert_engines_agree(machine_name, program, argument, **options):
    results = meter_engines(machine_name, program, argument, **options)
    observed = {
        engine: (
            result.sup_space,
            result.consumption,
            result.collected,
            result.peak_step,
            result.steps,
        )
        for engine, result in results.items()
    }
    assert observed["delta"] == observed["reference"], (
        machine_name, options,
    )
    return results


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("program", load_corpus(), ids=lambda p: p.name)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_engines_agree_on_corpus(machine_name, program):
    for linked in (False, True):
        assert_engines_agree(
            machine_name, program.source, program.default_input, linked=linked
        )


@pytest.mark.parametrize("separator", SEPARATORS, ids=lambda s: s.name)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_engines_agree_on_separators(machine_name, separator):
    for linked in (False, True):
        assert_engines_agree(
            machine_name,
            separator.source,
            "12",
            linked=linked,
            fixed_precision=True,
        )


@pytest.mark.parametrize("machine_name", ("tail", "gc", "sfs"))
def test_engines_agree_on_theorem26_family(machine_name):
    assert_engines_agree(
        machine_name, theorem26_program(5), "5", linked=True,
        fixed_precision=True,
    )


def test_no_progress_trials_skip_the_canonical_trace():
    """When every unrooted anchor's trial fits the budget and frees
    nothing, the delta engine clears its suspects instead of tracing
    the heap — with the reference engine's numbers."""
    results = assert_engines_agree(
        "sfs", SEPARATORS_BY_NAME["tail-vs-evlis"].source, "8",
    )
    stats = results["delta"].meter_stats
    assert stats["trials"] > 0
    assert stats["canonical_fallbacks"] == 0


@pytest.mark.parametrize("name", sorted(TRICKY_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_engines_agree_on_tricky_programs(machine_name, name):
    for linked in (False, True):
        assert_engines_agree(
            machine_name, TRICKY_PROGRAMS[name], None, linked=linked
        )


@pytest.mark.parametrize("gc_interval", (2, 5))
def test_engines_agree_on_relaxed_gc_schedule(gc_interval):
    source = TRICKY_PROGRAMS["set-accumulator"]
    for machine_name in ("gc", "tail"):
        assert_engines_agree(
            machine_name, source, None, gc_interval=gc_interval
        )


# ---------------------------------------------------------------------------
# Internal bookkeeping audits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TRICKY_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ("tail", "gc", "stack", "evlis", "free", "sfs"))
def test_delta_bookkeeping_audit(machine_name, name):
    """Re-derive the reference counts, root counts, anchors, and
    binding ledger from scratch after every collection and require
    exact agreement (RefTracker.audit / BindingLedger.audit raise on
    drift)."""
    program = prepare_program(TRICKY_PROGRAMS[name])
    for linked in (False, True):
        machine = make_machine(machine_name)
        run_metered(machine, program, None, linked=linked, audit_every=1)


def test_store_linked_structural_checkpoint():
    """Store.linked_structural's incremental totals equal a
    from-scratch recomputation mid-run."""
    from repro.machine.store import Store

    program = prepare_program(TRICKY_PROGRAMS["set-accumulator"])
    machine = make_machine("gc")
    state = machine.inject(program, None)
    for _ in range(60):
        configuration = machine.step(state)
        if not hasattr(configuration, "store"):
            break
        state = configuration
        expected_bignum, expected_fixed = state.store.checkpoint_linked_structural()
        assert state.store.linked_structural(False) == expected_bignum
        assert state.store.linked_structural(True) == expected_fixed


def test_escape_triggers_permanent_fallback():
    """An escape procedure entering the configuration must flip the
    delta meter into canonical fallback before any measurement uses
    the polluted counts."""
    from repro.machine.config import Final

    program = prepare_program(TRICKY_PROGRAMS["escape"])
    machine = make_machine("gc")
    meter = make_meter(machine)
    state = machine.inject(program, None)
    meter.prime(state)
    try:
        for _ in range(500):
            configuration = machine.step(state)
            meter.transition(configuration)
            if meter.fallback or isinstance(configuration, Final):
                break
            state = configuration
            meter.collect(state)
    finally:
        meter.detach(state.store)
    assert meter.fallback
    assert meter.tracker is None and meter.ledger is None
    assert state.store.tracker is None


# ---------------------------------------------------------------------------
# Per-object root counts: work counters and the audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("meter", ("exact", "sampled"))
@pytest.mark.parametrize("machine_name", ("gc", "mta", "sfs"))
def test_work_counters_are_deterministic(machine_name, meter):
    """Root and ledger updates are work counts, not timings: two runs
    of the same cell report the same figures."""
    program = prepare_program(SEPARATORS_BY_NAME["gc-vs-tail"].source)
    argument = prepare_input("16")
    counts = []
    for _ in range(2):
        stats = run_metered(
            make_machine(machine_name),
            program,
            argument,
            linked=True,
            fixed_precision=True,
            meter=meter,
        ).meter_stats
        counts.append((stats["root_updates"], stats["ledger_updates"]))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0


@pytest.mark.parametrize("meter", ("exact", "sampled"))
def test_escape_fallback_keeps_work_counters(meter):
    """A run that meets an escape degrades to the canonical engine but
    still reports the work the delta engine did before it."""
    stats = run_metered(
        make_machine("gc"),
        prepare_program(load_program("ctak").source),
        prepare_input("4"),
        linked=True,
        meter=meter,
    ).meter_stats
    assert stats["escape_fallback"]
    for counter in ("collections", "root_updates", "ledger_updates"):
        assert stats[counter] > 0, (counter, stats)
    assert stats["trials"] >= 0


def test_shared_environment_is_rooted_once():
    """An environment held by the register and by pushed frames counts
    one root reference per location, not one per holder."""
    program = prepare_program("(define (f x) (+ x (+ x (+ x 1)))) (f 2)")
    machine = make_machine("gc")
    meter = make_meter(machine)
    state = machine.inject(program, None)
    meter.prime(state)
    try:
        for _ in range(200):
            state = machine.step(state)
            meter.transition(state)
            holders = sum(frame.env is state.env for frame in chain(state.kont))
            if "x" in state.env and holders >= 2:
                break
        else:
            pytest.fail("no step shares the register environment")
        assert meter.tracker.root_rc[state.env.lookup("x")] == 1
        meter.collect(state)
        meter.audit(state)
    finally:
        meter.detach(state.store)


def _plant_holders(meter):
    env = next(obj for obj in meter._held if isinstance(obj, Environment))
    meter._held[env] += 1


def _plant_refcounts(meter):
    location = next(loc for loc, n in meter.tracker.rc.items() if n)
    meter.tracker.rc[location] += 1


def _plant_root_counts(meter):
    location = next(iter(meter.tracker.root_rc))
    meter.tracker.root_rc[location] += 1


def _plant_bindings(meter):
    binding = next(iter(meter.ledger._counts))
    meter.ledger._counts[binding] += 1


@pytest.mark.parametrize(
    "plant",
    (_plant_holders, _plant_refcounts, _plant_root_counts, _plant_bindings),
    ids=("holders", "refcounts", "root-counts", "bindings"),
)
def test_audit_catches_planted_drift(plant):
    """Each table the audit recounts — the meter's per-object holder
    counts, the tracker's total and root counts, the ledger's binding
    counts — raises on a one-off drift."""
    program = prepare_program(TRICKY_PROGRAMS["inner-define"])
    machine = make_machine("gc")
    meter = make_meter(machine, linked=True)
    state = machine.inject(program, prepare_input("6"))
    meter.prime(state)
    try:
        for _ in range(40):
            state = machine.step(state)
            meter.transition(state)
            meter.collect(state)
        meter.audit(state)
        plant(meter)
        with pytest.raises(AssertionError, match="drift"):
            meter.audit(state)
    finally:
        meter.detach(state.store)


# ---------------------------------------------------------------------------
# Random terminating programs (hypothesis)
# ---------------------------------------------------------------------------

# Structurally-decreasing recursion only, so every program terminates;
# assignments, cycle-building pairs, and escapes are all reachable.


def _exprs(depth):
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(str),
        st.sampled_from(("a", "b")),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub, sub).map(
            lambda t: f"(if (zero? {t[0]}) {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub).map(lambda t: f"(let ((a {t[0]})) {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"((lambda (b) {t[1]}) {t[0]})"),
        sub.map(lambda e: f"(car (cons {e} '0))"),
        st.tuples(sub, sub).map(
            lambda t: f"(begin (set! a {t[0]}) {t[1]})"
        ),
        # A self-referential pair: builds a store cycle, then leaves it.
        sub.map(
            lambda e: f"(let ((a (cons {e} '0))) (begin (set-cdr! a a) (car a)))"
        ),
        # An escape used as a plain exit: exercises the fallback path.
        # The continuation is bound to a fresh name (k) so the escape
        # value never shadows a numeric variable inside {e}.
        sub.map(
            lambda e:
            "(call-with-current-continuation (lambda (k) (k {})))".format(e)
        ),
    )


random_bodies = _exprs(3)


@given(random_bodies, st.sampled_from(("tail", "gc", "sfs")))
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_programs(body, machine_name):
    program = f"(define (f n) (let ((a n) (b 1)) {body}))"
    for linked in (False, True):
        assert_engines_agree(machine_name, program, "3", linked=linked)


@given(random_bodies)
@settings(max_examples=40, deadline=None)
def test_delta_audit_on_random_programs(body):
    program = prepare_program(
        f"(define (f n) (let ((a n) (b 1)) {body}))"
    )
    argument = prepare_input("3")
    for machine_name in ("gc", "tail"):
        machine = make_machine(machine_name)
        run_metered(machine, program, argument, linked=True, audit_every=1)


@given(random_bodies, st.sampled_from(ALL_MACHINE_NAMES))
@settings(max_examples=40, deadline=None)
def test_all_engines_agree_on_random_programs_all_machines(
    body, machine_name
):
    """delta == reference on answer, sup, peak, and collected, over
    every machine and both accountings."""
    program = f"(define (f n) (let ((a n) (b 1)) {body}))"
    for linked in (False, True):
        results = meter_engines(machine_name, program, "3", linked=linked)
        reference, result = results["reference"], results["delta"]
        assert result.final.value == reference.final.value or (
            str(result.final.value) == str(reference.final.value)
        )
        assert (
            result.sup_space,
            result.peak_step,
            result.collected,
            result.steps,
        ) == (
            reference.sup_space,
            reference.peak_step,
            reference.collected,
            reference.steps,
        ), (machine_name, linked)


# ---------------------------------------------------------------------------
# The checkpointed sampling meter
# ---------------------------------------------------------------------------

#: Programs stressing the sampled meter's hard paths: store writes on
#: candidate-peak steps (the suspect/lower-bound machinery), escapes
#: (mid-run fallback to the exact schedule), and long monotone
#: allocation ramps (checkpoint and burst cadences).
SAMPLED_PROGRAMS = dict(
    TRICKY_PROGRAMS,
    **{
        "write-at-peak": """
            (define v (make-vector 6 0))
            (define (loop i)
              (if (zero? i) (vector-ref v 1)
                  (begin (vector-set! v (modulo i 6) (cons i (quote ())))
                         (loop (- i 1)))))
            (loop 30)
            """,
        "alloc-ramp": """
            (define (grow n acc)
              (if (zero? n) (length acc) (grow (- n 1) (cons n acc))))
            (grow 40 (quote ()))
            """,
        "alloc-then-drop": """
            (define (make n)
              (if (zero? n) (quote ()) (cons n (make (- n 1)))))
            (define (churn i)
              (if (zero? i) 0 (begin (make 12) (churn (- i 1)))))
            (churn 10)
            """,
    },
)


def assert_sampled_matches_exact(
    machine_name, program, argument, *, checkpoint_every=64, **options
):
    program = prepare_program(program)
    argument = prepare_input(argument)
    exact = run_metered(
        make_machine(machine_name), program, argument, **options
    )
    sampled = run_metered(
        make_machine(machine_name),
        program,
        argument,
        meter="sampled",
        checkpoint_every=checkpoint_every,
        **options,
    )
    assert (
        sampled.sup_space,
        sampled.steps,
        sampled.collected,
    ) == (
        exact.sup_space,
        exact.steps,
        exact.collected,
    ), (machine_name, checkpoint_every, options)
    assert str(sampled.final.value) == str(exact.final.value)
    stats = sampled.meter_stats
    assert stats["mode"] == "exact" or stats["certified"]
    return sampled


@pytest.mark.parametrize("name", sorted(SAMPLED_PROGRAMS), ids=str)
@pytest.mark.parametrize("machine_name", ALL_MACHINE_NAMES)
def test_sampled_sup_equals_exact_on_stress_programs(machine_name, name):
    for linked in (False, True):
        assert_sampled_matches_exact(
            machine_name, SAMPLED_PROGRAMS[name], None, linked=linked
        )


@pytest.mark.parametrize("checkpoint_every", (1, 3, 64, 10**9))
def test_sampled_sup_never_missed_across_cadences(checkpoint_every):
    """The sup must survive any checkpoint cadence — including one so
    sparse that only the bound-exceeds-sup trigger and the allocation
    burst watermark ever fire.  ctak's escapes force the engine's
    fallback mid-run: the step that enters it must be collected before
    the eager schedule takes over, or the next measurement charges
    that step's garbage."""
    for machine_name in ("gc", "mta", "tail"):
        assert_sampled_matches_exact(
            machine_name,
            SAMPLED_PROGRAMS["alloc-then-drop"],
            None,
            checkpoint_every=checkpoint_every,
        )
    ctak = load_program("ctak")
    for machine_name in ALL_MACHINE_NAMES:
        for linked in (False, True):
            assert_sampled_matches_exact(
                machine_name,
                ctak.source,
                "4",
                linked=linked,
                checkpoint_every=checkpoint_every,
            )


@pytest.mark.parametrize("machine_name", ("gc", "mta"))
def test_sampled_meter_reports_certification_stats(machine_name):
    sampled = assert_sampled_matches_exact(
        machine_name, SAMPLED_PROGRAMS["alloc-ramp"], None
    )
    stats = sampled.meter_stats
    assert stats["mode"] == "sampled"
    assert stats["trips"] >= 1
    assert stats["certified"] is True


@pytest.mark.parametrize(
    "machine_name,name",
    (("mta", "destruct"), ("evlis", "puzzle-lite")),
    ids=("mta-destruct", "evlis-puzzle-lite"),
)
def test_uncertified_sampled_run_replays_exactly(machine_name, name):
    """Two corpus runs (linked, fixed precision) whose suspect bounds
    the final sup does not dominate: the sampled run replays on the
    eager schedule and reports the reference engine's numbers."""
    program = load_program(name)
    source = prepare_program(program.source)
    argument = prepare_input(program.default_input)
    options = dict(linked=True, fixed_precision=True)
    sampled = run_metered(
        make_machine(machine_name), source, argument, meter="sampled",
        **options,
    )
    reference = run_metered(
        make_machine(machine_name), source, argument, engine="reference",
        **options,
    )
    assert sampled.meter_stats["exact_rerun"] is True
    assert (sampled.sup_space, sampled.steps, sampled.collected) == (
        reference.sup_space, reference.steps, reference.collected
    )


def test_sampled_separators_both_accountings():
    """Including a relaxed GC schedule, where the sampled meter runs
    the eager schedule (a lazy retro-exact trip would rebuild the
    every-step schedule and under-report the sup)."""
    for separator in SEPARATORS:
        for machine_name in ("gc", "tail", "sfs"):
            for linked in (False, True):
                for gc_interval in (1, 5):
                    assert_sampled_matches_exact(
                        machine_name,
                        separator.source,
                        "10",
                        linked=linked,
                        fixed_precision=True,
                        gc_interval=gc_interval,
                    )


FUZZ_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


@pytest.mark.parametrize(
    "filename",
    sorted(
        name
        for name in os.listdir(FUZZ_CORPUS_DIR)
        if name.endswith(".scm")
    ),
)
def test_sampled_sup_equals_exact_on_fuzz_corpus(filename):
    """On every checked-in fuzz regression the sampled sup equals the
    exact sup (both engines, both accountings)."""
    with open(os.path.join(FUZZ_CORPUS_DIR, filename)) as handle:
        source = handle.read()
    for machine_name in ("gc", "mta", "stack"):
        for engine in ENGINES:
            for linked in (False, True):
                assert_sampled_matches_exact(
                    machine_name,
                    source,
                    "3",
                    linked=linked,
                    engine=engine,
                )


@given(random_bodies, st.sampled_from(("gc", "mta", "tail")))
@settings(max_examples=40, deadline=None)
def test_sampled_sup_equals_exact_on_random_programs(body, machine_name):
    program = f"(define (f n) (let ((a n) (b 1)) {body}))"
    for linked in (False, True):
        assert_sampled_matches_exact(
            machine_name, program, "3", linked=linked, checkpoint_every=7
        )


@pytest.mark.parametrize("machine_name", ("evlis", "bigloo", "mta"))
def test_sampled_sup_equals_exact_when_roots_lag_a_cycle(machine_name):
    """puzzle-lite's named lets store each loop closure in its own
    binding cell.  Under the lazy schedule the environments that held
    such a cell can come and go between two root syncs, so no dropped
    root flags the cycle; the write that closes it must.  Unflagged,
    the retro-collection keeps the cycle and a certified sampled run
    reports a sup above the exact one (evlis 678 for 650 at cadence
    1000, mta 793 for 776 at 128, fixed precision)."""
    program = load_program("puzzle-lite")
    for fixed_precision in (True, False):
        for linked in (False, True):
            for checkpoint_every in (128, 256, 1000, 10**9):
                assert_sampled_matches_exact(
                    machine_name,
                    program.source,
                    program.default_input,
                    linked=linked,
                    fixed_precision=fixed_precision,
                    checkpoint_every=checkpoint_every,
                )
