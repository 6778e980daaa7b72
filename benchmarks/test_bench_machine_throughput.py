"""Machine throughput — not a paper artifact, but the harness's own
performance baseline: steps/second for each reference implementation
on a fixed workload, timed by pytest-benchmark the conventional way
(many rounds).

The paper's section 14 remark "proper tail recursion is considerably
faster than improper tail recursion" shows up here too: I_tail takes
fewer transitions (no return steps) for the same program.

Beyond the unmetered baseline, the metered cases time a full
Definition 21 space-efficient computation (GC rule after every step)
under both accountings, and the engine-speedup case records the
incremental engine's advantage over the seed reference engine on the
Theorem 25 gc-vs-tail separator at N = 128 — the delta-GC +
memoized-U_X acceptance number.  A session fixture collects every
steps/second figure into ``benchmarks/results/BENCH_throughput.json``.
"""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import write_bench_summary
from fused_step_rate import step_rate_entry

from repro.machine.variants import make_machine
from repro.programs.corpus import load_program
from repro.programs.examples import find_leftmost_program
from repro.programs.separators import SEPARATORS_BY_NAME
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import run_metered, run_to_final

PROGRAM = prepare_program(load_program("fib").source)
ARGUMENT = prepare_input("10")

MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")

THROUGHPUT_JSON = "BENCH_throughput.json"
STEP_RATE_JSON = "BENCH_step_rate.json"

SPEEDUP_SEPARATOR = "gc-vs-tail"
SPEEDUP_MACHINE = "gc"
SPEEDUP_N = 128

#: The sampled-meter flagship cell: the Theorem 25 separator at a size
#: where the GC machine's staircase is long enough to exercise every
#: trigger (checkpoints, allocation bursts, bound-exceeds-sup trips).
FLAGSHIP_N = 512
FLAGSHIP_ROUNDS = 5

#: Acceptance: the sampled meter within 5x of the *per-step-granularity*
#: unmetered driver — the step()-at-a-time loop, the granularity at
#: which Definition 21 configurations are observable at all.  The
#: batched gen-3 driver is recorded alongside as the other comparator
#: (it fuses transitions, so per-configuration observation is
#: impossible there by construction; its quotient is reported, not
#: gated).
SAMPLED_VS_PER_STEP_MAX = 5.0
#: Engine floor: the sampled meter must beat the exact per-step delta
#: meter by this factor on the flagship cell.  The cell is chosen
#: adversarially for this gate: the staircase grows monotonically, so
#: nearly every peak-setting step trips a retro-exact reconstruction
#: and the sampled meter degenerates toward per-step measurement
#: (measured ~1.4x here; programs whose sup settles early see far
#: more, since checkpoint intervals then run meter-free).
SAMPLED_OVER_EXACT_MIN = 1.2


@pytest.fixture(scope="session")
def throughput_log():
    """Collects steps/second per case; written as BENCH_throughput.json
    at session end.  ``metered_ratio`` (per machine: the unmetered
    batched rate over the exact delta-metered flat rate — the cost of
    making every Definition 21 configuration observable) is derived at
    session end from the recorded rates.

    The log is seeded from the checked-in results file, so a partial
    run (``-k cache``, say) refreshes its own section and carries the
    others forward instead of clobbering them."""
    log = {"steps_per_second": {}, "engine_speedup": {}, "metered_ratio": {}}
    recorded = os.path.join(
        os.path.dirname(__file__), "results", THROUGHPUT_JSON
    )
    if os.path.exists(recorded):
        with open(recorded) as handle:
            for section, value in json.load(handle).items():
                log[section] = value
    yield log
    rates = log["steps_per_second"]
    for name in MACHINES:
        unmetered = rates.get(f"unmetered/{name}")
        metered = rates.get(f"metered-flat/{name}")
        if unmetered and metered:
            log["metered_ratio"][name] = round(unmetered / metered, 2)
    write_bench_summary(THROUGHPUT_JSON, log)


def record_rate(log, label, steps, seconds):
    log["steps_per_second"][label] = round(steps / seconds, 1)


@pytest.mark.parametrize("name", MACHINES)
def test_bench_machine_throughput(benchmark, throughput_log, name):
    machine = make_machine(name)

    def run_once():
        final, steps = run_to_final(machine, PROGRAM, ARGUMENT)
        return steps

    steps = benchmark(run_once)
    benchmark.extra_info["transitions"] = steps
    record_rate(
        throughput_log, f"unmetered/{name}", steps, benchmark.stats.stats.mean
    )
    assert steps > 0


@pytest.mark.parametrize("accounting", ("flat", "linked"))
@pytest.mark.parametrize("name", MACHINES)
def test_bench_metered_throughput(benchmark, throughput_log, name, accounting):
    """A full metered run (delta engine): GC rule after every step,
    space measured every step."""
    machine = make_machine(name)
    linked = accounting == "linked"

    def run_once():
        result = run_metered(
            machine, PROGRAM, ARGUMENT, linked=linked, engine="delta"
        )
        return result.steps

    steps = benchmark(run_once)
    benchmark.extra_info["transitions"] = steps
    record_rate(
        throughput_log,
        f"metered-{accounting}/{name}",
        steps,
        benchmark.stats.stats.mean,
    )
    assert steps > 0


def test_bench_engine_speedup(benchmark, throughput_log):
    """The incremental engine against the seed reference engine on the
    Theorem 25 gc-vs-tail separator at N = 128 (the acceptance
    criterion: >= 5x steps/second, identical measurements)."""
    source = SEPARATORS_BY_NAME[SPEEDUP_SEPARATOR].source
    program = prepare_program(source)
    argument = prepare_input(str(SPEEDUP_N))

    def timed(engine):
        machine = make_machine(SPEEDUP_MACHINE)
        start = time.perf_counter()
        result = run_metered(machine, program, argument, engine=engine)
        elapsed = time.perf_counter() - start
        return result, result.steps / elapsed

    def run_once():
        delta, delta_rate = timed("delta")
        reference, reference_rate = timed("reference")
        assert (delta.sup_space, delta.consumption, delta.collected) == (
            reference.sup_space,
            reference.consumption,
            reference.collected,
        )
        return delta_rate, reference_rate

    delta_rate, reference_rate = benchmark.pedantic(
        run_once, rounds=1, iterations=1
    )
    speedup = delta_rate / reference_rate
    throughput_log["engine_speedup"] = {
        "separator": SPEEDUP_SEPARATOR,
        "machine": SPEEDUP_MACHINE,
        "n": SPEEDUP_N,
        "delta_steps_per_second": round(delta_rate, 1),
        "reference_steps_per_second": round(reference_rate, 1),
        "speedup": round(speedup, 2),
    }
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 5.0, speedup


def test_bench_sampled_flagship(throughput_log):
    """The metering-gap flagship: on gc-vs-tail at N = 512, record both
    unmetered comparators (the batched gen-3 driver and the
    step()-at-a-time loop) next to the exact and sampled meters, and
    gate the sampled meter against the per-step comparator.

    The acceptance quotient compares like granularities: the sampled
    meter must be within SAMPLED_VS_PER_STEP_MAX of the *per-step*
    unmetered loop — the finest granularity at which Definition 21
    configurations exist to be measured.  The batched driver's quotient
    is recorded transparently (it fuses transitions; no per-step meter
    can approach it, and the number says by how far).  The engine
    floor: sampled must beat the exact delta meter by
    SAMPLED_OVER_EXACT_MIN."""
    source = SEPARATORS_BY_NAME[SPEEDUP_SEPARATOR].source
    program = prepare_program(source)
    argument = prepare_input(str(FLAGSHIP_N))

    def best(fn):
        top = 0.0
        payload = None
        for _ in range(FLAGSHIP_ROUNDS):
            start = time.perf_counter()
            steps, extra = fn()
            elapsed = time.perf_counter() - start
            if steps / elapsed > top:
                top = steps / elapsed
            payload = extra
        return top, payload

    def batched():
        machine = make_machine(SPEEDUP_MACHINE)
        final, steps = run_to_final(machine, program, argument)
        return steps, None

    def per_step():
        machine = make_machine(SPEEDUP_MACHINE)
        state = machine.inject(program, argument)
        step = machine.step
        steps = 0
        while True:
            configuration = step(state)
            steps += 1
            if configuration.is_final:
                return steps, None
            state = configuration

    def exact():
        machine = make_machine(SPEEDUP_MACHINE)
        result = run_metered(machine, program, argument, engine="delta")
        return result.steps, result

    def sampled():
        machine = make_machine(SPEEDUP_MACHINE)
        result = run_metered(machine, program, argument, meter="sampled")
        assert result.meter_stats["certified"]
        return result.steps, result

    batched_rate, _ = best(batched)
    per_step_rate, _ = best(per_step)
    exact_rate, exact_result = best(exact)
    sampled_rate, sampled_result = best(sampled)

    # Identical numbers across both metered cells.
    assert (
        sampled_result.sup_space,
        sampled_result.steps,
        sampled_result.collected,
    ) == (
        exact_result.sup_space,
        exact_result.steps,
        exact_result.collected,
    )

    sampled_vs_per_step = per_step_rate / sampled_rate
    sampled_over_exact = sampled_rate / exact_rate
    throughput_log["sampled_flagship"] = {
        "separator": SPEEDUP_SEPARATOR,
        "machine": SPEEDUP_MACHINE,
        "n": FLAGSHIP_N,
        "transitions": exact_result.steps,
        "unmetered_batched_steps_per_second": round(batched_rate, 1),
        "unmetered_per_step_steps_per_second": round(per_step_rate, 1),
        "metered_exact_steps_per_second": round(exact_rate, 1),
        "metered_sampled_steps_per_second": round(sampled_rate, 1),
        "sampled_vs_per_step": round(sampled_vs_per_step, 2),
        "sampled_vs_batched": round(batched_rate / sampled_rate, 2),
        "sampled_over_exact": round(sampled_over_exact, 2),
        "max_sampled_vs_per_step": SAMPLED_VS_PER_STEP_MAX,
        "min_sampled_over_exact": SAMPLED_OVER_EXACT_MIN,
        "comparators": (
            "gated against unmetered_per_step (the step()-at-a-time "
            "loop: the granularity at which Definition 21 "
            "configurations are observable); unmetered_batched (the "
            "gen-3 fused driver) recorded for transparency — it "
            "batches transitions, so no per-configuration meter can "
            "approach it"
        ),
    }
    assert sampled_vs_per_step <= SAMPLED_VS_PER_STEP_MAX, (
        throughput_log["sampled_flagship"]
    )
    assert sampled_over_exact >= SAMPLED_OVER_EXACT_MIN, (
        throughput_log["sampled_flagship"]
    )


# ---------------------------------------------------------------------------
# The serving artifact cache: a repeat submission rides a hydrated
# artifact (interned prepass + gen-3 bytecode) instead of re-lowering
# its source — the `repro serve` warm path against the cold one.
# ---------------------------------------------------------------------------

#: Acceptance: a warm (artifact-cached) repeat submission at least this
#: many times faster than a cold one on the lowering-heavy workload.
CACHE_SPEEDUP_MIN = 3.0
CACHE_ROUNDS = 3
CACHE_ITERATIONS = 5

#: A lowering-heavy, run-light workload: a library of definitions with
#: deep bodies — expensive to parse, expand, annotate, and lower (the
#: per-submission cost the cache amortizes) — driving a short loop that
#: never enters them.  The shape mirrors a corpus program library
#: submitted over and over at small N.
CACHE_DEFINES = 10
CACHE_BODY_DEPTH = 300


def _cache_workload():
    def library_define(i):
        expr = "n"
        for depth in range(CACHE_BODY_DEPTH):
            expr = f"(+ {depth % 7} {expr})"
        return f"(define (aux{i} n) (if (zero? n) 0 {expr}))"

    parts = [library_define(i) for i in range(CACHE_DEFINES)]
    parts.append("(define (f n) (if (zero? n) 0 (f (- n 1))))")
    return "\n".join(parts)


def test_bench_cache_warm_vs_cold(throughput_log):
    """The serving cache flagship: run the same submission through the
    worker job entry cold (source re-lowered every time) and warm (a
    content-addressed artifact hydrated once, then hit per repeat), and
    gate the warm/cold quotient.  Timing is best-of-rounds over a batch
    of iterations, mirroring the step-rate benches."""
    from repro.serving.artifacts import (
        build_artifact,
        clear_hydrated,
        program_sha,
    )
    from repro.serving.protocol import validate_submit
    from repro.serving.quota import run_service_job

    source = _cache_workload()
    cold_spec = validate_submit(
        {"program": source, "argument": "4", "machine": "gc"}
    )
    blob = build_artifact(prepare_program(source))
    warm_spec = dict(cold_spec)
    warm_spec["program_sha"] = program_sha(source)
    warm_spec["artifact"] = blob

    def best(spec, prime=False):
        top = None
        for _ in range(CACHE_ROUNDS):
            if prime:
                clear_hydrated()
                receipt = run_service_job(dict(spec))  # hydrate outside
                assert receipt["kind"] == "result", receipt
            start = time.perf_counter()
            for _ in range(CACHE_ITERATIONS):
                receipt = run_service_job(dict(spec))
            elapsed = (time.perf_counter() - start) / CACHE_ITERATIONS
            assert receipt["kind"] == "result", receipt
            top = elapsed if top is None else min(top, elapsed)
        return top, receipt

    cold_s, cold_receipt = best(cold_spec)
    warm_s, warm_receipt = best(warm_spec, prime=True)
    # The cache changes where lowering happens, never the measurement.
    for field in ("answer", "steps", "sup_space", "consumption"):
        assert warm_receipt[field] == cold_receipt[field], field
    speedup = cold_s / warm_s
    throughput_log["cache"] = {
        "workload": (
            f"{CACHE_DEFINES} library definitions of body depth "
            f"{CACHE_BODY_DEPTH} + a tail loop, argument 4, gc"
        ),
        "artifact_bytes": len(blob),
        "iterations": CACHE_ROUNDS * CACHE_ITERATIONS,
        "cold_seconds_per_submission": round(cold_s, 6),
        "warm_seconds_per_submission": round(warm_s, 6),
        "speedup": round(speedup, 2),
        "min_speedup": CACHE_SPEEDUP_MIN,
    }
    assert speedup >= CACHE_SPEEDUP_MIN, throughput_log["cache"]


# ---------------------------------------------------------------------------
# Compile-once stepper step rate: the preserved seed stepper (before)
# against the annotated dispatch-table stepper with the fused run loop
# (after), identical transitions verified per measurement.
# ---------------------------------------------------------------------------

STEP_RATE_ARGUMENT = prepare_input("13")

FIND_LEFTMOST = prepare_program(find_leftmost_program("right"))
FIND_LEFTMOST_ARGUMENT = prepare_input("256")

SFS_FIND_LEFTMOST_TARGET = 3.0
TAIL_FIB_TARGET = 1.5


@pytest.fixture(scope="session")
def step_rate_log():
    """Collects before/after steps-per-second figures; written as
    BENCH_step_rate.json at session end."""
    log = {
        "before": "seed stepper (repro.machine.reference_step)",
        "after": "annotated stepper (prepass + dispatch tables + fused "
                 "run loop + gen-3 register bytecode)",
        "machines": {},
        "acceptance": {},
    }
    yield log
    write_bench_summary(STEP_RATE_JSON, log)


def _gen1(name):
    """The PR 2 fused stepper: annotations and the batched run loop,
    but none of the gen-2 superinstructions."""
    return make_machine(name, gen2=False)


@pytest.mark.step_rate
@pytest.mark.parametrize("name", MACHINES)
def test_bench_step_rate(step_rate_log, name):
    """Before/after step rate for every machine on fib(13), measured in
    the worker subprocess (see :func:`_worker`); the annotated stepper
    must never be slower than the seed."""
    entry = _worker("fused_step_rate.py")[name]
    step_rate_log["machines"][name] = entry
    assert entry["speedup"] > 1.0, entry


@pytest.mark.step_rate
def test_bench_step_rate_sfs_find_leftmost(step_rate_log):
    """Acceptance: >= 3x steps/second on I_sfs running the section 4
    find-leftmost example over a right-spine tree of 256 leaves."""
    entry = step_rate_entry(
        "sfs", "find-leftmost(right, 256)",
        FIND_LEFTMOST, FIND_LEFTMOST_ARGUMENT,
    )
    entry["target"] = SFS_FIND_LEFTMOST_TARGET
    step_rate_log["acceptance"]["sfs_find_leftmost"] = entry
    assert entry["speedup"] >= SFS_FIND_LEFTMOST_TARGET, entry


@pytest.mark.step_rate
def test_bench_step_rate_tail_fib(step_rate_log):
    """Acceptance: >= 1.5x steps/second on I_tail throughput (fib)."""
    entry = step_rate_entry("tail", "fib(13)", PROGRAM, STEP_RATE_ARGUMENT)
    entry["target"] = TAIL_FIB_TARGET
    step_rate_log["acceptance"]["tail_fib"] = entry
    assert entry["speedup"] >= TAIL_FIB_TARGET, entry


# ---------------------------------------------------------------------------
# Gen-2 superinstructions: the metrics-guided pass (quickened Vars,
# fused operand runs, nested-primop and beta superinstructions,
# if-select fusion) against the PR 2 fused-stepper baseline.
# ---------------------------------------------------------------------------

#: The corpus the fusions were selected from (the step-mix feedback
#: loop): the non-tail fib recursion and the section 4 find-leftmost
#: traversal — together they exercise every ranked candidate.
GEN2_WORKLOADS = (
    ("fib(13)", PROGRAM, STEP_RATE_ARGUMENT),
    ("find-leftmost(right, 256)", FIND_LEFTMOST, FIND_LEFTMOST_ARGUMENT),
)

#: Corpus-weighted speedup definitions.  All weights are transition
#: counts (the machine-independent size of each cell's computation),
#: so a cell's influence does not depend on how slow a particular
#: machine family happens to run it in wall-clock terms:
#:
#: * headline — the transition-weighted mean of the flagship cells'
#:   gen2/gen1 ratios (tail on fib, sfs on find-leftmost: the same
#:   flagship convention as TAIL_FIB_TARGET / SFS_FIND_LEFTMOST_TARGET
#:   above) must reach GEN2_CORPUS_TARGET;
#: * floor — every machine's own transition-weighted mean across the
#:   corpus must stay at or above GEN2_FLOOR (no machine pays for the
#:   others' speedup).
GEN2_CORPUS_TARGET = 1.3
GEN2_FLOOR = 1.0
GEN2_ROUNDS = 4

GEN2_FLAGSHIPS = (("tail", "fib(13)"), ("sfs", "find-leftmost(right, 256)"))


def _gen2_machine_cells(name, rounds=GEN2_ROUNDS):
    """Interleaved best-of-N gen1/gen2 rates for one machine over the
    gen-2 corpus (interleaving keeps thermal/contention drift from
    biasing one stepper)."""
    cells = {}
    for workload, program, argument in GEN2_WORKLOADS:
        best1 = best2 = 0.0
        run1 = run2 = None
        for _ in range(rounds):
            machine = _gen1(name)
            start = time.perf_counter()
            final, steps = run_to_final(machine, program, argument)
            elapsed = time.perf_counter() - start
            best1 = max(best1, steps / elapsed)
            run1 = (steps, repr(final.value))
            machine = make_machine(name)
            start = time.perf_counter()
            final, steps = run_to_final(machine, program, argument)
            elapsed = time.perf_counter() - start
            best2 = max(best2, steps / elapsed)
            run2 = (steps, repr(final.value))
        # Identical computation: same transitions, same answer.
        assert run1 == run2, (name, workload, run1, run2)
        cells[workload] = {
            "transitions": run1[0],
            "gen1_steps_per_second": round(best1, 1),
            "gen2_steps_per_second": round(best2, 1),
            "gen2_over_gen1": round(best2 / best1, 3),
        }
    return cells


def _weighted_ratio(cells, key="gen2_over_gen1"):
    """Transition-weighted mean of the cells' speedup ratios."""
    cells = list(cells)
    total = sum(cell["transitions"] for cell in cells)
    return sum(cell["transitions"] * cell[key] for cell in cells) / total


@pytest.mark.step_rate
def test_bench_step_rate_gen2(step_rate_log):
    """Acceptance for the gen-2 pass: the flagship corpus-weighted
    speedup over the PR 2 fused stepper reaches GEN2_CORPUS_TARGET,
    and no machine's own corpus-weighted rate regresses below
    GEN2_FLOOR."""
    machines = {}
    for name in MACHINES:
        cells = _gen2_machine_cells(name)
        if _weighted_ratio(cells.values()) < GEN2_FLOOR:
            # A below-floor reading on a thin margin (stack and bigloo
            # keep most fusions disabled and sit near 1.0x) gets one
            # calmer re-measurement before the gate decides.
            cells = _gen2_machine_cells(name, rounds=2 * GEN2_ROUNDS)
        machines[name] = {
            "cells": cells,
            "corpus_weighted": round(_weighted_ratio(cells.values()), 3),
        }
    headline = _weighted_ratio(
        [machines[name]["cells"][workload] for name, workload in
         GEN2_FLAGSHIPS]
    )
    step_rate_log["gen2"] = {
        "baseline": "gen1 (PR 2 fused stepper, gen2=False)",
        "definition": (
            "transition-weighted mean of gen2/gen1 step-rate ratios; "
            "headline over the flagship cells (tail/fib, "
            "sfs/find-leftmost), floor per machine over the corpus"
        ),
        "corpus_target": GEN2_CORPUS_TARGET,
        "floor": GEN2_FLOOR,
        "headline": round(headline, 3),
        "machines": machines,
    }
    assert headline >= GEN2_CORPUS_TARGET, step_rate_log["gen2"]
    below = {
        name: entry["corpus_weighted"]
        for name, entry in machines.items()
        if entry["corpus_weighted"] < GEN2_FLOOR
    }
    assert not below, (below, step_rate_log["gen2"])


# ---------------------------------------------------------------------------
# Gen-3 register bytecode + self-tail-loop reconstruction: the linear
# bytecode tier (with reconstructed while-loops) against the gen-2
# superinstruction stepper it extends.
# ---------------------------------------------------------------------------

#: Same corpus, flagship convention, and weighting as the gen-2 gate:
#: headline is the transition-weighted mean of the flagship cells'
#: gen3/gen2 ratios, floor is every machine's own corpus-weighted
#: mean.  The gen-3 tier additionally carries an *absolute* gate: the
#: stack machine (the least-batched family) must clear
#: STACK_UNMETERED_TARGET steps/second unmetered.
GEN3_CORPUS_TARGET = 2.0
GEN3_FLOOR = 1.0
GEN3_FLAGSHIPS = GEN2_FLAGSHIPS
STACK_UNMETERED_TARGET = 1_000_000.0


@functools.lru_cache(maxsize=None)
def _worker(script):
    """Run a measurement worker (``benchmarks/gen3_step_rate.py`` or
    ``benchmarks/fused_step_rate.py``) in a fresh subprocess, once per
    session.  Generated code descends into Python functions for
    non-tail calls, so its throughput depends on the *base* call depth:
    CPython 3.11 allocates frames on a chunked data stack, and at the
    ~30-40 frame depth of a pytest session the run's recursion can
    oscillate across a chunk boundary, paying the chunk alloc/free slow
    path on every call (the flat gen-2 loop is immune).  Real drivers —
    the CLI, the harness — run at shallow depth, so the gates measure
    from a fresh process's shallow stack, like them.  See the workers'
    docstrings for the methodology."""
    script = os.path.join(os.path.dirname(__file__), script)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(script)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, script], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["machines"]


@pytest.mark.step_rate
def test_bench_step_rate_gen3(step_rate_log):
    """Acceptance for the gen-3 tier: the flagship corpus-weighted
    speedup over the gen-2 stepper reaches GEN3_CORPUS_TARGET, and no
    machine's own corpus-weighted rate regresses below GEN3_FLOOR."""
    machines = _worker("gen3_step_rate.py")
    for entry in machines.values():
        cells = entry["cells"]
        entry["corpus_weighted"] = round(
            _weighted_ratio(cells.values(), "gen3_over_gen2"), 3
        )
    headline = _weighted_ratio(
        [machines[name]["cells"][workload] for name, workload in
         GEN3_FLAGSHIPS],
        "gen3_over_gen2",
    )
    step_rate_log["gen3"] = {
        "baseline": "gen2 (superinstruction stepper, gen3=False)",
        "definition": (
            "transition-weighted mean of gen3/gen2 step-rate ratios; "
            "headline over the flagship cells (tail/fib, "
            "sfs/find-leftmost), floor per machine over the corpus; "
            "measured by benchmarks/gen3_step_rate.py in a fresh "
            "shallow-stack subprocess; each cell's cold_over_gen2 is "
            "the median per-pair rate ratio of a fresh parse's first "
            "run, default stepper over gen3=False (gated by "
            "benchmarks/check_step_rate.py)"
        ),
        "corpus_target": GEN3_CORPUS_TARGET,
        "floor": GEN3_FLOOR,
        "headline": round(headline, 3),
        "machines": machines,
    }
    assert headline >= GEN3_CORPUS_TARGET, step_rate_log["gen3"]
    below = {
        name: entry["corpus_weighted"]
        for name, entry in machines.items()
        if entry["corpus_weighted"] < GEN3_FLOOR
    }
    assert not below, (below, step_rate_log["gen3"])


@pytest.mark.step_rate
def test_bench_step_rate_stack_absolute(step_rate_log):
    """Acceptance: the stack machine clears one million unmetered
    steps/second on fib(13) with the full tier stack (the default
    stepper's best-of-5 rate, measured in the worker subprocess)."""
    entry = _worker("fused_step_rate.py")["stack"]
    best = entry["after_steps_per_second"]
    step_rate_log["acceptance"]["stack_unmetered"] = {
        "workload": "fib(13)",
        "transitions": entry["transitions"],
        "steps_per_second": best,
        "target": STACK_UNMETERED_TARGET,
    }
    assert best >= STACK_UNMETERED_TARGET, best
