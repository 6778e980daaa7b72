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
#: where the GC machine's staircase is long enough to exercise both
#: triggers (allocation bursts, bound-exceeds-sup trips).
FLAGSHIP_N = 512
FLAGSHIP_ROUNDS = 5

#: Acceptance: the sampled meter within 5x of the *per-step-granularity*
#: unmetered driver — the step()-at-a-time loop, the granularity at
#: which Definition 21 configurations are observable at all.  The
#: batched fused driver is recorded alongside as the other comparator
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
#: more, since the steps after it settles then run meter-free).
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
    unmetered comparators (the batched fused driver and the
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
            "fused driver) recorded for transparency — it "
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
# artifact (the interned prepass) instead of re-lowering
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
#: Absolute gate: the stack machine (the least-batched family) must
#: clear this many steps/second unmetered.
STACK_UNMETERED_TARGET = 1_000_000.0


#: The gen-2-over-gen-1 gate's last committed figures, kept as a fixed
#: record: gen-1 (the fused loop without the gen-2 superinstructions)
#: is retired, so nothing measures them any more.  Per machine, the
#: transition-weighted corpus mean and, per workload, (transitions,
#: gen-1 steps/s, gen-2 steps/s, gen2/gen1 best-of-4 ratio).
GEN2_RETIRED_CELLS = {
    "bigloo": (1.147, {
        "fib(13)": (21244, 1882116.3, 1795087.4, 0.954),
        "find-leftmost(right, 256)": (32152, 1371578.4, 1748945.8, 1.275),
    }),
    "evlis": (2.232, {
        "fib(13)": (20482, 2321781.6, 5171830.4, 2.228),
        "find-leftmost(right, 256)": (29834, 2036269.1, 4551420.3, 2.235),
    }),
    "free": (2.058, {
        "fib(13)": (20482, 2463223.3, 5276760.7, 2.142),
        "find-leftmost(right, 256)": (29834, 1938049.7, 3875391.0, 2.0),
    }),
    "gc": (2.189, {
        "fib(13)": (21257, 2377480.7, 5084174.6, 2.138),
        "find-leftmost(right, 256)": (32152, 2051716.9, 4559910.2, 2.222),
    }),
    "mta": (2.165, {
        "fib(13)": (21257, 2391421.9, 5096538.6, 2.131),
        "find-leftmost(right, 256)": (32152, 2057599.9, 4501048.8, 2.188),
    }),
    "sfs": (2.455, {
        "fib(13)": (20482, 1690767.4, 3429910.1, 2.029),
        "find-leftmost(right, 256)": (29834, 1456788.6, 4003585.7, 2.748),
    }),
    "stack": (1.384, {
        "fib(13)": (21257, 1320197.2, 2083483.8, 1.578),
        "find-leftmost(right, 256)": (32152, 646831.3, 812445.8, 1.256),
    }),
    "tail": (2.252, {
        "fib(13)": (20482, 2259585.3, 4896427.2, 2.167),
        "find-leftmost(right, 256)": (29834, 1851319.8, 4276748.1, 2.31),
    }),
}


def _retired_gen2_section():
    """``BENCH_step_rate.json``'s ``gen2`` section, rebuilt from the
    fixed record above."""
    machines = {}
    for name, (weighted, cells) in GEN2_RETIRED_CELLS.items():
        machines[name] = {
            "corpus_weighted": weighted,
            "cells": {
                workload: {
                    "transitions": transitions,
                    "gen1_steps_per_second": gen1,
                    "gen2_steps_per_second": gen2,
                    "gen2_over_gen1": ratio,
                }
                for workload, (transitions, gen1, gen2, ratio)
                in cells.items()
            },
        }
    return {
        "status": (
            "retired: gen-1 is deleted; these are the last committed "
            "figures, kept as a fixed record and no longer measured "
            "or gated"
        ),
        "baseline": "gen1 (PR 2 fused stepper, without the gen-2 "
                    "superinstructions)",
        "definition": (
            "transition-weighted mean of gen2/gen1 step-rate ratios; "
            "headline over the flagship cells (tail/fib, "
            "sfs/find-leftmost), floor per machine over the corpus"
        ),
        "corpus_target": 1.3,
        "floor": 1.0,
        "headline": 2.511,
        "machines": machines,
    }


#: The gen-3 gate's last committed figures, kept as a fixed record:
#: gen-3 (hot lambdas lowered to register bytecode and generated Python
#: functions) is retired, so nothing measures them any more.  Per
#: machine, the transition-weighted corpus mean and, per workload,
#: (transitions, gen-2 steps/s, gen-3 steps/s, gen3/gen2 best per-pair
#: ratio, cold_over_gen2).
GEN3_RETIRED_CELLS = {
    "bigloo": (4.119, {
        "fib(13)": (21244, 2367067.5, 6548113.9, 7.218, 1.056),
        "find-leftmost(right, 256)": (
            32152, 1362996.8, 1752642.5, 2.072, 1.094),
    }),
    "evlis": (3.159, {
        "fib(13)": (20482, 3638098.5, 7630374.3, 4.168, 0.972),
        "find-leftmost(right, 256)": (
            29834, 2810117.7, 4962090.8, 2.466, 0.951),
    }),
    "free": (3.663, {
        "fib(13)": (20482, 3750277.9, 7709793.8, 4.597, 0.969),
        "find-leftmost(right, 256)": (
            29834, 2471848.3, 4159954.5, 3.022, 0.986),
    }),
    "gc": (3.308, {
        "fib(13)": (21257, 3740043.3, 7305692.2, 4.333, 0.966),
        "find-leftmost(right, 256)": (
            32152, 2916092.9, 4728236.7, 2.631, 0.929),
    }),
    "mta": (3.313, {
        "fib(13)": (21257, 3755640.4, 7191294.8, 4.097, 0.96),
        "find-leftmost(right, 256)": (
            32152, 2867502.9, 4666708.9, 2.795, 0.98),
    }),
    "sfs": (3.981, {
        "fib(13)": (20482, 2522648.0, 5399867.5, 5.083, 0.966),
        "find-leftmost(right, 256)": (
            29834, 2005914.9, 4012745.5, 3.225, 0.998),
    }),
    "stack": (1.979, {
        "fib(13)": (21257, 1647945.6, 2932644.4, 2.989, 0.99),
        "find-leftmost(right, 256)": (
            32152, 761269.1, 791059.6, 1.311, 0.973),
    }),
    "tail": (3.384, {
        "fib(13)": (20482, 3840394.0, 7551040.1, 3.727, 0.865),
        "find-leftmost(right, 256)": (
            29834, 2865063.2, 4897133.0, 3.148, 1.018),
    }),
}


def _retired_gen3_section():
    """``BENCH_step_rate.json``'s ``gen3`` section, rebuilt from the
    fixed record above."""
    machines = {}
    for name, (weighted, cells) in GEN3_RETIRED_CELLS.items():
        machines[name] = {
            "corpus_weighted": weighted,
            "cells": {
                workload: {
                    "transitions": transitions,
                    "gen2_steps_per_second": gen2,
                    "gen3_steps_per_second": gen3,
                    "gen3_over_gen2": ratio,
                    "cold_over_gen2": cold,
                }
                for workload, (transitions, gen2, gen3, ratio, cold)
                in cells.items()
            },
        }
    return {
        "status": (
            "retired: gen-3 is deleted; these are the last committed "
            "figures, kept as a fixed record and no longer measured "
            "or gated"
        ),
        "baseline": "gen2 (superinstruction stepper, tier-up disabled)",
        "definition": (
            "transition-weighted mean of gen3/gen2 step-rate ratios; "
            "headline over the flagship cells (tail/fib, "
            "sfs/find-leftmost), floor per machine over the corpus; "
            "each cell's cold_over_gen2 is the median per-pair rate "
            "ratio of a fresh parse's first run, default stepper over "
            "gen-2 alone"
        ),
        "corpus_target": 2.0,
        "floor": 1.0,
        "headline": 3.429,
        "machines": machines,
    }


@pytest.fixture(scope="session")
def step_rate_log():
    """Collects before/after steps-per-second figures; written as
    BENCH_step_rate.json at session end."""
    log = {
        "before": "seed stepper (repro.machine.reference_step)",
        "after": "annotated stepper (prepass + dispatch tables + fused "
                 "run loop with the gen-2 superinstructions)",
        "machines": {},
        "acceptance": {},
        "gen2": _retired_gen2_section(),
        "gen3": _retired_gen3_section(),
    }
    yield log
    write_bench_summary(STEP_RATE_JSON, log)


@pytest.mark.step_rate
@pytest.mark.parametrize("name", MACHINES)
def test_bench_step_rate(step_rate_log, name):
    """Before/after step rate for every machine on fib(13), measured in
    the worker subprocess (see :func:`_worker`); the annotated stepper
    must never be slower than the seed."""
    entry = _worker()[name]
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


@functools.lru_cache(maxsize=None)
def _worker():
    """Run the measurement worker (``benchmarks/fused_step_rate.py``) in
    a fresh subprocess, once per session, so the gates measure from a
    shallow Python stack, as the CLI and the harness drivers run."""
    script = os.path.join(os.path.dirname(__file__), "fused_step_rate.py")
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
def test_bench_step_rate_stack_absolute(step_rate_log):
    """Acceptance: the stack machine clears one million unmetered
    steps/second on fib(13) (the default stepper's best-of-5 rate,
    measured in the worker subprocess)."""
    entry = _worker()["stack"]
    best = entry["after_steps_per_second"]
    step_rate_log["acceptance"]["stack_unmetered"] = {
        "workload": "fib(13)",
        "transitions": entry["transitions"],
        "steps_per_second": best,
        "target": STACK_UNMETERED_TARGET,
    }
    assert best >= STACK_UNMETERED_TARGET, best
