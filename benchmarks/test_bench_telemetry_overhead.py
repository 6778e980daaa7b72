"""Telemetry overhead — the zero-cost-when-disabled contract.

The trace bus hangs off every machine as a ``trace`` attribute that
the fused run loop checks once per batch; the metrics and blame hooks
live behind ``is None`` tests in the meter.  The acceptance criterion
for the telemetry stack is that a machine with telemetry *disabled*
(the only state tier-1 runs ever see) keeps at least 90% of the
steps/second recorded in ``BENCH_step_rate.json``'s
``after_steps_per_second`` baselines (the default stepper) on the
same workload.

The telemetry-*on* ratio is recorded for the record (it is allowed to
be expensive — the traced path steps configuration-by-configuration),
and the whole summary lands in
``benchmarks/results/BENCH_telemetry_overhead.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -m telemetry_overhead
"""

import json
import os
import time

import pytest

from conftest import write_bench_summary

from repro.machine.variants import make_machine
from repro.programs.corpus import load_program
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import run_metered, run_to_final
from repro.telemetry.bus import TraceBus

PROGRAM = prepare_program(load_program("fib").source)
ARGUMENT = prepare_input("13")

MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")

ROUNDS = 7
MAX_OVERHEAD = 0.10  # disabled telemetry may cost at most 10%

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OVERHEAD_JSON = "BENCH_telemetry_overhead.json"
STEP_RATE_JSON = os.path.join(RESULTS_DIR, "BENCH_step_rate.json")


def _baseline_rates():
    """after_steps_per_second per machine from the step-rate bench;
    regenerate with ``pytest benchmarks -m step_rate`` when moving to
    new hardware."""
    if not os.path.exists(STEP_RATE_JSON):
        pytest.skip(
            "no BENCH_step_rate.json baseline; run the step_rate "
            "benchmarks first"
        )
    with open(STEP_RATE_JSON) as handle:
        payload = json.load(handle)
    return {
        name: entry["after_steps_per_second"]
        for name, entry in payload["machines"].items()
    }


def _best_rate(run_once):
    best = 0.0
    steps = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        steps = run_once()
        elapsed = time.perf_counter() - start
        best = max(best, steps / elapsed)
    return best, steps


@pytest.fixture(scope="session")
def overhead_log():
    log = {
        "workload": "fib(13)",
        "max_overhead": MAX_OVERHEAD,
        "baseline": "BENCH_step_rate.json after_steps_per_second",
        "machines": {},
        "traced": {},
    }
    yield log
    write_bench_summary(OVERHEAD_JSON, log)


@pytest.mark.telemetry_overhead
@pytest.mark.parametrize("name", MACHINES)
def test_bench_telemetry_off_overhead(overhead_log, name):
    """Telemetry disabled (trace attribute None) keeps >= 90% of the
    recorded fused-loop step rate."""
    rates = _baseline_rates()
    if name not in rates:
        pytest.skip(
            f"no {name} entry in BENCH_step_rate.json (partial baseline "
            "run); regenerate with pytest benchmarks -m step_rate"
        )
    baseline = rates[name]
    machine = make_machine(name)
    assert machine.trace is None  # the tier-1 default

    def run_once():
        _final, steps = run_to_final(machine, PROGRAM, ARGUMENT)
        return steps

    rate, steps = _best_rate(run_once)
    ratio = rate / baseline
    overhead_log["machines"][name] = {
        "transitions": steps,
        "baseline_steps_per_second": baseline,
        "telemetry_off_steps_per_second": round(rate, 1),
        "ratio": round(ratio, 3),
    }
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"{name}: telemetry-off rate {rate:.0f}/s is "
        f"{(1 - ratio) * 100:.1f}% below the {baseline:.0f}/s baseline"
    )


@pytest.mark.telemetry_overhead
def test_bench_telemetry_on_ratio(overhead_log):
    """For the record: the cost of actually tracing (unmetered, step
    events only, against the same machine with the bus detached).
    No ceiling asserted — the traced path is allowed to be slow — but
    the trace must see every transition."""
    machine = make_machine("tail")

    def run_once():
        _final, steps = run_to_final(machine, PROGRAM, ARGUMENT)
        return steps

    off_rate, steps = _best_rate(run_once)

    def run_traced():
        machine.trace = TraceBus(capacity=4096, sample={"step": 64})
        try:
            _final, steps = run_to_final(machine, PROGRAM, ARGUMENT)
        finally:
            bus, machine.trace = machine.trace, None
        assert bus.steps == steps
        return steps

    on_rate, _ = _best_rate(run_traced)
    overhead_log["traced"] = {
        "machine": "tail",
        "transitions": steps,
        "telemetry_off_steps_per_second": round(off_rate, 1),
        "telemetry_on_steps_per_second": round(on_rate, 1),
        "slowdown": round(off_rate / on_rate, 2),
    }
    assert on_rate > 0


@pytest.mark.telemetry_overhead
def test_bench_metered_telemetry_ratio(overhead_log):
    """The full stack (bus + metrics + blame) on a metered run, against
    the bare meter — recorded, and the numbers must agree exactly."""
    from repro.telemetry.blame import BlameProfiler
    from repro.telemetry.metrics import MetricsRegistry

    def bare():
        machine = make_machine("gc")
        result = run_metered(machine, PROGRAM, ARGUMENT)
        return result

    def stacked():
        machine = make_machine("gc")
        bus = TraceBus()
        result = run_metered(
            machine, PROGRAM, ARGUMENT,
            trace=bus, metrics=MetricsRegistry(),
            blame=BlameProfiler(every=64),
        )
        return result

    bare_rate, _ = _best_rate(lambda: bare().steps)
    bare_result = bare()
    stacked_result = stacked()
    stacked_rate, _ = _best_rate(lambda: stacked().steps)
    assert (bare_result.sup_space, bare_result.steps) == (
        stacked_result.sup_space, stacked_result.steps
    )
    overhead_log["metered"] = {
        "machine": "gc",
        "bare_steps_per_second": round(bare_rate, 1),
        "full_stack_steps_per_second": round(stacked_rate, 1),
        "slowdown": round(bare_rate / stacked_rate, 2),
    }


BLAME_SEPARATOR = "gc-vs-tail"
BLAME_N = 256
BLAME_ROUNDS = 3
BLAME_MIN_SPEEDUP = 3.0


@pytest.mark.telemetry_overhead
def test_bench_blame_sampling_speedup(overhead_log):
    """Incremental blame against the from-scratch profiler at equal
    sample rate on the gc-vs-tail separator (the acceptance criterion:
    >= 3x steps/second at ``every=1``, byte-identical profiles).

    The gate pins ``every=1`` because that is where per-sample cost
    dominates: from-scratch blame walks the whole configuration at
    every transition, while the incremental profiler snapshots a dict
    the meter hooks kept current.  The ``every=64`` rates are recorded
    too, honestly — at sparse cadences the per-transition hook tax
    cancels the per-sample win (~1x), so incremental mode only pays
    when samples are dense."""
    from repro.programs.separators import SEPARATORS_BY_NAME
    from repro.telemetry.blame import BlameProfiler

    source = SEPARATORS_BY_NAME[BLAME_SEPARATOR].source
    program = prepare_program(source)
    argument = prepare_input(str(BLAME_N))

    def profiled(every, incremental, linked):
        best, profiler = 0.0, None
        for _ in range(BLAME_ROUNDS):
            profiler = BlameProfiler(every=every, incremental=incremental)
            machine = make_machine("gc")
            start = time.perf_counter()
            result = run_metered(
                machine, program, argument, linked=linked, blame=profiler
            )
            elapsed = time.perf_counter() - start
            best = max(best, result.steps / elapsed)
        return profiler, best

    section = {
        "workload": f"{BLAME_SEPARATOR} N={BLAME_N} on gc",
        "min_speedup": BLAME_MIN_SPEEDUP,
    }
    for accounting, linked in (("flat", False), ("linked", True)):
        scratch, scratch_rate = profiled(1, False, linked)
        inc, inc_rate = profiled(1, True, linked)
        # Equal sample rate, identical profiles: the incremental
        # snapshot must match the from-scratch walk at every sample,
        # not just at the peak.
        assert inc.incremental_samples > 0
        assert scratch.incremental_samples == 0
        assert (inc.peak_space, inc.peak_step, inc.at_peak) == (
            scratch.peak_space, scratch.peak_step, scratch.at_peak
        )
        assert inc.series().as_dict() == scratch.series().as_dict()
        _, scratch64_rate = profiled(64, False, linked)
        _, inc64_rate = profiled(64, True, linked)
        speedup = inc_rate / scratch_rate
        section[accounting] = {
            "from_scratch_steps_per_second": round(scratch_rate, 1),
            "incremental_steps_per_second": round(inc_rate, 1),
            "speedup": round(speedup, 2),
            "from_scratch_every64_steps_per_second": round(
                scratch64_rate, 1
            ),
            "incremental_every64_steps_per_second": round(inc64_rate, 1),
            "speedup_every64": round(inc64_rate / scratch64_rate, 2),
        }
        assert speedup >= BLAME_MIN_SPEEDUP, (
            f"{accounting}: incremental blame {inc_rate:.0f}/s is only "
            f"{speedup:.2f}x the from-scratch {scratch_rate:.0f}/s"
        )
    overhead_log["blame_sampling"] = section


RETENTION_MIN_RATIO = 0.90
RETENTION_MACHINE = "gc"
RETENTION_EVERY = 64


@pytest.mark.telemetry_overhead
def test_bench_retention_off_overhead(overhead_log):
    """Retention capture disabled (the tier-1 default: no profiler, no
    provenance sink, no ``pre_step`` stamping) keeps >= 90% of the
    recorded exact-metered step rate.  The baseline is
    ``BENCH_throughput.json``'s ``metered-flat`` rate for the same
    machine and workload — the path the retention branches were added
    to.  The retention-*on* rate is recorded for the record (the
    profiled path snapshots a dominator tree per sample; it is allowed
    to be expensive), and its measurements must agree exactly with the
    bare meter's."""
    from repro.telemetry.retention import RetentionProfiler

    throughput = os.path.join(RESULTS_DIR, "BENCH_throughput.json")
    if not os.path.exists(throughput):
        pytest.skip(
            "no BENCH_throughput.json baseline; run the throughput "
            "benchmarks first"
        )
    with open(throughput) as handle:
        rates = json.load(handle)["steps_per_second"]
    key = f"metered-flat/{RETENTION_MACHINE}"
    if key not in rates:
        pytest.skip(f"no {key} entry in BENCH_throughput.json")
    baseline = rates[key]

    def bare():
        machine = make_machine(RETENTION_MACHINE)
        return run_metered(machine, PROGRAM, ARGUMENT)

    def profiled():
        machine = make_machine(RETENTION_MACHINE)
        profiler = RetentionProfiler(every=RETENTION_EVERY)
        result = run_metered(machine, PROGRAM, ARGUMENT, retention=profiler)
        return result, profiler

    off_rate, _ = _best_rate(lambda: bare().steps)
    on_rate, _ = _best_rate(lambda: profiled()[0].steps)
    bare_result = bare()
    on_result, profiler = profiled()
    # The profiler changes nothing it observes...
    assert (on_result.sup_space, on_result.steps) == (
        bare_result.sup_space, bare_result.steps
    )
    # ...and what it observed partitions the space exactly (at every=64
    # the sampled peak may undershoot the true sup; exactness, not peak
    # coverage, is the contract here).
    assert profiler.at_peak is not None
    for _step, space, self_sum, partition_sum in profiler.history:
        assert self_sum == space and partition_sum == space
    ratio = off_rate / baseline
    overhead_log["retention"] = {
        "machine": RETENTION_MACHINE,
        "min_ratio": RETENTION_MIN_RATIO,
        "baseline": "BENCH_throughput.json metered-flat",
        "baseline_steps_per_second": baseline,
        "retention_off_steps_per_second": round(off_rate, 1),
        "ratio": round(ratio, 3),
        "retention_on_every": RETENTION_EVERY,
        "retention_on_steps_per_second": round(on_rate, 1),
        "slowdown": round(off_rate / on_rate, 2),
    }
    assert ratio >= RETENTION_MIN_RATIO, (
        f"retention-off metered rate {off_rate:.0f}/s is "
        f"{(1 - ratio) * 100:.1f}% below the {baseline:.0f}/s baseline"
    )
