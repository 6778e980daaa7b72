"""The meter's outputs, pinned: what ``run_metered`` and the traced
drivers report.

The digests below were computed with the metering driver that handled
the final configuration outside its schedules' loops and with the
trace loops inside the machine classes.  Every number and event a run
reports is part of the contract, so the current code must reproduce
them exactly: sup-space, steps, reclaimed locations, the peak step
(exact meter), the engine and schedule counters, the checkpoint
heartbeats, quota-kill receipts and the trace streams.
"""

import hashlib

from repro.harness.runner import run
from repro.machine.variants import ALL_MACHINES, STEPPERS, make_machine
from repro.programs.corpus import load_corpus, load_program
from repro.programs.separators import SEPARATORS, SEPARATORS_BY_NAME
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import (
    DEFAULT_CHECKPOINT_EVERY,
    METERS,
    QuotaExceeded,
    run_metered,
)
from repro.telemetry.blame import trace_run
from repro.telemetry.bus import TraceBus

METERED_RUNS_SHA256 = (
    "040e91717195b0822c768c4567a7f7837617b319614eb6265494a18a75c29024"
)
QUOTA_RECEIPTS_SHA256 = (
    "c038eab7b358e7e3570c2cd436bfda6636709f447f46dc96859c5e6ef1db7954"
)
UNCERTIFIED_REPLAY_SHA256 = (
    "78317bddcbb14ec2ab09294df4881cd61fbdf513c3410ada872c6198c797f565"
)
TRACE_RUN_SHA256 = (
    "4e0254afb513f6cd63ff9bdd4e01919ead788b0edf241d89dbac107b60af35dc"
)
UNMETERED_TRACE_SHA256 = (
    "5259be899576ae2f04fc064104533e3d76321f546e00152e9e9693ca4bb69741"
)

#: Small inputs, so the whole corpus runs on every machine, both
#: accountings and both meters in a few seconds.
SMALL_INPUTS = {
    "ack": "2", "boyer-lite": "2", "browse-lite": "4", "church": "3",
    "cpstak": "3", "ctak": "2", "deriv": "2", "destruct": "10",
    "div": "6", "fib": "5", "gen-list": "7", "higher-order": "6",
    "mergesort": "4", "meta-eval": "4", "nqueens": "3",
    "puzzle-lite": "3", "rewrite-qq": "4", "sieve": "25", "streams": "4",
    "string-ops": "3", "tak": "3", "takl": "3", "treesort": "6",
    "vector-loops": "10",
}
CHECKPOINT_EVERY = 16


#: The one counter that depends on the hash seed: how many nodes a
#: cycle trial visits follows the iteration order of sets of names.
UNPINNED_STATS = ("trial_nodes",)


def metered_row(machine, program, argument, **options):
    """One run's reported numbers, its engine and schedule counters
    (all but :data:`UNPINNED_STATS`), and its checkpoint heartbeats."""
    hooks = []
    options.setdefault("checkpoint_every", CHECKPOINT_EVERY)
    result = run_metered(
        make_machine(machine), program, argument,
        checkpoint_hook=lambda steps, total: hooks.append((steps, total)),
        **options,
    )
    exact = options.get("meter", "exact") == "exact"
    return (
        result.sup_space, result.steps, result.collected,
        result.peak_step if exact else None,
        sorted(item for item in result.meter_stats.items()
               if item[0] not in UNPINNED_STATS),
        hooks,
    )


def metered_cases():
    """(name, program, argument) of every corpus program at a small
    input and every Theorem 25 separator at N = 8."""
    cases = [
        (entry.name, entry.source, SMALL_INPUTS[entry.name])
        for entry in load_corpus()
    ]
    cases += [(sep.name, sep.source, "8") for sep in SEPARATORS]
    return cases


def metered_runs_digest():
    digest = hashlib.sha256()
    runs = 0
    for name, source, argument in metered_cases():
        program = prepare_program(source)
        argument = prepare_input(argument)
        for machine in sorted(ALL_MACHINES):
            for linked in (False, True):
                for meter in METERS:
                    row = metered_row(
                        machine, program, argument, linked=linked,
                        meter=meter,
                    )
                    runs += 1
                    digest.update(
                        repr((name, machine, linked, meter, row)).encode()
                    )
    return digest.hexdigest(), runs


def test_run_metered_on_the_corpus_and_the_separators():
    digest, runs = metered_runs_digest()
    assert runs == (24 + 4) * 8 * 2 * 2
    assert digest == METERED_RUNS_SHA256


def test_quota_kill_receipts():
    """The kill of a separator 20 words over budget, under both meters
    and both accountings: where it dies and who holds the space."""
    program = prepare_program(SEPARATORS_BY_NAME["gc-vs-tail"].source)
    argument = prepare_input("32")
    digest = hashlib.sha256()
    for meter in METERS:
        for linked in (False, True):
            try:
                run_metered(
                    make_machine("gc"), program, argument, linked=linked,
                    fixed_precision=True, meter=meter,
                    budget=147 if linked else 256,
                    checkpoint_every=CHECKPOINT_EVERY,
                )
            except QuotaExceeded as kill:
                receipt = kill.receipt()
            else:
                raise AssertionError("the separator fit its budget")
            receipt["blame"] = sorted(receipt["blame"].items())
            digest.update(repr((meter, linked, sorted(receipt.items())))
                          .encode())
    assert digest.hexdigest() == QUOTA_RECEIPTS_SHA256


def test_uncertified_sampled_run_replays_exactly():
    """At the default cadence this run's suspects are not dominated by
    its sup, so it replays on the eager schedule."""
    program = prepare_program(load_program("destruct").source)
    row = metered_row(
        "mta", program, prepare_input("10"), linked=True,
        fixed_precision=True, meter="sampled",
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
    )
    stats = dict(row[4])
    assert stats["exact_rerun"] and stats["certified"]
    digest = hashlib.sha256(repr(row).encode()).hexdigest()
    assert digest == UNCERTIFIED_REPLAY_SHA256


def events(bus):
    """A bus's events without their wall-clock stamps."""
    return [(e.kind, e.step, e.label, e.value) for e in bus.events]


def series(sampler):
    """A profiler's series with each point's holders in name order
    (the order they are met in follows the hash seed)."""
    payload = sampler.series().as_dict()
    payload["blames"] = [sorted(point.items()) for point in payload["blames"]]
    return payload


def test_trace_run_events_blame_and_retention():
    digest = hashlib.sha256()
    for machine, name, argument, linked in (
        ("gc", "gc-vs-tail", "8", False),
        ("mta", "gc-vs-tail", "8", True),
        ("sfs", "fib", "5", False),
    ):
        source = (
            SEPARATORS_BY_NAME[name].source if name in SEPARATORS_BY_NAME
            else load_program(name).source
        )
        session = trace_run(
            machine, source, argument, linked=linked, retention_every=1,
        )
        result = session.result
        digest.update(repr((
            machine, name, linked,
            (result.sup_space, result.steps, result.collected,
             result.peak_step),
            events(session.bus),
            series(session.blame),
            series(session.retention),
            session.retention.history,
        )).encode())
    assert digest.hexdigest() == TRACE_RUN_SHA256


def test_unmetered_traced_run_on_both_steppers():
    program = prepare_program(load_program("fib").source)
    argument = prepare_input("10")
    digest = hashlib.sha256()
    for stepper in STEPPERS:
        for machine in sorted(ALL_MACHINES):
            bus = TraceBus()
            result = run(program, argument, machine=machine,
                         stepper=stepper, trace=bus)
            assert bus.steps == result.steps
            digest.update(repr((
                stepper, machine, result.answer, result.steps,
                sorted(bus.meta.items()), events(bus),
            )).encode())
    assert digest.hexdigest() == UNMETERED_TRACE_SHA256
