"""The meter's outputs, pinned: what ``run_metered`` and the traced
drivers report.

The digests below were computed with the metering driver that handled
the final configuration outside its schedules' loops and with the
trace loops inside the machine classes.  Every number and event a run
reports is part of the contract, so the current code must reproduce
them exactly: sup-space, steps, reclaimed locations, the peak step
(exact meter), the engine and schedule counters, the checkpoint
heartbeats, quota-kill receipts and the trace streams.
``UNCERTIFIED_REPLAY_SHA256`` alone was pinned again when the exact
replay of an uncertified sampled run began to pass on the checkpoint
hook: it differs by the replay's heartbeats only, and the run's numbers
are held separately (``UNCERTIFIED_REPLAY_NUMBERS``).

``METERED_RUNS_SHA256`` and ``UNCERTIFIED_REPLAY_SHA256`` were pinned
again when a write that gives an unrooted cell a forward edge began to
flag it as a cycle suspect: the lazy schedule's roots lag the machine,
so without that rule a garbage cycle could outlive its retro-collection
and a certified sampled run report a sup above the exact one.  Only
``trials`` moved, in 16 sampled rows (browse-lite, destruct,
puzzle-lite) and in the uncertified run (316 to 325); every other
number, counter and heartbeat, and every exact row, is as before.
"""

import hashlib
import os
import subprocess
import sys

import repro
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
    "8091ca3de3ca9d36111daf293ab6bfe447702b35bbdc56d8a6da680734c70199"
)
QUOTA_RECEIPTS_SHA256 = (
    "c038eab7b358e7e3570c2cd436bfda6636709f447f46dc96859c5e6ef1db7954"
)
UNCERTIFIED_REPLAY_SHA256 = (
    "ec8fdc51bff871fc89139308130015a53f8bafc78d28dd6494557f51a47e53cb"
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


#: Left out of the digests, which were taken while this counter still
#: followed the hash seed; that it no longer does is held by
#: :func:`test_meter_stats_do_not_follow_the_hash_seed`.
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


#: What the uncertified run below reports: sup, steps, collected, peak
#: step (not reported by a sampled run) and its meter_stats.
UNCERTIFIED_REPLAY_NUMBERS = (
    187, 1882, 234, None,
    [("anchors", 0), ("canonical_fallbacks", 0), ("certified", True),
     ("checkpoints", 29), ("collections", 143), ("engine", "delta"),
     ("escape_fallback", False), ("exact_rerun", True),
     ("ledger_updates", 5336), ("mode", "sampled"), ("root_updates", 6286),
     ("suspect_steps", 2), ("trials", 325), ("trips", 142)],
)


def test_uncertified_sampled_run_replays_exactly():
    """At the default cadence this run's suspects are not dominated by
    its sup, so it replays on the eager schedule.  The checkpoint hook
    hears both passes: the replay's heartbeats count from step 0 again,
    one every ``checkpoint_every`` steps."""
    program = prepare_program(load_program("destruct").source)
    row = metered_row(
        "mta", program, prepare_input("10"), linked=True,
        fixed_precision=True, meter="sampled",
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
    )
    assert row[:5] == UNCERTIFIED_REPLAY_NUMBERS
    hooks = row[5]
    replay = next(i for i in range(1, len(hooks)) if hooks[i][0] == 0)
    assert replay == 143
    assert [steps for steps, _total in hooks[replay:]] == list(
        range(0, row[1], DEFAULT_CHECKPOINT_EVERY)
    )
    digest = hashlib.sha256(repr(row).encode()).hexdigest()
    assert digest == UNCERTIFIED_REPLAY_SHA256


#: Metered cells run under two hash seeds: the first one's trial_nodes
#: once read 85 under seed 0 and 87 under seed 1.
SEEDED_CELLS = (
    ("sfs", "church", "3", False, "exact"),
    ("gc", "meta-eval", "4", True, "exact"),
    ("mta", "destruct", "10", True, "sampled"),
)

SEEDED_SCRIPT = """
from repro.machine.variants import make_machine
from repro.programs.corpus import load_program
from repro.space.consumption import prepare_input, prepare_program
from repro.space.meter import run_metered

for machine, name, argument, linked, meter in {cells!r}:
    result = run_metered(
        make_machine(machine),
        prepare_program(load_program(name).source),
        prepare_input(argument), linked=linked, meter=meter,
    )
    print(name, result.sup_space, sorted(result.meter_stats.items()))
"""


def test_meter_stats_do_not_follow_the_hash_seed():
    """Every ``meter_stats`` counter, ``trial_nodes`` included, reads
    the same in processes with different hash seeds."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = SEEDED_SCRIPT.format(cells=SEEDED_CELLS)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("trial_nodes") == len(SEEDED_CELLS)
    assert outputs[0] == outputs[1]


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
