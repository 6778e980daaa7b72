"""The retention layer's exactness contract.

:func:`retention_snapshot` claims two *exact* partitions of every
measured configuration: the node self sizes sum to precisely
``configuration_space`` (Figure 7) or ``configuration_space_linked``
(Figure 8), and — because the super-root's dominator children
partition the graph — the per-root retained sizes sum to the same
number.  These tests hold both sums pointwise along raw machine walks
(all eight machines, both accountings), over full metered runs via the
profiler's history receipts, and over random programs (hypothesis);
then they check the analyses on top: why-live paths, provenance,
gc-vs-tail diffs, flamegraph exports, and the sweep channel.
"""

import os

import pytest
from hypothesis import given, settings

from repro.harness.sweep import SweepCell, aggregate_retention, run_cell
from repro.machine.variants import make_machine
from repro.space.consumption import prepare_program
from repro.space.flat import configuration_space
from repro.space.linked import configuration_space_linked
from repro.space.meter import ENGINES
from repro.telemetry.export import (
    validate_flamegraph,
    validate_retention_jsonl,
    write_flamegraph,
    write_retention_jsonl,
)
from repro.telemetry.retention import (
    SHARED_LABEL,
    UNREACHABLE_LABEL,
    RetentionProfiler,
    retention_diff,
    retention_run,
    retention_snapshot,
)

from test_properties import as_program, program_bodies

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
BUILD = (
    "(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))"
    "(define (main n) (length (build n)))"
)
ESCAPE = (
    "(define (main n)"
    "  (call-with-current-continuation"
    "    (lambda (k) (+ 1 (if (zero? n) (k 42) n)))))"
)
MUTATE = (
    "(define (main n)"
    "  (let ((v (vector 1 2 3)))"
    "    (vector-set! v 0 (cons n n))"
    "    (vector-ref v 0)))"
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


def assert_partitions(snapshot, configuration, linked, fixed_precision):
    space_of = configuration_space_linked if linked else configuration_space
    space = space_of(configuration, fixed_precision)
    assert snapshot.space == space
    assert sum(snapshot.selfs) == space
    assert sum(snapshot.root_retention().values()) == space
    # Retained sizes nest: every node's retained words are bounded by
    # its dominator's, and the super-root retains everything.
    assert snapshot.retained[0] == space
    for node in range(1, len(snapshot)):
        assert snapshot.retained[node] <= snapshot.retained[snapshot.idom[node]]
        assert snapshot.retained[node] >= snapshot.selfs[node] >= 0


def walk_retaining(machine_name, source, arg, linked, fixed_precision=False):
    """Step a machine by hand, asserting both exact partitions at
    every configuration along the way (no GC — raw reachability)."""
    machine = make_machine(machine_name)
    configuration = machine.inject(prepare_program(source), arg and
                                   prepare_program(arg))
    for _ in range(400):
        snapshot = retention_snapshot(
            configuration, linked, fixed_precision, machine=machine_name
        )
        assert_partitions(snapshot, configuration, linked, fixed_precision)
        if configuration.is_final:
            break
        configuration = machine.step(configuration)
    else:
        pytest.fail("program did not finish in 400 steps")


# ---------------------------------------------------------------------------
# The partition oracle: both sums equal the measured space, pointwise
# ---------------------------------------------------------------------------


MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("linked", [False, True], ids=["flat", "linked"])
def test_partition_is_exact_along_a_raw_walk(machine, linked):
    walk_retaining(machine, LOOP, None, linked)
    walk_retaining(machine, BUILD, None, linked)


@pytest.mark.parametrize("linked", [False, True], ids=["flat", "linked"])
def test_partition_is_exact_with_escapes_and_fixed_precision(linked):
    walk_retaining("tail", ESCAPE, None, linked, fixed_precision=True)
    walk_retaining("mta", MUTATE, None, linked, fixed_precision=True)


@pytest.mark.parametrize("fixed_precision", [False, True])
def test_partition_is_exact_under_gc_over_a_full_metered_run(fixed_precision):
    for machine in MACHINES:
        for linked in (False, True):
            _result, profiler = retention_run(
                machine, BUILD, "7", linked=linked,
                fixed_precision=fixed_precision,
            )
            assert profiler.history, "meter never called the profiler"
            for _step, space, self_sum, partition_sum in profiler.history:
                assert self_sum == space, (machine, linked)
                assert partition_sum == space, (machine, linked)


@given(program_bodies)
@settings(max_examples=20, deadline=None)
def test_partition_is_exact_on_random_programs_flat(body):
    _result, profiler = retention_run("gc", as_program(body), "3")
    for _step, space, self_sum, partition_sum in profiler.history:
        assert self_sum == space, as_program(body)
        assert partition_sum == space, as_program(body)


@given(program_bodies)
@settings(max_examples=20, deadline=None)
def test_partition_is_exact_on_random_programs_linked(body):
    _result, profiler = retention_run(
        "sfs", as_program(body), "3", linked=True
    )
    for _step, space, self_sum, partition_sum in profiler.history:
        assert self_sum == space, as_program(body)
        assert partition_sum == space, as_program(body)


def test_profiler_peak_is_the_sup():
    result, profiler = retention_run("gc", BUILD, "9")
    assert profiler.peak_space == result.sup_space
    assert profiler.peak_step == result.peak_step
    snapshot = profiler.at_peak
    assert snapshot.space == result.sup_space
    assert sum(snapshot.root_retention().values()) == result.sup_space


# ---------------------------------------------------------------------------
# Why-live paths and provenance
# ---------------------------------------------------------------------------


def test_why_live_paths_start_at_a_root_and_reach_the_cell():
    _result, profiler = retention_run("gc", BUILD, "6")
    snapshot = profiler.at_peak
    top = snapshot.top_locations(top=3)
    assert top, "peak configuration has no store locations"
    for location in top:
        hops = snapshot.why_live(location)
        assert hops, f"location {location} has no root path"
        # Path ends at the location's own node; first hop is a root
        # (direct successor of the super-root).
        assert hops[-1][0] == snapshot.loc_node[location]
        rendered = snapshot.render_path(location)
        assert rendered.startswith("root ")
        assert "[alloc " in rendered


def test_provenance_stamps_allocation_sites_and_steps():
    _result, profiler = retention_run("gc", BUILD, "6")
    snapshot = profiler.at_peak
    sites = [site for site in snapshot.provenance if site]
    assert sites
    # Prime-time cells carry the (initial) marker; cells allocated by
    # transitions carry an AST label and a step index.
    assert any(site == "(initial)" for site in sites)
    assert any("@ step " in site for site in sites)


def test_provenance_survives_every_engine():
    for engine in ENGINES:
        _result, profiler = retention_run("gc", BUILD, "5", engine=engine)
        snapshot = profiler.at_peak
        assert any(
            site and "@ step " in site for site in snapshot.provenance
        ), engine


def test_unreachable_root_carries_pre_gc_garbage():
    # With a lazy GC cadence, observations between collections charge
    # cells the roots no longer reach; they hang off the synthetic
    # unreachable root so live-path attribution stays honest.
    _result, profiler = retention_run("gc", BUILD, "8", gc_interval=16)
    seen = set()
    for point in profiler.series(include_peak=False).blames:
        seen.update(point)
    assert UNREACHABLE_LABEL in seen


# ---------------------------------------------------------------------------
# The gc-vs-tail diff: the separator gap is the Return-kont chains
# ---------------------------------------------------------------------------


def load_corpus(name):
    with open(os.path.join(CORPUS_DIR, name)) as handle:
        return handle.read()


def test_gc_vs_tail_diff_blames_return_chains():
    source = load_corpus("retention-gc-vs-tail.scm")
    _gc_result, gc_profiler = retention_run("gc", source, "30")
    _tail_result, tail_profiler = retention_run("tail", source, "30")
    diff = retention_diff(gc_profiler.at_peak, tail_profiler.at_peak)
    # The machines separate...
    assert diff["gap"] > 0
    # ...and the vanished root classes are exactly the continuation
    # chains the tail machine never builds (Return frames and the
    # Select frames they keep alive).
    assert "kont:Return" in diff["vanished"]
    assert set(diff["vanished"]) <= {"kont:Return", "kont:Select"}
    assert diff["vanished_words"] >= diff["gap"] * 0.9
    # Return roots dominate the gc peak and are absent from tail's.
    assert diff["left"]["kont:Return"] >= 0.25 * diff["left_space"]
    assert diff["right"].get("kont:Return", 0) == 0
    assert diff["right"].get("kont:Select", 0) == 0


def test_diff_of_a_run_against_itself_is_empty():
    _result, profiler = retention_run("gc", LOOP, "10")
    diff = retention_diff(profiler.at_peak, profiler.at_peak)
    assert diff["vanished"] == []
    assert diff["vanished_words"] == 0
    assert diff["gap"] == 0
    assert diff["left"] == diff["right"]


# ---------------------------------------------------------------------------
# Profiler mechanics: sampling, series, bounding
# ---------------------------------------------------------------------------


def test_profiler_sampling_every_k():
    _dense_result, dense = retention_run("gc", LOOP, "20", every=1)
    _sparse_result, sparse = retention_run("gc", LOOP, "20", every=5)
    assert dense.observed == sparse.observed
    assert sparse.sampled < dense.sampled
    for _step, space, self_sum, partition_sum in sparse.history:
        assert self_sum == space
        assert partition_sum == space


def test_profiler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetentionProfiler(every=0)
    with pytest.raises(ValueError):
        RetentionProfiler(series_capacity=-1)


def test_series_is_exact_pointwise_and_keeps_the_peak():
    result, profiler = retention_run("gc", LOOP, "200", series_capacity=16)
    series = profiler.series()
    assert len(series) <= 17
    assert series.stride > 1  # compaction actually happened
    for space, roots in zip(series.spaces, series.blames):
        assert sum(roots.values()) == space
    step, space, roots = series.peak()
    assert space == result.sup_space
    assert step == result.peak_step
    assert all(a < b for a, b in zip(series.steps, series.steps[1:]))


def test_series_capacity_zero_disables_the_series():
    _result, profiler = retention_run("gc", LOOP, "20", series_capacity=0)
    assert len(profiler.series(include_peak=False)) == 0
    assert profiler.at_peak is not None
    assert profiler.history


def test_shared_cells_fold_into_the_shared_root():
    # Primop cells (-, zero?) are reachable from the register rib and
    # from captured closure environments at once: no single root
    # dominates them, so they fold into (shared).
    _result, profiler = retention_run("gc", LOOP, "10")
    roots = profiler.at_peak.root_retention()
    assert roots.get(SHARED_LABEL, 0) > 0
    assert sum(roots.values()) == profiler.at_peak.space


# ---------------------------------------------------------------------------
# Flamegraph and JSONL exports
# ---------------------------------------------------------------------------


def test_folded_stacks_partition_the_space():
    _result, profiler = retention_run("gc", BUILD, "8")
    snapshot = profiler.at_peak
    stacks = snapshot.folded_stacks()
    assert stacks
    total = 0
    for line in stacks:
        path, count = line.rsplit(" ", 1)
        assert path.split(";")[0] == "R"
        total += int(count)
    assert total == snapshot.space


def test_flamegraph_write_and_validate_round_trip(tmp_path):
    _result, profiler = retention_run("gc", BUILD, "8")
    snapshot = profiler.at_peak
    path = tmp_path / "out.folded"
    lines = write_flamegraph(snapshot, path)
    report = validate_flamegraph(path)
    assert report["lines"] == lines
    assert report["total"] == snapshot.space


def test_retention_jsonl_write_and_validate_round_trip(tmp_path):
    _result, profiler = retention_run("sfs", BUILD, "8", linked=True)
    snapshot = profiler.at_peak
    path = tmp_path / "out.retention.jsonl"
    nodes = write_retention_jsonl(snapshot, path)
    report = validate_retention_jsonl(path)
    assert report["nodes"] == nodes == len(snapshot)
    assert report["space"] == snapshot.space
    assert report["meta"]["accounting"] == "linked"


def test_validators_reject_broken_artifacts(tmp_path):
    bad = tmp_path / "bad.folded"
    bad.write_text("not-rooted;x 3\n")
    with pytest.raises(ValueError):
        validate_flamegraph(bad)
    bad_jsonl = tmp_path / "bad.retention.jsonl"
    bad_jsonl.write_text('{"kind": "node", "id": 0}\n')
    with pytest.raises(ValueError):
        validate_retention_jsonl(bad_jsonl)


# ---------------------------------------------------------------------------
# The sweep channel
# ---------------------------------------------------------------------------


def test_sweep_cell_ships_retention_and_aggregates():
    cells = [
        SweepCell(key=("gc", n), machine="gc", program=LOOP,
                  argument=str(n), retention_sample=2)
        for n in (4, 8)
    ]
    outcomes = [run_cell(cell) for cell in cells]
    for outcome in outcomes:
        assert outcome.error is None
        assert outcome.retention is not None
    merged = aggregate_retention(outcomes)
    assert len(merged) == sum(
        len(outcome.retention["steps"]) for outcome in outcomes
    )
    for space, roots in zip(merged.spaces, merged.blames):
        assert sum(roots.values()) == space


def test_sweep_cell_without_retention_ships_none():
    outcome = run_cell(SweepCell(key=("gc", 4), machine="gc",
                                 program=LOOP, argument="4"))
    assert outcome.error is None
    assert outcome.retention is None
    assert len(aggregate_retention([outcome])) == 0


def test_sampled_meter_with_retention_runs_eagerly():
    outcomes = {
        meter: run_cell(SweepCell(key=("gc", 4), machine="gc",
                                  program=LOOP, argument="4", meter=meter,
                                  retention_sample=1))
        for meter in ("exact", "sampled")
    }
    sampled, exact = outcomes["sampled"], outcomes["exact"]
    assert sampled.error is None
    assert sampled.result.meter_stats["mode"] == "exact"
    assert sampled.total == exact.total
    assert sampled.retention == exact.retention
