"""The space-blame profiler's exactness contract.

:func:`blame_configuration` claims an *exact* decomposition: the blame
values sum to precisely ``configuration_space`` (Figure 7) or
``configuration_space_linked`` (Figure 8) for every configuration the
meter measures, under either number precision.  These tests hold that
sum pointwise over random programs (hypothesis) and over the corpus,
and check that the profiler's peak snapshot is the sup itself.
"""

import pytest
from hypothesis import given, settings

from repro.machine.variants import make_machine
from repro.space.consumption import prepare_program
from repro.space.flat import configuration_space
from repro.space.linked import configuration_space_linked
from repro.telemetry.blame import (
    BlameProfiler,
    BlameSeries,
    blame_by_class,
    blame_configuration,
    holder_class,
    node_label,
    trace_run,
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


def walk_blaming(machine_name, source, arg, linked, fixed_precision=False):
    """Step a machine by hand, asserting the exact-sum property at
    every configuration along the way (no GC — raw reachability)."""
    space = configuration_space_linked if linked else configuration_space
    machine = make_machine(machine_name)
    configuration = machine.inject(prepare_program(source), arg and
                                   prepare_program(arg))
    for _ in range(400):
        blame = blame_configuration(configuration, linked, fixed_precision)
        assert sum(blame.values()) == space(configuration, fixed_precision)
        if configuration.is_final:
            break
        configuration = machine.step(configuration)
    else:
        pytest.fail("program did not finish in 400 steps")


# ---------------------------------------------------------------------------
# Property: blame sums to the measured space, pointwise
# ---------------------------------------------------------------------------


@given(program_bodies)
@settings(max_examples=25, deadline=None)
def test_blame_is_exact_on_random_programs_flat(body):
    session = trace_run("gc", as_program(body), "3")
    for _step, space, total in session.blame.history:
        assert total == space, as_program(body)


@given(program_bodies)
@settings(max_examples=25, deadline=None)
def test_blame_is_exact_on_random_programs_linked(body):
    session = trace_run("sfs", as_program(body), "3", linked=True)
    for _step, space, total in session.blame.history:
        assert total == space, as_program(body)


MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo", "mta")


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("linked", [False, True], ids=["flat", "linked"])
def test_blame_is_exact_along_a_raw_walk(machine, linked):
    walk_blaming(machine, LOOP, None, linked)
    walk_blaming(machine, BUILD, None, linked)


@pytest.mark.parametrize("linked", [False, True], ids=["flat", "linked"])
def test_blame_is_exact_with_escapes_and_fixed_precision(linked):
    walk_blaming("tail", ESCAPE, None, linked, fixed_precision=True)


@pytest.mark.parametrize("fixed_precision", [False, True])
def test_blame_is_exact_under_gc_over_a_full_metered_run(fixed_precision):
    for machine, linked in [("gc", False), ("stack", False),
                            ("evlis", True), ("mta", True)]:
        session = trace_run(
            machine, BUILD, "7", linked=linked,
            fixed_precision=fixed_precision,
        )
        assert session.blame.history, "meter never called the profiler"
        for _step, space, total in session.blame.history:
            assert total == space


# ---------------------------------------------------------------------------
# The peak snapshot
# ---------------------------------------------------------------------------


def test_profiler_peak_is_the_sup():
    session = trace_run("gc", BUILD, "9")
    blame = session.blame
    assert blame.peak_space == session.result.sup_space
    assert blame.peak_step == session.result.peak_step
    assert sum(blame.at_peak.values()) == session.result.sup_space


def test_gc_machine_blames_return_frames():
    # The gc machine's non-tail self-call stacks Return frames; at the
    # peak they should be a named, dominant holder — the "who holds
    # the space" question the profiler exists to answer.
    session = trace_run("gc", LOOP, "30")
    assert session.blame.at_peak.get("kont:Return", 0) > 0
    tail = trace_run("tail", LOOP, "30")
    assert "kont:Return" not in tail.blame.at_peak


def test_blame_keys_carry_call_sites_and_lambdas():
    session = trace_run("tail", LOOP, "10")
    keys = set(session.blame.totals)
    assert any(key.startswith("kont:Push@") for key in keys)
    assert any(key.startswith("closure@(lambda") for key in keys)


def test_linked_blame_charges_bindings_once():
    session = trace_run("sfs", LOOP, "10", linked=True)
    binding_keys = [
        key for key in session.blame.at_peak if key.startswith("binding:")
    ]
    assert binding_keys, "linked blame should name bindings"
    # Each (name, location) pair costs exactly one word; no holder of
    # a single binding name can exceed the store's location count.
    for key in binding_keys:
        assert session.blame.at_peak[key] >= 1


# ---------------------------------------------------------------------------
# Profiler mechanics
# ---------------------------------------------------------------------------


def test_profiler_sampling_every_k():
    dense = trace_run("gc", LOOP, "20", blame_every=1)
    sparse = trace_run("gc", LOOP, "20", blame_every=5)
    assert dense.blame.observed == sparse.blame.observed
    assert sparse.blame.sampled < dense.blame.sampled
    # Sampled peaks still satisfy the exactness receipt.
    for _step, space, total in sparse.blame.history:
        assert total == space


def test_profiler_mean_and_empty():
    empty = BlameProfiler()
    assert empty.mean() == {}
    session = trace_run("tail", LOOP, "5")
    mean = session.blame.mean()
    assert mean
    assert sum(mean.values()) == pytest.approx(
        sum(space for _s, space, _t in session.blame.history)
        / session.blame.sampled
    )


def test_profiler_rejects_bad_stride():
    with pytest.raises(ValueError):
        BlameProfiler(every=0)


def test_series_capacity_zero_disables_retention():
    session = trace_run("gc", LOOP, "20", series_capacity=0)
    assert len(session.blame.series(include_peak=False)) == 0
    # Peak/totals/history still work without the series.
    assert session.blame.at_peak
    assert session.blame.history


# ---------------------------------------------------------------------------
# The time-series: pointwise exactness, bounding, downsample, merge
# ---------------------------------------------------------------------------


@given(program_bodies)
@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("machine,linked", [("gc", False), ("sfs", True)])
def test_series_is_exact_pointwise(machine, linked, body):
    """The acceptance property: at every sampled point of the series,
    the decomposition sums to the measured space — both accountings."""
    session = trace_run(machine, as_program(body), "3", linked=linked)
    series = session.blame.series()
    assert len(series)
    for space, blame in zip(series.spaces, series.blames):
        assert sum(blame.values()) == space, as_program(body)


def test_series_is_bounded_and_keeps_the_peak():
    session = trace_run("gc", LOOP, "400", series_capacity=16)
    series = session.blame.series()
    # Bounded: capacity plus at most the spliced-back peak sample.
    assert len(series) <= 17
    assert series.stride > 1  # compaction actually happened
    # The sup survives compaction.
    step, space, blame = series.peak()
    assert space == session.result.sup_space
    assert step == session.result.peak_step
    assert sum(blame.values()) == space
    # Steps are strictly increasing (the peak was spliced in order).
    assert all(a < b for a, b in zip(series.steps, series.steps[1:]))


def test_series_holders_and_series_for():
    session = trace_run("gc", LOOP, "30")
    series = session.blame.series()
    holders = series.holders(top=3)
    assert len(holders) == 3
    peaks = [max(series.series_for(holder)) for holder in holders]
    assert peaks == sorted(peaks, reverse=True)
    assert len(series.series_for(holders[0])) == len(series)
    assert series.series_for("no-such-holder") == [0] * len(series)


def test_downsample_keeps_the_sup_and_stays_exact():
    session = trace_run("gc", BUILD, "12")
    series = session.blame.series()
    small = series.downsample(8)
    assert len(small) <= 8
    assert max(small.spaces) == max(series.spaces)  # the sup survives
    for space, blame in zip(small.spaces, small.blames):
        assert sum(blame.values()) == space
    # Downsampling below the current length is the identity.
    same = series.downsample(len(series))
    assert same.steps == series.steps and same.spaces == series.spaces


def test_downsample_rejects_nonpositive():
    with pytest.raises(ValueError):
        BlameSeries().downsample(0)


def test_merge_concatenates_and_refuses_mixed_accountings():
    a = trace_run("gc", LOOP, "10").blame.series()
    b = trace_run("tail", LOOP, "10").blame.series()
    merged = BlameSeries.merge([a, b])
    assert len(merged) == len(a) + len(b)
    assert merged.machine == "gc+tail"
    assert merged.steps == sorted(merged.steps)
    for space, blame in zip(merged.spaces, merged.blames):
        assert sum(blame.values()) == space
    linked = trace_run("gc", LOOP, "10", linked=True).blame.series()
    with pytest.raises(ValueError):
        BlameSeries.merge([a, linked])
    assert len(BlameSeries.merge([])) == 0


def test_series_round_trips_as_plain_data():
    series = trace_run("stack", BUILD, "8").blame.series()
    clone = BlameSeries.from_dict(series.as_dict())
    assert clone == series


def test_holder_class_collapses_sites_and_lambdas():
    assert holder_class("kont:Push@(f (- n 1))") == "kont:Push"
    assert holder_class("closure@(lambda (n) (f n))") == "closure"
    assert holder_class("binding:n") == "binding"
    assert holder_class("store:Num") == "store:Num"
    assert holder_class("env:register") == "env:register"


def test_blame_by_class_is_an_exact_regrouping():
    session = trace_run("gc", LOOP, "30")
    blame = session.blame.at_peak
    classed = blame_by_class(blame)
    assert sum(classed.values()) == sum(blame.values())
    assert all("@" not in key for key in classed)


@pytest.mark.parametrize("linked", (False, True), ids=("flat", "linked"))
def test_trace_run_blames_incrementally_and_matches_the_walk(linked):
    """``repro trace`` samples the meter's incremental decomposition
    instead of re-walking the configuration, and on every machine every
    table it reports equals that of a profiler walking each sampled
    configuration of the same computation (the reference engine offers
    no delta), whose sums meet the delta engine's measurements."""
    from repro.space.consumption import prepare_input
    from repro.space.meter import run_metered

    for machine in MACHINES:
        session = trace_run(machine, BUILD, "12", linked=linked)
        inc = session.blame
        assert inc.incremental_samples > 0, machine
        walked = BlameProfiler()
        result = run_metered(
            make_machine(machine), prepare_program(BUILD),
            prepare_input("12"), linked=linked, gc_interval=1,
            engine="reference", blame=walked,
        )
        assert walked.incremental_samples == 0
        assert (result.steps, result.sup_space) == (
            session.result.steps, session.result.sup_space
        ), machine
        assert (
            inc.sampled, inc.peak_space, inc.peak_step, inc.at_peak
        ) == (
            walked.sampled, walked.peak_space, walked.peak_step,
            walked.at_peak,
        ), machine
        assert inc.totals == walked.totals, machine
        assert inc.history == walked.history, machine
        assert inc.series().as_dict() == walked.series().as_dict(), machine


def test_trace_run_records_blame_instruments():
    session = trace_run("gc", LOOP, "15")
    dump = session.metrics.as_dict()
    assert dump["counters"]["blame_samples{machine=gc}"] == (
        session.blame.sampled
    )
    assert dump["gauges"]["blame_peak_holders{machine=gc}"] == (
        len(session.blame.at_peak)
    )


def test_node_labels_are_truncated_and_cached():
    expr = prepare_program(
        "(define (f) (+ 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18))"
    )
    label = node_label(expr)
    assert len(label) <= 48
    assert node_label(expr) is label
