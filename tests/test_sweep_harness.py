"""The parallel sweep harness: serial/parallel identity, graceful
degradation, and the CLI ``--jobs`` path."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness.sweep import (
    SweepCell,
    aggregate_series,
    aggregate_traces,
    grid_cells,
    run_cell,
    run_grid,
    series_from_outcomes,
    sweep_series,
)
from repro.space.consumption import sweep as serial_sweep

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
NS = (4, 8, 16)


def make_cells():
    return grid_cells(
        {("tail",): LOOP, ("gc",): LOOP}, NS, fixed_precision=True
    )


def test_serial_and_parallel_grids_identical():
    cells = make_cells()
    serial = run_grid(cells, jobs=1)
    parallel = run_grid(cells, jobs=4)
    assert [o.cell.key for o in serial] == [o.cell.key for o in parallel]
    assert [o.total for o in serial] == [o.total for o in parallel]
    assert all(o.error is None for o in parallel)


def test_grid_matches_consumption_sweep():
    cells = make_cells()
    series = series_from_outcomes(run_grid(cells, jobs=2))
    for machine in ("tail", "gc"):
        _, expected = serial_sweep(
            machine, lambda n: LOOP, NS, fixed_precision=True
        )
        assert tuple(series[(machine,)][n] for n in NS) == expected


def test_sweep_series_parallel_matches_serial():
    ns, totals = sweep_series(
        "gc", lambda n: LOOP, NS, jobs=3, fixed_precision=True
    )
    _, expected = serial_sweep("gc", lambda n: LOOP, NS, fixed_precision=True)
    assert ns == NS
    assert totals == expected


def test_failed_cell_reports_error_outcome():
    cell = SweepCell(
        key=("bad", 1),
        machine="tail",
        program="(undefined-procedure 1)",
        argument=None,
    )
    outcome = run_cell(cell)
    assert outcome.result is None
    assert outcome.error
    with pytest.raises(RuntimeError):
        outcome.total


def test_failed_cell_in_parallel_grid():
    cells = [
        SweepCell(key=("ok",), machine="tail", program=LOOP, argument="4"),
        SweepCell(
            key=("bad",),
            machine="tail",
            program="(undefined-procedure 1)",
            argument=None,
        ),
    ]
    outcomes = run_grid(cells, jobs=2)
    assert outcomes[0].error is None
    assert outcomes[1].error is not None


def test_engine_choice_is_identical(tmp_path):
    for engine in ("delta", "reference"):
        ns, totals = sweep_series(
            "gc", lambda n: LOOP, (4, 8), engine=engine, fixed_precision=True
        )
        assert ns == (4, 8)
        if engine == "delta":
            delta_totals = totals
        else:
            assert totals == delta_totals


def traced_cells(trace_sample=1, blame_every=2):
    return grid_cells(
        {("tail",): LOOP, ("gc",): LOOP},
        NS,
        fixed_precision=True,
        trace_sample=trace_sample,
        trace_capacity=None,
        blame_every=blame_every,
    )


def test_traced_cells_ship_events_and_series():
    from repro.telemetry.bus import replay

    for outcome in run_grid(traced_cells()):
        # Unsampled, unbounded capture: the shipped events replay to
        # the cell's own meter report.
        summary = replay(outcome.events)
        assert summary.steps == outcome.result.steps
        assert summary.sup_space == outcome.result.sup_space
        # The shipped series is exact pointwise.
        series = outcome.series
        assert series is not None and series["steps"]
        for space, blame in zip(series["spaces"], series["blames"]):
            assert sum(blame.values()) == space


def test_untraced_cells_ship_nothing():
    outcome = run_cell(
        SweepCell(key=("tail", 4), machine="tail", program=LOOP, argument="4")
    )
    assert outcome.events is None
    assert outcome.series is None


def test_aggregate_traces_folds_the_grid():
    outcomes = run_grid(traced_cells())
    folded = aggregate_traces(outcomes)
    assert folded["cells"] == len(outcomes)
    assert folded["steps"] == sum(o.result.steps for o in outcomes)
    assert folded["sup_space"] == max(o.result.sup_space for o in outcomes)
    assert folded["sup_cell"] in {o.cell.key for o in outcomes}
    assert folded["events"] == sum(len(o.events) for o in outcomes)


def test_aggregate_series_merges_the_grid():
    outcomes = run_grid(traced_cells())
    merged = aggregate_series(outcomes)
    assert len(merged) == sum(len(o.series["steps"]) for o in outcomes)
    assert sum(merged.totals().values()) == sum(merged.spaces)


def test_blame_cells_merge_to_the_walked_table():
    """Sweep's blame cells profile incrementally; the merged table is
    the one profilers walking each sampled configuration give on the
    same cells (run on the reference engine, which offers no delta)."""
    from repro.space.consumption import measure
    from repro.telemetry.blame import BlameProfiler, BlameSeries

    cells = traced_cells(trace_sample=0, blame_every=2)
    merged = aggregate_series(run_grid(cells))
    expected = []
    for cell in cells:
        profiler = BlameProfiler(every=cell.blame_every)
        measure(
            cell.machine, cell.program, cell.argument,
            linked=cell.linked, fixed_precision=cell.fixed_precision,
            engine="reference", meter=cell.meter,
            gc_interval=cell.gc_interval, step_limit=cell.step_limit,
            blame=profiler,
        )
        assert profiler.incremental_samples == 0
        expected.append(profiler.series())
    assert merged.as_dict() == BlameSeries.merge(expected).as_dict()
    assert merged.totals() == BlameSeries.merge(expected).totals()


def test_parallel_traced_grid_matches_serial():
    from repro.telemetry.bus import replay

    serial = run_grid(traced_cells(), jobs=1)
    parallel = run_grid(traced_cells(), jobs=2)
    # Timestamps differ run to run; the replayed numbers and the blame
    # series (which carry no wall-clock) must not.
    for a, b in zip(serial, parallel):
        assert replay(a.events) == replay(b.events)
        assert a.series == b.series


def test_cli_sweep_trace_sample_and_blame(tmp_path, capsys):
    path = tmp_path / "loop.scm"
    path.write_text(LOOP)
    assert main([
        "sweep", str(path), "--ns", "4,8", "--machine", "tail,gc",
        "--trace-sample", "1", "--blame-every", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "space blame over the grid" in out
    assert "kont:" in out


def test_cli_sweep_jobs_identical(tmp_path, capsys):
    path = tmp_path / "loop.scm"
    path.write_text(LOOP)
    assert main(["sweep", str(path), "--ns", "4,8,16", "--machine", "tail,gc"]) == 0
    serial_out = capsys.readouterr().out
    assert (
        main(
            [
                "sweep",
                str(path),
                "--ns",
                "4,8,16",
                "--machine",
                "tail,gc",
                "--jobs",
                "4",
            ]
        )
        == 0
    )
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
    assert "tail" in serial_out and "gc" in serial_out


@pytest.mark.parametrize("linked", (False, True), ids=("flat", "linked"))
def test_default_cells_take_the_lazy_schedule(linked):
    """A cell meters lazily unless told otherwise, certifies its own
    sup, and reports what an exact cell reports."""
    from repro.machine.variants import ALL_MACHINES
    from repro.programs.separators import SEPARATORS

    for separator in SEPARATORS:
        for machine in sorted(ALL_MACHINES):
            cell = SweepCell(key=(separator.name, machine), machine=machine,
                             program=separator.source, argument="16",
                             linked=linked)
            lazy = run_cell(cell).result
            exact = run_cell(replace(cell, meter="exact")).result
            assert lazy.meter_stats["mode"] == "sampled"
            assert lazy.meter_stats["certified"] is True
            assert lazy.meter_stats["exact_rerun"] is False
            assert exact.meter_stats["mode"] == "exact"
            assert (lazy.answer, lazy.steps, lazy.sup_space, lazy.total) \
                == (exact.answer, exact.steps, exact.sup_space, exact.total)


def test_run_cell_compiles_each_program_once(monkeypatch):
    """The cells of a grid share their program's compilation; a
    program that fails to compile fails every cell that names it and
    is never kept."""
    from repro.compiler import frontend

    frontend.clear_compiled()
    expanded = []
    expand = frontend.expand_program

    def counted(source):
        expanded.append(source)
        return expand(source)

    monkeypatch.setattr(frontend, "expand_program", counted)
    for outcome in run_grid(make_cells()):
        assert outcome.error is None
    assert expanded == [LOOP]
    bad = SweepCell(key=("bad",), machine="tail",
                    program="(undefined-procedure 1)")
    for _ in range(3):
        assert run_cell(bad).error.startswith("ValidationError")
        assert bad.program not in frontend._COMPILED
    assert expanded == [LOOP] + [bad.program] * 3
    frontend.clear_compiled()


def test_compiled_programs_stay_within_the_capacity():
    """Run cells over more distinct programs than a process keeps: the
    least recently used fall out, and resolving a served artifact
    shares the same table."""
    from repro.compiler import frontend
    from repro.serving.artifacts import build_artifact, resolve_program

    frontend.clear_compiled()
    bound = frontend.DEFAULT_CAPACITY
    sources = [f"(define (f n) (+ n {k}))" for k in range(bound + 3)]
    for k, source in enumerate(sources):
        outcome = run_cell(SweepCell(key=(k,), machine="tail",
                                     program=source, argument="1"))
        assert outcome.result.answer == str(k + 1)
    assert len(frontend._COMPILED) == bound
    assert sources[0] not in frontend._COMPILED
    assert sources[-1] in frontend._COMPILED
    served = resolve_program({"program": sources[-1],
                              "artifact": build_artifact(sources[-1])})
    assert served is frontend._COMPILED[sources[-1]]
    frontend.clear_compiled()


def test_a_sweep_process_never_loads_hashlib():
    """Programs are kept by their text, so a process that only runs
    cells never pays for hashlib."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "from repro.harness.sweep import SweepCell, run_cell\n"
        f"cell = SweepCell(key=(1,), machine='gc', program={LOOP!r},"
        " argument='8')\n"
        "assert run_cell(cell).total == run_cell(cell).total\n"
        "print('hashlib' in sys.modules)\n"
    )
    output = subprocess.run([sys.executable, "-c", script], env=env,
                            check=True, capture_output=True, text=True,
                            timeout=120).stdout
    assert output.strip() == "False"
