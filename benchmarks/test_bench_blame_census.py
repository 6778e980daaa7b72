"""The corpus blame census — a section-13-style "who holds the space"
table per machine class.

For every reference implementation, ``trace_run`` walks the whole
corpus with the blame profiler attached and the peak decompositions
are summed by holder *class* (:func:`repro.telemetry.blame.holder_class`
strips call sites and lambdas, so programs with different ASTs land in
the same rows).  The ranked tables — one per machine, under both the
Figure 7 (flat) and Figure 8 (linked) accountings — are the corpus
counterpart of the per-program blame table ``repro trace`` prints.

The paper-predicted shape is asserted on the separator programs:

- on the gc-vs-tail separator, return continuations dominate the peak
  under ``gc``/``stack`` (the machines that retain the evaluation
  context Proposition 4 says tail machines may drop) and are *absent*
  from the peak under ``tail`` and ``sfs``;
- under the linked accounting, environments (``binding`` holders)
  take a strictly larger peak share under ``tail`` than under ``sfs``
  on the evlis/free separators — the space ``sfs`` reclaims is
  precisely bindings a safe-for-space machine does not retain.

The summary lands in ``benchmarks/results/BENCH_blame_census.json``
(schema checked by
:func:`repro.telemetry.export.validate_blame_census`) and the rendered
tables in ``benchmarks/results/blame_census.txt``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -m blame_census
"""

import os

import pytest

from conftest import once, write_bench_summary

from repro.harness.report import render_blame_table
from repro.programs.corpus import load_corpus
from repro.programs.separators import (
    EVLIS_VS_FREE,
    GC_VS_TAIL,
    TAIL_VS_EVLIS,
)
from repro.telemetry.blame import blame_by_class, trace_run
from repro.telemetry.export import validate_blame_census

MACHINES = ("sfs", "free", "evlis", "tail", "gc", "stack", "bigloo", "mta")
ACCOUNTINGS = ("flat", "linked")

#: Decompose every k-th measured configuration; the peak snapshot is
#: still the exact sup over the sampled configurations, and the census
#: sums peaks, not samples, so the rate only coarsens *which* peak.
BLAME_EVERY = 4
TOP_ROWS = 12

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CENSUS_JSON = "BENCH_blame_census.json"

#: Minimum peak share of return continuations under the
#: context-retaining machines on the gc-vs-tail separator (measured
#: ~0.67; the floor leaves room for argument changes).
RETURN_DOMINATES = 0.25


def _class_rows(totals):
    """Ranked holder-class rows with shares of the grand total."""
    grand = sum(totals.values()) or 1
    entries = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"holder": holder, "words": words, "share": round(words / grand, 4)}
        for holder, words in entries[:TOP_ROWS]
    ]


def _machine_census(machine):
    """Sum the corpus's peak blame decompositions by holder class,
    under both accountings."""
    entry = {"programs": 0, "steps": 0, "flat": None, "linked": None}
    for accounting in ACCOUNTINGS:
        linked = accounting == "linked"
        totals = {}
        programs = 0
        steps = 0
        for program in load_corpus():
            session = trace_run(
                machine,
                program.source,
                program.default_input,
                linked=linked,
                fixed_precision=True,
                blame_every=BLAME_EVERY,
                sample={"step": 64, "apply": 64},
                capacity=256,
                series_capacity=128,
            )
            programs += 1
            steps += session.result.steps
            for holder, words in blame_by_class(
                session.blame.at_peak
            ).items():
                totals[holder] = totals.get(holder, 0) + words
        entry["programs"] = programs
        entry["steps"] += steps
        entry[accounting] = _class_rows(totals)
    return entry


def _peak_share(machine, source, argument, holder, linked=False):
    """One separator's peak share for a holder class."""
    session = trace_run(
        machine,
        source,
        argument,
        linked=linked,
        fixed_precision=True,
        blame_every=1,
        sample={"step": 64, "apply": 64},
        capacity=64,
        series_capacity=64,
    )
    classed = blame_by_class(session.blame.at_peak)
    total = sum(classed.values()) or 1
    return classed.get(holder, 0) / total


def _separator_shape():
    """The paper-predicted shape on the separator programs."""
    shape = {"gc_vs_tail": {}, "binding_share": {}}
    for machine, holder in (
        ("gc", "kont:Return"),
        ("stack", "kont:ReturnStack"),
        ("tail", "kont:Return"),
        ("sfs", "kont:Return"),
    ):
        shape["gc_vs_tail"][machine] = round(
            _peak_share(machine, GC_VS_TAIL, "64", holder), 4
        )
    for separator, source in (
        ("tail_vs_evlis", TAIL_VS_EVLIS),
        ("evlis_vs_free", EVLIS_VS_FREE),
    ):
        shape["binding_share"][separator] = {
            machine: round(
                _peak_share(machine, source, "24", "binding", linked=True), 4
            )
            for machine in ("tail", "sfs")
        }
    return shape


def _census():
    return (
        {machine: _machine_census(machine) for machine in MACHINES},
        _separator_shape(),
    )


@pytest.mark.blame_census
def test_bench_blame_census(benchmark, artifacts):
    machines, shape = once(benchmark, _census)

    summary = {
        "version": 1,
        "corpus": len(load_corpus()),
        "fixed_precision": True,
        "blame_every": BLAME_EVERY,
        "machines": machines,
        "separators": shape,
    }

    # Rendered tables: one ranked who-holds-the-space table per
    # (machine, accounting), the census counterpart of `repro trace`.
    sections = []
    for machine in MACHINES:
        for accounting in ACCOUNTINGS:
            rows = machines[machine][accounting]
            sections.append(render_blame_table(
                {row["holder"]: row["words"] for row in rows},
                title=(
                    f"who holds the space [{machine}, {accounting}, "
                    f"{machines[machine]['programs']} programs]"
                ),
            ))
    text = "\n\n".join(sections)
    artifacts.write("blame_census.txt", text)
    print("\n" + text)

    # The JSON artifact, deterministic and atomic, to both locations.
    write_bench_summary(CENSUS_JSON, summary)
    validate_blame_census(os.path.join(RESULTS_DIR, CENSUS_JSON))

    # Every machine covered the whole corpus under both accountings.
    for machine in MACHINES:
        assert machines[machine]["programs"] == len(load_corpus()), machine
        for accounting in ACCOUNTINGS:
            assert machines[machine][accounting], (machine, accounting)

    # Return konts dominate the peak under the context-retaining
    # machines on the gc-vs-tail separator, and are absent from the
    # peak under the properly tail-recursive ones.
    assert shape["gc_vs_tail"]["gc"] >= RETURN_DOMINATES
    assert shape["gc_vs_tail"]["stack"] >= RETURN_DOMINATES
    assert shape["gc_vs_tail"]["tail"] == 0.0
    assert shape["gc_vs_tail"]["sfs"] == 0.0

    # Environments dominate under tail vs sfs: the binding share at
    # the peak is strictly larger under tail on both separators.
    for separator, shares in shape["binding_share"].items():
        assert shares["tail"] > shares["sfs"], (separator, shares)
