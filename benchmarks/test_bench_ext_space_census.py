"""Extension — a space census of the whole corpus.

Not a single paper artifact, but the reading the paper teaches: for
every corpus program, the measured S_X on all six reference
implementations side by side.  The Theorem 24 chains must hold on
every row, and the spread between S_sfs and S_stack shows how much a
program's space story depends on the implementation model.
"""

from conftest import once

from repro.harness.report import render_table
from repro.programs.corpus import load_corpus
from repro.space.consumption import measure_all

MACHINES = ("sfs", "free", "evlis", "tail", "gc", "stack")


def census():
    rows = []
    for program in load_corpus():
        measured = measure_all(
            program.source,
            program.default_input,
            machines=MACHINES,
            fixed_precision=True,
            meter="sampled",
        )
        rows.append([program.name] + [measured[m].total for m in MACHINES])
    return rows


def test_bench_ext_space_census(benchmark, artifacts):
    rows = once(benchmark, census)
    table = render_table(
        ["program"] + list(MACHINES),
        rows,
        title="Space census: S_X(P, default input) in words, whole corpus",
    )
    artifacts.write("ext_space_census.txt", table)
    print("\n" + table)

    index = {m: i + 1 for i, m in enumerate(MACHINES)}
    for row in rows:
        name = row[0]
        # Theorem 24 on every corpus program (fixed-precision words).
        assert row[index["sfs"]] <= row[index["evlis"]] <= row[index["tail"]], name
        assert row[index["sfs"]] <= row[index["free"]] <= row[index["tail"]], name
        assert row[index["tail"]] <= row[index["gc"]] <= row[index["stack"]], name
