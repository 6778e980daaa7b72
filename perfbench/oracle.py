"""Expected outcomes for every job any seed can generate.

The oracle runs each cell once with the preserved seed stepper
(``stepper="seed"``) and, when metered, the ``reference`` engine:
never with the stepper, engine or driver being timed.  Outcomes are
keyed by :func:`jobs.oracle_key`; the seed only orders and picks jobs
from the fixed universes, so one oracle serves every seed.  The cache
records a fingerprint of the sources it was computed from and is
rebuilt when they change.

    python3 perfbench/oracle.py DIR     # writes DIR/oracle.json and
                                        # DIR/serve-history.jsonl
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 2


def fingerprint() -> str:
    """sha256 over the program's sources and the job universes."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, name) for name in ("jobs.py", "oracle.py")]
    for directory, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
        paths += [os.path.join(directory, name) for name in files
                  if name.endswith((".py", ".scm"))]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def expected(cell: dict) -> dict:
    from repro.harness.runner import run
    from repro.machine.answer import answer_string
    from repro.machine.variants import make_stepper
    from repro.space.consumption import prepare_input, prepare_program
    from repro.space.meter import run_metered

    mode = cell["key"].split("|")[3]
    if mode == "unmetered":
        result = run(cell["program"], cell["argument"],
                     machine=cell["machine"], stepper="seed")
        return {"answer": result.answer, "steps": result.steps}
    result = run_metered(
        make_stepper(cell["machine"], "seed"),
        prepare_program(cell["program"]),
        prepare_input(cell["argument"]),
        linked=cell["linked"],
        fixed_precision=mode == "exact-fixed",
        engine="reference",
    )
    return {
        "answer": answer_string(result.final, 10000),
        "answer200": answer_string(result.final, 200),
        "steps": result.steps,
        "sup_space": result.sup_space,
        "consumption": result.consumption,
        "collected": result.collected,
    }


def _expected_many(cells):
    return [(cell["key"], expected(cell)) for cell in cells]


def build(directory: str) -> None:
    import jobs as joblists

    cells = {}
    for workload in joblists.WORKLOADS:
        for cell in joblists.oracle_cells(workload):
            cells.setdefault(cell["key"], cell)
    ordered = sorted(cells.values(), key=lambda cell: cell["key"])
    chunks = [ordered[i::16] for i in range(16)]
    outcomes = {}
    context = get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        for pairs in pool.map(_expected_many, chunks):
            outcomes.update(pairs)
    history = []
    for cell in joblists.serve_history_cells():
        history.append({
            "program_sha": joblists.sha(cell["program"]),
            "machine": cell["machine"],
            "accounting": "linked" if cell["linked"] else "flat",
            "fixed_precision": True,
            "n": int(cell["argument"]),
            "consumption": outcomes[cell["key"]]["consumption"],
        })
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "serve-history.jsonl"), "w",
              encoding="utf-8") as handle:
        for record in history:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    # The outcomes file is written last: its presence marks a build.
    with open(os.path.join(directory, "oracle.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"fingerprint": fingerprint(), "outcomes": outcomes},
                  handle)


if __name__ == "__main__":
    build(sys.argv[1])
