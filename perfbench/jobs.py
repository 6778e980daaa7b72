"""The four workloads' job lists, generated from a seed.

Each workload has a fixed job universe.  A round runs the same number
of jobs of the same kinds every time; the seed (with the round index)
only shuffles their order and, for ``serve``, picks which machines,
sizes and never-seen program texts fill each slot.  A job is a plain
dict; its ``key`` names the oracle entry that holds its expected
outcome.  The program sees only the generated sources and arguments.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.machine.variants import ALL_MACHINES
from repro.programs import SEPARATORS, load_corpus, theorem26_program

WORKLOADS = ("run", "sweep", "serve", "trace")

MACHINES = tuple(ALL_MACHINES)  # all 8: six reference + bigloo, mta

#: ``sweep``: separator sizes and Theorem 26 P_k sizes (tail and sfs).
SWEEP_NS = (8, 16, 24, 32)
SWEEP_KS = (4, 8, 12, 16)

#: ``trace``: separator sizes and corpus programs at small inputs; a
#: traced job runs at ~7K steps/s, so every input keeps a job under
#: ~150 ms and no single job sets a run's time.
TRACE_NS = (4, 8)
TRACE_CORPUS = {
    "tak": "6",
    "cpstak": "6",
    "ctak": "4",
    "fib": "5",
    "string-ops": "3",
    "ack": "2",
}

#: ``serve``: per round, corpus submissions per machine slot, and the
#: separator sizes whose oracle points make up the scheduler history.
SERVE_CORPUS_MACHINES = 3
SERVE_HISTORY_NS = (8, 16, 32)
SERVE_KS = tuple(range(3, 25))
SERVE_NEW_PROGRAMS = 6
SERVE_QUOTA_KS = 4
SERVE_BATCH = 4
SERVE_BATCHES = 8
#: The corpus program `POST /submit` rejects today: `_prepare_spec`
#: validates strictly while `run` does not.  It stays in the mix, once
#: per round, and counts against `success_rate`.
SERVE_REJECTED = "string-ops"


def sha(text: str) -> str:
    """The content address the service uses: sha256 of stripped text."""
    return hashlib.sha256(text.strip().encode("utf-8")).hexdigest()


def oracle_key(program: str, argument, machine: str, mode: str,
               linked: bool = False) -> str:
    """Oracle entry name.  ``mode`` is ``unmetered``, ``exact-fixed``
    (fixed-precision numbers, as `repro sweep` and `repro serve`
    default) or ``exact-bignum`` (as `repro trace` defaults)."""
    accounting = "linked" if linked else "flat"
    return f"{sha(program)[:16]}|{argument}|{machine}|{mode}|{accounting}"


def _corpus() -> Dict[str, Tuple[str, str]]:
    return {p.name: (p.source, p.default_input) for p in load_corpus()}


def _rng(seed: int, round_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_index}")


# -- run -------------------------------------------------------------------

def run_universe() -> List[dict]:
    """Every corpus program at its default input on all 8 machines,
    unmetered, parsed from source text each time (`repro run`)."""
    jobs = []
    for name, (source, argument) in sorted(_corpus().items()):
        for machine in MACHINES:
            jobs.append({
                "id": f"{name}@{machine}",
                "program": source, "argument": argument,
                "machine": machine,
                "key": oracle_key(source, argument, machine, "unmetered"),
            })
    return jobs


# -- sweep -----------------------------------------------------------------

def sweep_universe() -> List[dict]:
    """Theorem 25 separators x 8 machines x N x {flat, linked}, plus
    Theorem 26 P_k on tail and sfs, exact meter, fixed precision."""
    jobs = []
    for separator in SEPARATORS:
        for machine in MACHINES:
            for n in SWEEP_NS:
                for linked in (False, True):
                    jobs.append(_metered_job(
                        separator.name, separator.source, str(n), machine,
                        linked))
    for k in SWEEP_KS:
        program = theorem26_program(k)
        for machine in ("tail", "sfs"):
            for linked in (False, True):
                jobs.append(_metered_job(f"P{k}", program, str(k), machine,
                                         linked))
    return jobs


def _metered_job(name, program, argument, machine, linked,
                 mode="exact-fixed") -> dict:
    accounting = "linked" if linked else "flat"
    return {
        "id": f"{name}({argument})@{machine}/{accounting}",
        "program": program, "argument": argument, "machine": machine,
        "linked": linked,
        "key": oracle_key(program, argument, machine, mode, linked),
    }


# -- trace -----------------------------------------------------------------

def trace_universe() -> List[dict]:
    """`repro trace` defaults (every event kept, blame at every
    configuration, bignum accounting) over separators at small N and
    corpus programs at small inputs, 8 machines, flat and linked."""
    corpus = _corpus()
    jobs = []
    programs = [(s.name, s.source, str(n)) for s in SEPARATORS
                for n in TRACE_NS]
    programs += [(name, corpus[name][0], argument)
                 for name, argument in TRACE_CORPUS.items()]
    for name, program, argument in programs:
        for machine in MACHINES:
            for linked in (False, True):
                jobs.append(_metered_job(name, program, argument, machine,
                                         linked, mode="exact-bignum"))
    return jobs


# -- serve -----------------------------------------------------------------

def serve_history_cells() -> List[dict]:
    """Separator cells whose oracle consumption forms the scheduler's
    fixed ``--history`` file (every separator, machine, accounting at
    :data:`SERVE_HISTORY_NS`)."""
    return [
        _metered_job(s.name, s.source, str(n), machine, linked)
        for s in SEPARATORS for machine in MACHINES
        for n in SERVE_HISTORY_NS for linked in (False, True)
    ]


def serve_oracle_cells() -> List[dict]:
    """Every cell a serve round can submit."""
    corpus = _corpus()
    cells = [
        _metered_job(name, source, argument, machine, False)
        for name, (source, argument) in sorted(corpus.items())
        for machine in MACHINES
    ]
    cells += serve_history_cells()
    for k in SERVE_KS:
        program = theorem26_program(k)
        cells.append(_metered_job(f"P{k}", program, str(k), "tail", True))
        cells.append(_metered_job(f"P{k}", program, str(k), "sfs", False))
    return cells


def serve_round(seed: int, round_index: int,
                whole: bool = False) -> List[List[dict]]:
    """One round's submissions, grouped into requests.

    Returns a list of requests; each is a list of jobs (one job, or a
    batch).  The composition is fixed; the seed picks the fillers (with
    *whole*, seed 0 picks them and the seed only orders the requests,
    so every seed submits the same jobs):

    - each corpus program but the rejected one on
      :data:`SERVE_CORPUS_MACHINES` machines, twice each (repeat
      submissions: artifact cache and per-worker hydration), no budget;
    - the rejected program once;
    - one separator job per separator, history size and side of its
      oracle consumption (``fit`` then ``result``; ``defer`` then
      ``deferred``);
    - :data:`SERVE_NEW_PROGRAMS` never-seen P_k texts, no budget, and
      :data:`SERVE_QUOTA_KS` more with a budget under their consumption
      (no history, so they run and end in ``quota``).

    Budgets are fractions of oracle consumption, filled in by
    :func:`attach_budgets` once the oracle is known.
    """
    rng = _rng(0, 0, "serve") if whole else _rng(seed, round_index, "serve")
    corpus = _corpus()
    jobs = []
    for name, (source, argument) in sorted(corpus.items()):
        if name == SERVE_REJECTED:
            continue
        for machine in rng.sample(MACHINES, SERVE_CORPUS_MACHINES):
            job = _metered_job(name, source, argument, machine, False)
            jobs.append(dict(job, side="none", kind="corpus"))
            jobs.append(dict(job, side="none", kind="corpus"))
    source, argument = corpus[SERVE_REJECTED]
    jobs.append(dict(_metered_job(SERVE_REJECTED, source, argument,
                                  rng.choice(MACHINES), False),
                     side="none", kind="rejected"))
    for separator in SEPARATORS:
        for n in SERVE_HISTORY_NS:
            for side in ("under", "over"):
                machine = rng.choice(MACHINES)
                linked = rng.random() < 0.5
                jobs.append(dict(_metered_job(
                    separator.name, separator.source, str(n), machine,
                    linked), side=side, kind="separator"))
    ks = rng.sample(SERVE_KS, SERVE_NEW_PROGRAMS + SERVE_QUOTA_KS)
    for index, k in enumerate(ks):
        machine, linked = rng.choice((("tail", True), ("sfs", False)))
        side = "none" if index < SERVE_NEW_PROGRAMS else "quota"
        jobs.append(dict(_metered_job(f"P{k}", theorem26_program(k), str(k),
                                      machine, linked),
                         side=side, kind="new"))
    for number, job in enumerate(jobs):
        job["id"] = f"{job['id']}#{number}"
    corpus_jobs = [job for job in jobs if job["kind"] == "corpus"]
    rng.shuffle(corpus_jobs)
    batched = corpus_jobs[:SERVE_BATCHES * SERVE_BATCH]
    in_batch = {id(job) for job in batched}
    requests = [batched[i:i + SERVE_BATCH]
                for i in range(0, len(batched), SERVE_BATCH)]
    requests += [[job] for job in jobs if id(job) not in in_batch]
    rng.shuffle(requests)
    if whole:
        _rng(seed, round_index, "serve-order").shuffle(requests)
    return requests


def attach_budgets(requests: List[List[dict]], oracle: dict) -> None:
    """Set each job's budget from its side of the oracle consumption."""
    for request in requests:
        for job in request:
            side = job["side"]
            consumption = oracle[job["key"]]["consumption"]
            if side == "under":
                job["budget"] = consumption + consumption // 2
            elif side in ("over", "quota"):
                job["budget"] = max(1, consumption * 3 // 5)
            else:
                job["budget"] = None


# -- round lists -----------------------------------------------------------

_UNIVERSES = {
    "run": run_universe,
    "sweep": sweep_universe,
    "trace": trace_universe,
}

#: Rounds one pass over a workload's universe is dealt into.  A round
#: is short, so a run has many of them (set-up time is a median over
#: them); every part holds each row of the universe (a program at one
#: input and accounting) on an equal share of the 8 machines, so all
#: rounds do comparable work.
ROUND_PARTS = {"run": 4, "sweep": 1, "trace": 2}


def _row(job: dict) -> Tuple[str, str, bool]:
    return job["key"].split("|")[0], job["argument"], job.get("linked",
                                                               False)


def round_jobs(workload: str, seed: int, round_index: int,
               whole: bool = False) -> List[dict]:
    """A round's job list for run, sweep or trace: its part of the
    current pass over the universe (the whole universe when *whole*),
    in a seeded order, so no long job always lands last."""
    parts = 1 if whole else ROUND_PARTS[workload]
    cycle, part = divmod(round_index, parts)
    rows: Dict[Tuple[str, str, bool], List[dict]] = {}
    for job in _UNIVERSES[workload]():
        rows.setdefault(_row(job), []).append(job)
    deal = _rng(seed, cycle, workload + "-deal")
    jobs = []
    for row in rows.values():
        if len(row) % parts:
            raise ValueError(f"{workload}: a row of {len(row)} jobs does "
                             f"not deal into {parts} rounds")
        deal.shuffle(row)
        share = len(row) // parts
        jobs += row[part * share:(part + 1) * share]
    _rng(seed, round_index, workload).shuffle(jobs)
    return jobs


def oracle_cells(workload: str) -> List[dict]:
    if workload == "serve":
        return serve_oracle_cells()
    return _UNIVERSES[workload]()
