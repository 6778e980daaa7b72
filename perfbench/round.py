"""One round of one workload in a fresh process.

    python3 perfbench/round.py WORKLOAD SEED ROUND SPAWNED OUT [--traced]
        [--whole] [--oracle PATH] [--history PATH] [--chrome PATH]

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (a system-wide clock on Linux), so set-up time counts
interpreter start, imports and building the job list.  The round
writes one JSON document to ``OUT``: per-job latencies and oracle
verdicts, set-up time, peak RSS, host diagnostics and, when traced,
the layer table.
"""

from __future__ import annotations

import gc
import time

_GC = {"count": 0, "seconds": 0.0, "started": None}


def _gc_callback(phase, _info):
    if phase == "start":
        _GC["started"] = time.perf_counter()
    elif _GC["started"] is not None:
        _GC["seconds"] += time.perf_counter() - _GC["started"]
        _GC["count"] += 1
        _GC["started"] = None


gc.callbacks.append(_gc_callback)

import argparse  # noqa: E402 - the GC callback must see every collection
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process this round ran: itself, or a
    reaped child (pool workers; the server and, through it, its
    workers).  Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: Modules each workload's timed phase calls into, imported before
#: set-up ends, so import time counts in ``setup_s`` and in no job
#: (``trace_run`` imports the meter and telemetry stack on its first
#: call).
TIMED_IMPORTS = {
    "run": ("repro.harness.runner",),
    "sweep": ("repro.harness.sweep",),
    "trace": ("repro.telemetry.blame", "repro.telemetry.bus",
              "repro.telemetry.metrics", "repro.machine.answer",
              "repro.machine.variants", "repro.space.consumption",
              "repro.space.meter"),
    "serve": ("http.client", "repro.serving.protocol"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("round", type=int)
    parser.add_argument("spawned", type=float)
    parser.add_argument("out")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--oracle")
    parser.add_argument("--history")
    parser.add_argument("--chrome")
    parser.add_argument("--whole", action="store_true",
                        help="the traced run's rounds: the same jobs for "
                        "every seed (the whole job universe; for serve, "
                        "the mix seed 0 fills) in the seed's order")
    parser.add_argument("--limit", type=int,
                        help="first N jobs (requests for serve) only: the "
                        "self-tests' minimal-size pass")
    args = parser.parse_args(argv)

    import importlib

    import jobs as joblists
    import workloads
    from spans import Tracer

    workload = args.workload
    for module in TIMED_IMPORTS[workload]:
        importlib.import_module(module)
    tracer = Tracer()
    counts: dict = {}
    extra: dict = {}
    problems: list = []
    oracle = None
    if workload == "serve":
        with open(args.oracle, encoding="utf-8") as handle:
            oracle = json.load(handle)["outcomes"]
        requests = joblists.serve_round(args.seed, args.round,
                                        args.whole)[:args.limit]
        joblists.attach_budgets(requests, oracle)
        jobs = [job for request in requests for job in request]
        server = workloads.Server(args.history)
        setup = time.monotonic() - args.spawned
        try:
            clock = (workloads.WorkerClock(server.process.pid)
                     if args.traced else None)
            try:
                done, wall, records = workloads.serve_round(requests, server)
            finally:
                if clock is not None:
                    clock.stop()
            if args.traced:
                _, metrics = server.request("GET", "/metrics")
        finally:
            server.stop()
        if args.traced:
            counts, extra, problems = workloads.serve_traced(
                records, metrics, clock, tracer)
    else:
        jobs = joblists.round_jobs(workload, args.seed, args.round,
                                   args.whole)[:args.limit]
        cells = workloads.sweep_cells(jobs) if workload == "sweep" else None
        setup = time.monotonic() - args.spawned
        if args.traced:
            if workload == "run":
                done, counts = workloads.run_traced(jobs, tracer)
            elif workload == "sweep":
                done, counts, extra = workloads.sweep_traced(jobs, tracer)
            else:
                done, counts = workloads.trace_traced(jobs, tracer)
            wall = None
        elif workload == "run":
            done, wall = workloads.run_round(jobs)
        elif workload == "sweep":
            done, wall, _pool = workloads.sweep_round(cells)
        else:
            done, wall = workloads.trace_round(jobs)

    if oracle is None:
        with open(args.oracle, encoding="utf-8") as handle:
            oracle = json.load(handle)["outcomes"]
    by_id = {job["id"]: job for job in jobs}
    if len(by_id) != len(jobs):
        raise RuntimeError("job ids must be unique within a round")
    failures = []
    for job_done in done:
        job = by_id[job_done.id]
        why = workloads.check_outcome(workload, job, job_done.outcome,
                                      oracle[job["key"]])
        if why is not None:
            # The one refusal README.md records as a program defect.
            known = job.get("kind") == "rejected" and why.startswith(
                "HTTP 400")
            failures.append({"job": job_done.id, "why": why,
                             "known_defect": known})
            job_done.latency = float("inf")

    document = {
        "workload": workload,
        "seed": args.seed,
        "round": args.round,
        "traced": args.traced,
        "setup_s": setup,
        "wall_s": wall,
        "latencies": [job.latency for job in done],
        "attempted": len(done),
        "failures": failures,
        "peak_rss_mb": _peak_rss_mb(),
        "diagnostics": {
            "gc_count": _GC["count"],
            "gc_s": _GC["seconds"],
            "cpu_s": sum(os.times()[:4]),
        },
    }
    if args.traced:
        table = workloads.layer_table(tracer, problems)
        document["layers"] = table
        document["counts"] = counts
        document["extra"] = extra
        if args.chrome:
            workloads.save_trace(args.chrome, tracer)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
