"""The four workloads: one timed round each, untraced or traced.

Untraced rounds call the function behind each user path and nothing
else:

- ``run``: :func:`repro.harness.runner.run` (``repro run``), serially;
- ``sweep``: a :class:`repro.harness.sweep.WorkerPool` of 2 running
  :func:`repro.harness.sweep.run_cell` over every cell through
  ``run_grid``'s own job function, which is what
  :func:`~repro.harness.sweep.run_grid` does on a healthy grid, with
  the pool's events and a done-callback per cell so each cell's
  latency is observable; ``run_grid`` itself returns only when the
  whole grid is;
- ``trace``: :func:`repro.telemetry.blame.trace_run` with the
  ``repro trace`` defaults, serially;
- ``serve``: ``repro serve --workers 2`` in its own process, driven
  closed-loop over 2 connections (one tenant each) through
  ``POST /submit`` and ``GET /jobs/<id>/stream``.

Traced rounds call the public entry points of each ``src/repro/``
package in the same order as the user path, one span each (see
:mod:`spans`), and measure what one call hides by ablation reruns
outside the job.
"""

from __future__ import annotations

import bisect
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from statistics import median

from spans import UNATTRIBUTED, Tracer, check_jobs, layer_self_times, \
    per_job, write_chrome_trace

#: ``runner.run`` drives unmetered runs with this collection interval;
#: the traced ``run`` round repeats the same ``run_to_final`` call.
RUN_GC_INTERVAL = 1024

SWEEP_WORKERS = 2
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: ``repro serve --artifact-cache``: the server runs with this capacity
#: and the traced round replays its cache with the same.
SERVE_ARTIFACT_CACHE = 64


class Job:
    """One job's timed outcome."""

    __slots__ = ("id", "latency", "outcome")

    def __init__(self, job_id: str, latency: float, outcome: dict):
        self.id = job_id
        self.latency = latency
        self.outcome = outcome


def _error(error: BaseException) -> dict:
    return {"error": f"{type(error).__name__}: {error}"}


#: Times each ablation rerun runs; the fastest counts, since a busy
#: host or a collection only ever adds time to a run.
ABLATION_REPEATS = 3


def fastest(call) -> Tuple[object, float]:
    """(value, seconds) of the fastest of :data:`ABLATION_REPEATS`
    calls of *call*."""
    best = None
    for _ in range(ABLATION_REPEATS):
        start = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return value, best


# -- oracle checks ---------------------------------------------------------

def check_outcome(workload: str, job: dict, outcome: dict,
                  expected: dict) -> Optional[str]:
    """None when *outcome* equals the oracle's, else why not."""
    if "error" in outcome:
        return outcome["error"]
    if workload == "serve":
        return _check_receipt(job, outcome, expected)
    fields = ("answer", "steps")
    if workload != "run":
        fields += ("sup_space", "consumption")
    if workload == "trace":
        fields += ("collected",)
    for field in fields:
        want = expected["answer200" if field == "answer" and
                        workload != "run" else field]
        if outcome.get(field) != want:
            return f"{field}: got {outcome.get(field)!r}, oracle {want!r}"
    if workload == "trace":
        replayed = outcome["replay"]
        for field in ("steps", "sup_space", "collected"):
            if replayed[field] != outcome[field]:
                return (f"replay {field}: {replayed[field]} != "
                        f"{outcome[field]}")
        if outcome["blame_at_peak"] != outcome["sup_space"]:
            return (f"blame at the peak sums to {outcome['blame_at_peak']},"
                    f" peak space is {outcome['sup_space']}")
    return None


def _check_receipt(job: dict, receipt: dict, expected: dict) -> Optional[str]:
    kind = receipt.get("kind")
    budget = job.get("budget")
    if job["side"] in ("over", "quota"):
        if kind == "quota" and receipt.get("consumption", 0) > budget:
            return None
        if kind == "deferred" and receipt.get("predicted", 0) > budget:
            return None
        return f"over budget {budget}: got {kind} receipt"
    if kind != "result":
        return f"expected a result receipt, got {kind}: " + str(
            receipt.get("error") or receipt.get("reason") or "")
    for field in ("answer", "steps", "sup_space", "consumption"):
        if receipt.get(field) != expected[field]:
            return (f"{field}: got {receipt.get(field)!r}, oracle "
                    f"{expected[field]!r}")
    return None


# -- run -------------------------------------------------------------------

def run_round(jobs: List[dict]) -> Tuple[List[Job], float]:
    from repro.harness.runner import run

    done = []
    for job in jobs:
        start = time.perf_counter()
        try:
            result = run(job["program"], job["argument"],
                         machine=job["machine"])
            outcome = {"answer": result.answer, "steps": result.steps}
        except Exception as error:  # noqa: BLE001 - a failed job
            outcome = _error(error)
        done.append(Job(job["id"], time.perf_counter() - start, outcome))
    return done, sum(job.latency for job in done)


def run_traced(jobs: List[dict], tracer: Tracer) -> Tuple[List[Job], dict]:
    from repro.compiler.bytecode import code_count
    from repro.compiler.prepass import plan_count
    from repro.machine.answer import answer_string
    from repro.machine.primitives import primitive_names
    from repro.machine.variants import make_stepper
    from repro.reader import read_all
    from repro.space.meter import run_to_final
    from repro.syntax.expander import expand_expression, expand_program
    from repro.syntax.validate import validate

    names = primitive_names()
    counts = Counter()
    done = []
    for job in jobs:
        plans, codes = plan_count(), code_count()
        try:
            with tracer.span("job", UNATTRIBUTED, job=job["id"]) as root:
                with tracer.span("read_all", "reader"):
                    datums = read_all(job["program"])
                    argument_datums = read_all(job["argument"])
                with tracer.span("expand+validate", "syntax"):
                    program = expand_program(datums)
                    argument = expand_expression(argument_datums[0])
                    validate(program, names, strict=False)
                    validate(argument, names, strict=False)
                machine = make_stepper(job["machine"])
                with tracer.span("Machine.inject", "compiler.lower"):
                    machine.inject(program, argument)
                with tracer.span("run_to_final", "compiler.codegen") as first:
                    final, steps = run_to_final(
                        machine, program, argument,
                        gc_interval=RUN_GC_INTERVAL)
                outcome = {"answer": answer_string(final, 10000),
                           "steps": steps}
        except Exception as error:  # noqa: BLE001 - a failed job
            done.append(Job(job["id"], 0.0, _error(error)))
            continue
        counts["compiler.plans"] += plan_count() - plans
        counts["compiler.codes"] += code_count() - codes
        # Ablation: the same tree again, compiled code already built.
        _, stepped = fastest(lambda: run_to_final(
            make_stepper(job["machine"]), program, argument,
            gc_interval=RUN_GC_INTERVAL))
        tracer.split(first, [("machine", stepped)])
        _count_front_end(counts, job, program, argument)
        counts["machine.steps"] += steps
        done.append(Job(job["id"], tracer.spans[root].duration, outcome))
    return done, dict(counts)


# -- metered cells (sweep, trace, serve replay) ----------------------------

def step_unmetered(machine, program, argument, limit=None) -> int:
    """The cell stepped one transition at a time with ``Machine.step``,
    no meter and no collection: the stepping share of a metered run
    (of its first *limit* transitions, for a run the quota stopped)."""
    state = machine.inject(program, argument)
    steps = 0
    while True:
        configuration = machine.step(state)
        steps += 1
        if configuration.is_final or steps == limit:
            return steps
        state = configuration


def _front_end(tracer: Tracer, job: dict):
    """Read, expand, and lower a job's program and argument as their
    own spans; returns the expanded trees."""
    from repro.machine.variants import make_stepper
    from repro.reader import read_all
    from repro.syntax.expander import expand_expression, expand_program

    with tracer.span("read_all", "reader"):
        datums = read_all(job["program"])
        argument_datums = read_all(job["argument"])
    with tracer.span("expand", "syntax"):
        program = expand_program(datums)
        argument = expand_expression(argument_datums[0])
    with tracer.span("Machine.inject", "compiler.lower"):
        make_stepper(job["machine"]).inject(program, argument)
    return program, argument


def _count_front_end(counts: Counter, job: dict, program, argument) -> None:
    from repro.syntax.ast import walk

    counts["reader.bytes"] += len(job["program"].encode()) + len(
        job["argument"].encode())
    counts["syntax.nodes"] += sum(1 for _ in walk(program)) + sum(
        1 for _ in walk(argument))


def _count_meter(counts: Counter, stats: Optional[dict]) -> None:
    stats = stats or {}
    counts["space.fallbacks"] += stats.get("canonical_fallbacks", 0) + int(
        bool(stats.get("escape_fallback")))
    counts["space.trials"] += stats.get("trials", 0)
    counts["space.checkpoints"] += stats.get("checkpoints", 0)
    counts["space.exact_reruns"] += int(bool(stats.get("exact_rerun")))


# -- sweep -----------------------------------------------------------------

def sweep_cells(jobs: List[dict]):
    from repro.harness.sweep import SweepCell

    return [
        SweepCell(key=(job["id"],), machine=job["machine"],
                  program=job["program"], argument=job["argument"],
                  linked=job["linked"], fixed_precision=True)
        for job in jobs
    ]


def _cell_outcome(outcome) -> dict:
    if outcome.result is None:
        return {"error": outcome.error}
    result = outcome.result
    return {"answer": result.answer, "steps": result.steps,
            "sup_space": result.sup_space, "consumption": result.total}


def sweep_round(cells):
    """The grid on a fresh 2-worker pool; returns (jobs, grid wall,
    pool numbers: start seconds, per-cell queue waits, retries)."""
    from repro.harness.sweep import WorkerPool, _run_cell_job

    submitted = [0.0] * len(cells)
    started: Dict[int, float] = {}
    finished = [0.0] * len(cells)
    retries = []
    start = time.perf_counter()
    pool = WorkerPool(workers=SWEEP_WORKERS)
    spawn = time.perf_counter() - start
    try:
        futures = []
        for index, cell in enumerate(cells):
            def observe(kind, _payload, index=index):
                if kind == "start":
                    started.setdefault(index, time.perf_counter())
                elif kind == "retry":
                    retries.append(index)

            def stamp(_future, index=index):
                finished[index] = time.perf_counter()

            submitted[index] = time.perf_counter()
            future = pool.submit(_run_cell_job, cell, on_event=observe)
            future.add_done_callback(stamp)
            futures.append(future)
        results = []
        for future in futures:
            try:
                results.append(_cell_outcome(future.result()))
            except Exception as error:  # noqa: BLE001 - a failed job
                results.append(_error(error))
    finally:
        pool.shutdown()
    wall = time.perf_counter() - start
    # A cell's latency runs from its worker taking it (the pool's
    # ``start`` event) to its outcome: every cell is queued up front, so
    # time since submission would only restate the cell's queue
    # position.
    done = [
        Job(cell.key[0], finished[i] - started.get(i, submitted[i]),
            results[i])
        for i, cell in enumerate(cells)
    ]
    pool_numbers = {
        "spawn_s": spawn,
        "queue_s": [started[i] - submitted[i] for i in started],
        "retries": len(retries),
    }
    return done, wall, pool_numbers


def sweep_traced(jobs: List[dict], tracer: Tracer):
    from repro.harness.sweep import run_cell
    from repro.machine.variants import make_machine
    from repro.space.meter import run_metered

    cells = sweep_cells(jobs)
    checked, grid_wall, pool_numbers = sweep_round(cells)
    counts = Counter()
    for job in jobs:
        try:
            with tracer.span("job", UNATTRIBUTED, job=job["id"]):
                program, argument = _front_end(tracer, job)
                with tracer.span("run_metered", "space") as metered:
                    result = run_metered(
                        make_machine(job["machine"]), program, argument,
                        linked=job["linked"], fixed_precision=True)
        except Exception:  # noqa: BLE001 - the pool pass reports it
            continue
        steps, stepped = fastest(lambda: step_unmetered(
            make_machine(job["machine"]), program, argument))
        tracer.split(metered, [("machine", stepped)])
        _count_front_end(counts, job, program, argument)
        _count_meter(counts, result.meter_stats)
        counts["machine.steps"] += steps
    # The untraced serial pass follows the traced one, so warm-up this
    # process still pays lands in the traced pass: the tracing overhead
    # taken against it is an upper bound, never below zero by warm-up.
    serial = 0.0
    for cell in cells:
        start = time.perf_counter()
        run_cell(cell)
        serial += time.perf_counter() - start
    waits = pool_numbers["queue_s"]
    extra = {
        "harness.spawn_s": pool_numbers["spawn_s"],
        "harness.queue_s": median(waits) if waits else 0.0,
        "harness.parallel_efficiency": serial / (SWEEP_WORKERS * grid_wall),
        "harness.retries": pool_numbers["retries"],
        "untraced_serial_s": serial,
    }
    return checked, dict(counts), extra


# -- trace -----------------------------------------------------------------

def _trace_outcome(session) -> dict:
    from repro.telemetry.bus import replay

    result = session.result
    summary = replay(session.bus.events)
    return {
        "answer": session.extra["answer"],
        "steps": result.steps,
        "sup_space": result.sup_space,
        "consumption": result.consumption,
        "collected": result.collected,
        "replay": {"steps": summary.steps, "sup_space": summary.sup_space,
                   "collected": summary.collected},
        "blame_at_peak": sum(session.blame.at_peak.values()),
    }


def trace_round(jobs: List[dict]) -> Tuple[List[Job], float]:
    from repro.telemetry.blame import trace_run

    done = []
    for job in jobs:
        start = time.perf_counter()
        try:
            session = trace_run(job["machine"], job["program"],
                                job["argument"], linked=job["linked"])
        except Exception as error:  # noqa: BLE001 - a failed job
            done.append(Job(job["id"], time.perf_counter() - start,
                            _error(error)))
            continue
        latency = time.perf_counter() - start
        done.append(Job(job["id"], latency, _trace_outcome(session)))
        del session
    return done, sum(job.latency for job in done)


def trace_traced(jobs: List[dict], tracer: Tracer):
    from repro.machine.variants import make_stepper
    from repro.space.meter import run_metered
    from repro.telemetry.blame import trace_run

    counts = Counter()
    done = []
    for job in jobs:
        try:
            with tracer.span("job", UNATTRIBUTED, job=job["id"]) as root:
                program, argument = _front_end(tracer, job)
                with tracer.span("trace_run", "telemetry") as traced:
                    session = trace_run(job["machine"], program, argument,
                                        linked=job["linked"])
        except Exception as error:  # noqa: BLE001 - a failed job
            done.append(Job(job["id"], 0.0, _error(error)))
            continue
        counts["telemetry.events"] += len(session.bus.events)
        counts["telemetry.blame_samples"] += session.blame.sampled
        counts["machine.steps"] += session.result.steps
        _count_meter(counts, session.result.meter_stats)
        outcome = _trace_outcome(session)
        del session
        _, metered = fastest(lambda: run_metered(
            make_stepper(job["machine"]), program, argument,
            linked=job["linked"]))
        _, stepped = fastest(lambda: step_unmetered(
            make_stepper(job["machine"]), program, argument))
        tracer.split(traced, [("machine", stepped), ("space", metered)])
        _count_front_end(counts, job, program, argument)
        done.append(Job(job["id"], tracer.spans[root].duration, outcome))
    return done, dict(counts)


# -- serve -----------------------------------------------------------------

class Server:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, history: str):
        import http.client

        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS), "--history", history,
             "--artifact-cache", str(SERVE_ARTIFACT_CACHE)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not announce: {line!r}")
        self.host, _, port = line.split("http://", 1)[1].split()[0] \
            .partition(":")
        self.port = int(port)
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def connect(self):
        import http.client

        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request(self, method: str, path: str, payload=None):
        connection = self.connect()
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def stream(self, job_id: str) -> Tuple[List[dict], float]:
        """The job's receipts, read from its push stream until the
        terminal one; returns them with the client time it arrived."""
        from repro.serving.protocol import TERMINAL_KINDS

        connection = self.connect()
        try:
            connection.request("GET", f"/jobs/{job_id}/stream")
            response = connection.getresponse()
            receipts = []
            while True:
                line = response.readline()
                if not line:
                    raise RuntimeError(f"stream of {job_id} ended early")
                record = json.loads(line)
                if record.get("kind") == "meta":
                    continue
                receipts.append(record)
                if record["kind"] in TERMINAL_KINDS:
                    return receipts, time.time()
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (the server shuts its pool down and reaps it), then
        wait; a server that hangs is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def _spec(job: dict, tenant: str) -> dict:
    spec = {"program": job["program"], "argument": job["argument"],
            "machine": job["machine"], "tenant": tenant,
            "accounting": "linked" if job["linked"] else "flat"}
    if job.get("budget") is not None:
        spec["budget"] = job["budget"]
    return spec


def _drive(server: Server, requests: "queue.SimpleQueue", tenant: str,
           out: List[dict]) -> None:
    """One closed-loop client: each request's jobs must settle before
    the client takes the next request from the shared queue, so both
    clients stay busy until the round's last request."""
    import http.client

    while True:
        try:
            request = requests.get_nowait()
        except queue.Empty:
            return
        start = time.time()
        try:
            if len(request) == 1:
                status, body = server.request(
                    "POST", "/submit", _spec(request[0], tenant))
                entries = [body] if status == 202 else None
            else:
                status, body = server.request(
                    "POST", "/submit",
                    {"jobs": [_spec(job, tenant) for job in request]})
                entries = body.get("jobs") if status == 202 else None
        except (OSError, ValueError, http.client.HTTPException) as error:
            status, body, entries = None, {"reason": str(error)}, None
        admitted = time.time()
        if entries is None:
            for job in request:
                out.append({"job": job, "request": request[0]["id"],
                            "start": start, "admitted": admitted,
                            "end": None, "receipts": [],
                            "rejected": f"HTTP {status}: "
                                        f"{body.get('reason')}"})
            continue
        for job, entry in zip(request, entries):
            try:
                receipts, end = server.stream(entry["job"])
            except (OSError, RuntimeError, ValueError,
                    http.client.HTTPException) as error:
                receipts, end = [{"kind": "error", "error": str(error)}], None
            out.append({"job": job, "request": request[0]["id"],
                        "start": start, "admitted": admitted,
                        "end": end, "receipts": receipts, "rejected": None})


def serve_round(requests: List[List[dict]], server: Server):
    """Drive the mix; returns (jobs, wall, records)."""
    pending: "queue.SimpleQueue" = queue.SimpleQueue()
    for request in requests:
        pending.put(request)
    records: List[List[dict]] = [[] for _ in range(SERVE_CLIENTS)]
    threads = [
        threading.Thread(target=_drive,
                         args=(server, pending, f"tenant-{i}", records[i]))
        for i in range(SERVE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    flat = [record for share in records for record in share]
    if len(flat) != sum(len(request) for request in requests):
        raise RuntimeError("a serve client stopped before the round ended")
    done = []
    for record in flat:
        job = record["job"]
        if record["rejected"] is not None:
            outcome = {"error": record["rejected"]}
            latency = float("inf")
        else:
            terminal = record["receipts"][-1]
            outcome = terminal
            latency = (record["end"] - record["start"]
                       if record["end"] is not None else float("inf"))
            if terminal.get("kind") == "error":
                latency = float("inf")
        done.append(Job(job["id"], latency, outcome))
    return done, wall, flat


def _replay_key(job: dict) -> Tuple:
    """Jobs with equal keys run identically: one in-process replay each."""
    return (job["program"], job["argument"], job["machine"], job["linked"],
            job.get("budget"))


def _receipt_times(receipts: List[dict]) -> Dict[str, float]:
    return {receipt["kind"]: receipt["ts"] for receipt in receipts
            if "ts" in receipt}


def _terminal(stamps: Dict[str, float]) -> Optional[str]:
    return next((kind for kind in ("result", "quota", "deferred", "error")
                 if kind in stamps), None)


def _telescope(increments: List[Tuple[str, float]]) -> List[Tuple[str, float]]:
    """Ablation parts for :meth:`Tracer.split` from each inner layer's
    own seconds, innermost first: each part's measurement covers the
    ones before it.  Layers a request did not pay for are left out."""
    parts, total = [], 0.0
    for layer, seconds in increments:
        if seconds:
            total += seconds
            parts.append((layer, total))
    return parts


def _replay_front_end(source: str, names) -> dict:
    """``_prepare_spec``'s work on a cold program, one call per layer:
    read, expand + validate, build the artifact (each timed with
    :func:`fastest`)."""
    from repro.reader import read_all
    from repro.serving.artifacts import build_artifact
    from repro.syntax.expander import expand_program
    from repro.syntax.validate import validate

    times = {"reader": 0.0, "syntax": 0.0, "compiler.lower": 0.0}
    built = {"times": times, "blob": None}
    datums, times["reader"] = fastest(lambda: read_all(source))

    def front():
        program = expand_program(datums)
        validate(program, names)
        return program

    start = time.perf_counter()
    try:
        program, times["syntax"] = fastest(front)
    except Exception:  # noqa: BLE001 - the server's 400 for this text
        times["syntax"] = time.perf_counter() - start
        return built
    built["blob"], times["compiler.lower"] = fastest(
        lambda: build_artifact(program))
    built["program"] = program
    return built


def _replay_worker(job: dict, blob: bytes, counts: Counter) -> dict:
    """The worker's side of one job, replayed in-process through the
    worker's own entry point :func:`run_service_job` on the spec the
    server sends: seconds to hydrate the artifact, the job itself on
    the hydrated tree (the sampled-meter run), and the same transitions
    stepped unmetered with ``Machine.step``, each timed with
    :func:`fastest`."""
    from repro.machine.variants import make_stepper
    from repro.serving.artifacts import (clear_hydrated, hydrate_artifact,
                                         program_sha, resolve_program)
    from repro.serving.protocol import validate_submit
    from repro.serving.quota import run_service_job
    from repro.space.consumption import measure, prepare_input
    from repro.space.meter import QuotaExceeded

    spec = validate_submit(_spec(job, "replay"))
    spec["program_sha"] = program_sha(spec["program"])
    spec["artifact"] = blob
    _, hydrate = fastest(lambda: hydrate_artifact(blob))
    clear_hydrated()
    tree = resolve_program(spec)
    receipt, metered = fastest(lambda: run_service_job(spec))
    argument = prepare_input(spec["argument"])
    limit = receipt.get("step") if receipt["kind"] == "quota" else None
    steps, stepped = fastest(lambda: step_unmetered(
        make_stepper(job["machine"]), tree, argument, limit))
    counts["machine.steps"] += steps
    try:
        result = measure(job["machine"], tree, argument,
                         linked=job["linked"], fixed_precision=True,
                         meter="sampled", budget=job.get("budget"))
        _count_meter(counts, result.meter_stats)
    except QuotaExceeded:
        _count_meter(counts, None)
    clear_hydrated()
    return {"hydrate": hydrate, "metered": metered, "machine": stepped}


class WorkerClock:
    """Samples the scheduler clocks of every ``repro serve`` pool worker
    (``/proc/<pid>/schedstat``: nanoseconds on a CPU and nanoseconds
    runnable but waiting for one) while a traced round runs, so each
    job's worker span splits into the worker's time on a CPU and its
    time queued for one."""

    INTERVAL = 0.002

    def __init__(self, server_pid: int):
        self.server_pid = server_pid
        self.samples: Dict[int, List[Tuple[float, int, int]]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _workers(self) -> List[int]:
        pids = []
        tasks = f"/proc/{self.server_pid}/task"
        for task in os.listdir(tasks):
            with open(f"{tasks}/{task}/children", encoding="ascii") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        return pids

    def _sample(self) -> None:
        while not self._stop.is_set():
            try:
                workers = self._workers()
            except OSError:
                workers = []
            for pid in workers:
                try:
                    with open(f"/proc/{pid}/schedstat",
                              encoding="ascii") as handle:
                        fields = handle.read().split()
                except OSError:
                    continue
                self.samples.setdefault(pid, []).append(
                    (time.time(), int(fields[0]), int(fields[1])))
            self._stop.wait(self.INTERVAL)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def between(self, pid: int, start: float, end: float) -> Tuple[float,
                                                                    float]:
        """Seconds *pid* spent on a CPU and waiting for one between two
        wall-clock times, interpolated between samples."""
        samples = self.samples.get(pid)
        if not samples:
            raise RuntimeError(
                f"no scheduler samples for worker {pid}: the traced serve "
                "round needs /proc/<pid>/task/*/children and "
                "/proc/<pid>/schedstat")
        times = [sample[0] for sample in samples]

        def at(when: float) -> Tuple[float, float]:
            later = min(bisect.bisect_left(times, when), len(samples) - 1)
            if later == 0 or samples[later][0] < when:
                return samples[later][1], samples[later][2]
            (t0, c0, w0), (t1, c1, w1) = samples[later - 1], samples[later]
            share = (when - t0) / (t1 - t0)
            return c0 + share * (c1 - c0), w0 + share * (w1 - w0)

        (c0, w0), (c1, w1) = at(start), at(end)
        return (c1 - c0) / 1e9, (w1 - w0) / 1e9


def _pid(record: dict) -> int:
    return next(receipt["pid"] for receipt in record["receipts"]
                if receipt["kind"] == "start")


def serve_traced(records: List[dict], metrics: dict, clock: WorkerClock,
                 tracer: Tracer):
    """Per-layer numbers for a driven mix.

    Each job's span tiles its client-clock wait with the server's
    receipt stamps: ``POST /submit`` up to the ``queued`` stamp
    (serving), ``queued`` to ``start`` (the pool queue: harness), the
    worker span to the terminal stamp, and delivery to the client
    (serving).  Ablations split the spans: the front end of every
    submission the artifact cache missed (the cache is replayed at the
    server's capacity, in admission order, and must build as often as
    the server's did), and the worker span's time on a CPU, from
    *clock*, in the proportions of the worker's own work replayed
    in-process (:func:`_replay_worker`; hydration only on a worker's
    first job for the program), beside its wait for a CPU.  A batch's
    members share its start and end, so each member's spans carry the
    whole request's parts.  What neither covers (a worker blocked on
    its pipe, the server's dispatch of its events) is the unattributed
    remainder."""
    from repro.compiler.bytecode import code_count
    from repro.compiler.prepass import plan_count
    from repro.machine.primitives import primitive_names
    from repro.serving.artifacts import ArtifactCache, program_sha
    from repro.syntax.ast import walk

    names = primitive_names()
    counts = Counter({name: 0 for name in (
        "serving.quota_kills", "serving.rejected", "serving.build_s",
        "serving.artifact_bytes")})
    _count_meter(counts, None)
    fronts: Dict[str, dict] = {}
    for record in records:
        source = record["job"]["program"]
        if source in fronts:
            continue
        plans, codes = plan_count(), code_count()
        fronts[source] = front = _replay_front_end(source, names)
        counts["reader.bytes"] += len(source.encode())
        if front["blob"] is not None:
            counts["compiler.plans"] += plan_count() - plans
            counts["compiler.codes"] += code_count() - codes
            counts["syntax.nodes"] += sum(1 for _ in walk(front["program"]))
            counts["serving.artifact_bytes"] += len(front["blob"])
            counts["serving.build_s"] += front["times"]["compiler.lower"]

    # The artifact cache, replayed in admission order: which
    # submissions lowered their program on the server's event loop.
    stamped = [(_receipt_times(r["receipts"]).get("queued", r["start"]), i)
               for i, r in enumerate(records)]
    cache = ArtifactCache(capacity=SERVE_ARTIFACT_CACHE)
    missed = [False] * len(records)
    for _, index in sorted(stamped):
        job = records[index]["job"]
        front = fronts[job["program"]]
        if front["blob"] is None:
            missed[index] = True
            continue

        def build(index=index, blob=front["blob"]):
            missed[index] = True
            return blob

        cache.get_or_build(program_sha(job["program"]), job["machine"],
                           "annotated", build)
    server_builds = metrics["cache"]["builds"]
    replay_builds = cache.stats()["builds"]

    # The workers' side, in the order the workers started the jobs.
    replays: Dict[Tuple, dict] = {}
    hydrated = set()
    worker_levels: Dict[int, Dict[str, float]] = {}
    started = []
    for index, record in enumerate(records):
        stamps = _receipt_times(record["receipts"])
        if "start" in stamps:
            started.append((stamps["start"], index))
    for _, index in sorted(started):
        record = records[index]
        job = record["job"]
        key = _replay_key(job)
        if key not in replays:
            replays[key] = _replay_worker(
                job, fronts[job["program"]]["blob"], counts)
        replay = replays[key]
        pid = _pid(record)
        levels = {"machine": replay["machine"],
                  "space": replay["metered"] - replay["machine"],
                  "serving": 0.0}
        if (pid, job["program"]) not in hydrated:
            hydrated.add((pid, job["program"]))
            levels["serving"] = replay["hydrate"]
        worker_levels[index] = levels

    requests: Dict[str, List[int]] = {}
    for index, record in enumerate(records):
        requests.setdefault(record["request"], []).append(index)
    admit, waits, worker, deliver = [], [], [], []
    for members in requests.values():
        front_sum = Counter()
        for index in members:
            if missed[index]:
                front_sum.update(fronts[records[index]["job"]["program"]]
                                 ["times"])
        post_parts = _telescope([(layer, front_sum[layer]) for layer in
                                 ("reader", "syntax", "compiler.lower")])
        work = Counter()
        for index in members:
            work.update(worker_levels.get(index, {}))
        for index in members:
            record = records[index]
            job = record["job"]
            stamps = _receipt_times(record["receipts"])
            terminal = _terminal(stamps)
            t0, t1 = record["start"], record["admitted"]
            admit.append(t1 - t0)
            if record["end"] is None or terminal is None:
                root = tracer.add("job", UNATTRIBUTED, t0, t1, None,
                                  job=job["id"])
                post = tracer.add("POST /submit", "serving", t0, t1, root)
                tracer.split(post, post_parts)
                if record["rejected"] is not None:
                    counts["serving.rejected"] += 1
                continue
            t2, queued, ended = record["end"], stamps["queued"], \
                stamps[terminal]
            root = tracer.add("job", UNATTRIBUTED, t0, t2, None,
                              job=job["id"])
            post = tracer.add("POST /submit", "serving", t0, queued, root)
            tracer.split(post, post_parts)
            if "start" in stamps:
                began = stamps["start"]
                waits.append(began - queued)
                worker.append(ended - began)
                tracer.add("queued->start", "harness", queued, began, root)
                ran = tracer.add("worker", UNATTRIBUTED, began, ended, root)
                # The worker's time on a CPU, split in the proportions
                # of the replayed work, and its wait for a CPU.
                on_cpu, cpu_wait = clock.between(_pid(record), began, ended)
                scale = on_cpu / sum(work.values())
                tracer.split(ran, _telescope(
                    [(layer, scale * work[layer])
                     for layer in ("machine", "space", "serving")]
                    + [("harness.cpu_wait", cpu_wait)]))
            else:
                tracer.add("scheduler verdict", "serving", queued, ended,
                           root)
            deliver.append(t2 - ended)
            tracer.add("deliver", "serving", ended, t2, root)
            if terminal == "quota":
                counts["serving.quota_kills"] += 1

    lookups = metrics["cache"]["hits"] + metrics["cache"]["misses"]
    verdicts = Counter()
    for key, value in metrics.get("counters", {}).items():
        if key.startswith("scheduler{"):
            verdicts[key.split("verdict=", 1)[1].rstrip("}")] += value
    extra = {
        "serving.admit_ms": 1000 * median(admit),
        "serving.queue_ms": 1000 * median(waits),
        "serving.worker_ms": 1000 * median(worker),
        "serving.deliver_ms": 1000 * median(deliver),
        "serving.cache_hit_ratio": metrics["cache"]["hits"] / lookups,
        "serving.cache_builds": server_builds,
    }
    for verdict in ("fit", "defer", "uncertain", "unknown"):
        extra[f"serving.verdict.{verdict}"] = verdicts.get(verdict, 0)
    problems = []
    if replay_builds != server_builds:
        problems.append(f"the replayed artifact cache built {replay_builds} "
                        f"times, the server {server_builds}")
    return dict(counts), extra, problems


# -- layer table -----------------------------------------------------------

#: How far a span's share may go below zero before the layer table
#: counts as broken: the resolution of the clocks that split spans
#: (scheduler statistics advance at clock ticks) and the timing noise
#: of one ablation rerun on a shared host.
SPAN_TOLERANCE = 0.005

LAYERS = ("reader", "syntax", "compiler.lower", "compiler.codegen",
          "machine", "space", "telemetry", "harness", "harness.cpu_wait",
          "serving")


def layer_table(tracer: Tracer, problems=()) -> dict:
    """Self time per layer over every job, the unattributed remainder,
    the summed job wall, and every break of the layer table."""
    jobs = per_job(tracer.spans)
    totals: Dict[str, float] = {}
    wall = 0.0
    for local in jobs.values():
        wall += sum(span.duration for span in local if span.parent is None)
        for layer, seconds in layer_self_times(local).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {
        "self_s": {layer: totals.get(layer, 0.0) for layer in LAYERS},
        "unattributed_s": totals.get(UNATTRIBUTED, 0.0),
        "wall_s": wall,
        "broken": check_jobs(tracer.spans, SPAN_TOLERANCE) + list(problems),
    }


def save_trace(path: str, tracer: Tracer) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_chrome_trace(path, tracer.spans)
